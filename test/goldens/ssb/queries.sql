-- ssb_q1.1
SELECT * FROM (SELECT * FROM ddate WHERE d_year = 3) q1 JOIN (SELECT * FROM lineorder WHERE (lo_discount >= 9 AND lo_discount <= 11 AND lo_quantity < 51)) q2 ON d_datekey = lo_orderdate;

-- ssb_q1.2
SELECT * FROM (SELECT * FROM ddate WHERE d_yearmonthnum = 1) q1 JOIN (SELECT * FROM lineorder WHERE (lo_discount >= 11 AND lo_discount <= 11 AND lo_quantity >= 1 AND lo_quantity <= 50)) q2 ON d_datekey = lo_orderdate;

-- ssb_q1.3
SELECT * FROM (SELECT * FROM ddate WHERE (d_weeknuminyear = 1 AND d_year = 4)) q1 JOIN (SELECT * FROM lineorder WHERE (lo_discount >= 10 AND lo_discount <= 11 AND lo_quantity >= 1 AND lo_quantity <= 50)) q2 ON d_datekey = lo_orderdate;

-- ssb_q2.1
SELECT * FROM (SELECT * FROM part WHERE p_category = 'v00000001') q1 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_region = 'v00000000') q2 JOIN (SELECT * FROM ddate JOIN lineorder ON d_datekey = lo_orderdate) q3 ON s_suppkey = lo_suppkey) q4 ON p_partkey = lo_partkey;

-- ssb_q2.2
SELECT * FROM (SELECT * FROM part WHERE (p_brand1 >= 'v00000016' AND p_brand1 <= 'v00000016')) q1 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_region = 'v00000001') q2 JOIN (SELECT * FROM ddate JOIN lineorder ON d_datekey = lo_orderdate) q3 ON s_suppkey = lo_suppkey) q4 ON p_partkey = lo_partkey;

-- ssb_q2.3
SELECT * FROM (SELECT * FROM part WHERE p_brand1 = 'v00000000') q1 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_region = 'v00000002') q2 JOIN (SELECT * FROM ddate JOIN lineorder ON d_datekey = lo_orderdate) q3 ON s_suppkey = lo_suppkey) q4 ON p_partkey = lo_partkey;

-- ssb_q3.1
SELECT * FROM (SELECT * FROM customer WHERE c_region = 'v00000001') q1 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_region = 'v00000000') q2 JOIN (SELECT * FROM (SELECT * FROM ddate WHERE (d_year >= 3 AND d_year <= 6)) q3 JOIN lineorder ON d_datekey = lo_orderdate) q4 ON s_suppkey = lo_suppkey) q5 ON c_custkey = lo_custkey;

-- ssb_q3.2
SELECT * FROM (SELECT * FROM customer WHERE c_nation = 'v00000001') q1 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_nation = 'v00000001') q2 JOIN (SELECT * FROM (SELECT * FROM ddate WHERE (d_year >= 3 AND d_year <= 6)) q3 JOIN lineorder ON d_datekey = lo_orderdate) q4 ON s_suppkey = lo_suppkey) q5 ON c_custkey = lo_custkey;

-- ssb_q3.3
SELECT * FROM (SELECT * FROM customer WHERE c_city IN ('v00000000', 'v00000001')) q1 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_city IN ('v00000000', 'v00000000')) q2 JOIN (SELECT * FROM (SELECT * FROM ddate WHERE (d_year >= 3 AND d_year <= 6)) q3 JOIN lineorder ON d_datekey = lo_orderdate) q4 ON s_suppkey = lo_suppkey) q5 ON c_custkey = lo_custkey;

-- ssb_q3.4
SELECT * FROM (SELECT * FROM customer WHERE c_city IN ('v00000000', 'v00000001')) q1 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_city IN ('v00000000', 'v00000000')) q2 JOIN (SELECT * FROM (SELECT * FROM ddate WHERE d_yearmonthnum = 2) q3 JOIN lineorder ON d_datekey = lo_orderdate) q4 ON s_suppkey = lo_suppkey) q5 ON c_custkey = lo_custkey;

-- ssb_q4.1
SELECT * FROM (SELECT * FROM part WHERE p_mfgr IN ('v00000001', 'v00000002')) q1 JOIN (SELECT * FROM (SELECT * FROM customer WHERE c_region = 'v00000002') q2 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_region = 'v00000003') q3 JOIN (SELECT * FROM (SELECT * FROM ddate WHERE d_year >= 3) q4 JOIN lineorder ON d_datekey = lo_orderdate) q5 ON s_suppkey = lo_suppkey) q6 ON c_custkey = lo_custkey) q7 ON p_partkey = lo_partkey;

-- ssb_q4.2
SELECT * FROM (SELECT * FROM part WHERE p_mfgr IN ('v00000001', 'v00000002')) q1 JOIN (SELECT * FROM (SELECT * FROM customer WHERE c_region = 'v00000002') q2 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_region = 'v00000003') q3 JOIN (SELECT * FROM (SELECT * FROM ddate WHERE (d_year >= 6 AND d_year <= 6)) q4 JOIN lineorder ON d_datekey = lo_orderdate) q5 ON s_suppkey = lo_suppkey) q6 ON c_custkey = lo_custkey) q7 ON p_partkey = lo_partkey;

-- ssb_q4.3
SELECT * FROM (SELECT * FROM part WHERE p_category = 'v00000002') q1 JOIN (SELECT * FROM (SELECT * FROM customer WHERE c_region = 'v00000002') q2 JOIN (SELECT * FROM (SELECT * FROM supplier WHERE s_nation = 'v00000002') q3 JOIN (SELECT * FROM (SELECT * FROM ddate WHERE (d_year >= 6 AND d_year <= 6)) q4 JOIN lineorder ON d_datekey = lo_orderdate) q5 ON s_suppkey = lo_suppkey) q6 ON c_custkey = lo_custkey) q7 ON p_partkey = lo_partkey;

