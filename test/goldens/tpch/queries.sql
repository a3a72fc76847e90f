-- tpch_q1
SELECT l_returnflag, SUM(l_quantity) AS sum_l_quantity, SUM(l_extendedprice) AS sum_l_extendedprice, AVG(l_discount) AS avg_l_discount, COUNT(l_linekey) AS count_l_linekey FROM (SELECT * FROM lineitem WHERE l_shipdate <= 1591) q1 GROUP BY l_returnflag;

-- tpch_q2
SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM region WHERE r_name = 'v00000001') q1 JOIN nation ON r_regionkey = n_regionkey) q2 JOIN supplier ON n_nationkey = s_nationkey) q3 JOIN (SELECT * FROM (SELECT * FROM part WHERE (p_size = 0 AND p_type LIKE 'nomatch')) q4 JOIN partsupp ON p_partkey = ps_partkey) q5 ON s_suppkey = ps_suppkey;

-- tpch_q3
SELECT * FROM (SELECT * FROM (SELECT * FROM customer WHERE c_mktsegment = 'v00000001') q1 JOIN (SELECT * FROM orders WHERE o_orderdate < 381) q2 ON c_custkey = o_custkey) q3 JOIN (SELECT * FROM lineitem WHERE l_shipdate > 892) q4 ON o_orderkey = l_orderkey;

-- tpch_q4
SELECT * FROM (SELECT * FROM orders WHERE (o_orderdate >= 240 AND o_orderdate < 269)) q3 WHERE EXISTS (SELECT 1 FROM (SELECT * FROM lineitem WHERE (l_commitdate - l_receiptdate) < 2.) q4 WHERE q4.l_orderkey = q3.o_orderkey);

-- tpch_q5
SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM nation WHERE n_name IN ('v00000001', 'v00000002', 'v00000003', 'v00000004', 'v00000005')) q1 JOIN customer ON n_nationkey = c_nationkey) q2 JOIN (SELECT * FROM orders WHERE (o_orderdate >= 119 AND o_orderdate < 228)) q3 ON c_custkey = o_custkey) q4 JOIN lineitem ON o_orderkey = l_orderkey;

-- tpch_q6
SELECT SUM(l_extendedprice) AS sum_l_extendedprice FROM (SELECT * FROM lineitem WHERE (l_shipdate >= 1670 AND l_shipdate < 1728 AND l_discount >= 1 AND l_discount <= 11 AND l_quantity < 51)) q1;

-- tpch_q7
SELECT * FROM (SELECT * FROM (SELECT * FROM nation WHERE n_name IN ('v00000006', 'v00000007')) q1 JOIN supplier ON n_nationkey = s_nationkey) q2 JOIN (SELECT * FROM lineitem WHERE (l_shipdate >= 697 AND l_shipdate <= 1285)) q3 ON s_suppkey = l_suppkey;

-- tpch_q8
SELECT * FROM (SELECT * FROM part WHERE p_type LIKE '%_g1_%') q1 JOIN (SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM region WHERE r_name = 'v00000002') q2 JOIN nation ON r_regionkey = n_regionkey) q3 JOIN customer ON n_nationkey = c_nationkey) q4 JOIN (SELECT * FROM orders WHERE (o_orderdate >= 344 AND o_orderdate <= 524)) q5 ON c_custkey = o_custkey) q6 JOIN lineitem ON o_orderkey = l_orderkey) q7 ON p_partkey = l_partkey;

-- tpch_q9
SELECT * FROM (SELECT * FROM nation JOIN supplier ON n_nationkey = s_nationkey) q1 JOIN (SELECT * FROM (SELECT * FROM part WHERE p_name LIKE '%_g0_%') q2 JOIN lineitem ON p_partkey = l_partkey) q3 ON s_suppkey = l_suppkey;

-- tpch_q10
SELECT * FROM (SELECT * FROM customer JOIN (SELECT * FROM orders WHERE (o_orderdate >= 180 AND o_orderdate < 206)) q1 ON c_custkey = o_custkey) q2 JOIN (SELECT * FROM lineitem WHERE l_returnflag = 'v00000001') q3 ON o_orderkey = l_orderkey;

-- tpch_q11
SELECT * FROM (SELECT * FROM (SELECT * FROM nation WHERE n_name = 'v00000008') q1 JOIN supplier ON n_nationkey = s_nationkey) q2 JOIN (SELECT * FROM partsupp WHERE (ps_supplycost * ps_availqty) > 43250.) q3 ON s_suppkey = ps_suppkey;

-- tpch_q12
SELECT * FROM orders JOIN (SELECT * FROM lineitem WHERE (l_shipmode IN ('v00000001', 'v00000002') AND (l_commitdate - l_receiptdate) < 1000000000000000000. AND l_receiptdate >= 1 AND l_receiptdate < 1757)) q1 ON o_orderkey = l_orderkey;

-- tpch_q13
SELECT * FROM customer LEFT JOIN (SELECT * FROM orders WHERE o_comment NOT LIKE '%_g0_%') q1 ON c_custkey = o_custkey;

-- tpch_q14
SELECT * FROM part JOIN (SELECT * FROM lineitem WHERE (l_shipdate >= 1029 AND l_shipdate < 1059)) q1 ON p_partkey = l_partkey;

-- tpch_q15
SELECT * FROM supplier JOIN (SELECT * FROM lineitem WHERE (l_shipdate >= 1147 AND l_shipdate < 1244)) q1 ON s_suppkey = l_suppkey;

-- tpch_q16
SELECT DISTINCT ps_suppkey FROM (SELECT * FROM (SELECT * FROM part WHERE (p_brand <> 'v00000000' AND p_type NOT LIKE 'nomatch' AND p_size IN (1, 2, 3, 4, 5, 6, 7, 8))) q1 JOIN partsupp ON p_partkey = ps_partkey) q2;

-- tpch_q17
SELECT * FROM (SELECT * FROM part WHERE (p_brand = 'v00000000' AND p_container = 'v00000000')) q3 WHERE EXISTS (SELECT 1 FROM (SELECT * FROM lineitem WHERE l_quantity < 8) q4 WHERE q4.l_partkey = q3.p_partkey);

-- tpch_q18
SELECT * FROM customer JOIN (SELECT * FROM (SELECT * FROM orders) q2 WHERE EXISTS (SELECT 1 FROM (SELECT * FROM lineitem WHERE l_quantity > 47) q3 WHERE q3.l_orderkey = q2.o_orderkey)) q4 ON c_custkey = o_custkey;

-- tpch_q19
SELECT * FROM (SELECT * FROM part JOIN lineitem ON p_partkey = l_partkey) q1 WHERE ((p_brand = 'v00000001' OR l_quantity <= 16) AND l_shipmode IN ('v00000003', 'v00000004'));

-- tpch_q20
SELECT * FROM (SELECT * FROM (SELECT * FROM nation WHERE n_name = 'v00000009') q1 JOIN supplier ON n_nationkey = s_nationkey) q6 WHERE EXISTS (SELECT 1 FROM (SELECT * FROM (SELECT * FROM part WHERE p_name LIKE '%_g1_%') q3 JOIN (SELECT * FROM partsupp WHERE ps_availqty > 212) q4 ON p_partkey = ps_partkey) q7 WHERE q7.ps_suppkey = q6.s_suppkey);

-- tpch_q21
SELECT * FROM (SELECT * FROM (SELECT * FROM nation WHERE n_name = 'v00000010') q1 JOIN supplier ON n_nationkey = s_nationkey) q2 JOIN (SELECT * FROM (SELECT * FROM lineitem WHERE (l_receiptdate - l_commitdate) > -2.) q5 WHERE NOT EXISTS (SELECT 1 FROM (SELECT * FROM orders WHERE o_orderstatus = 'v00000001') q6 WHERE q6.o_orderkey = q5.l_orderkey)) q7 ON s_suppkey = l_suppkey;

-- tpch_q22
SELECT * FROM (SELECT * FROM customer WHERE (c_phonecc IN (1, 2, 3, 4, 5, 6, 7) AND c_acctbal > 0)) q2 WHERE NOT EXISTS (SELECT 1 FROM (SELECT * FROM orders) q3 WHERE q3.o_custkey = q2.c_custkey);

