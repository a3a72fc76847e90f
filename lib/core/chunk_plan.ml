let ceil_div a b = if a = 0 then 0 else ((a - 1) / b) + 1

let ranges ~rows ~chunk_rows =
  if chunk_rows < 1 then invalid_arg "Chunk_plan: chunk_rows must be >= 1";
  let rows = max rows 0 in
  Array.init (ceil_div rows chunk_rows) (fun i ->
      let lo = i * chunk_rows in
      (lo, min chunk_rows (rows - lo)))
