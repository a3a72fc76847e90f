let sum_int = List.fold_left ( + ) 0

let relative_error ~expected ~actual =
  if List.length expected <> List.length actual then
    invalid_arg "Stats.relative_error: length mismatch";
  let num =
    List.fold_left2 (fun acc e a -> acc + abs (e - a)) 0 expected actual
  in
  let den = sum_int expected in
  if den = 0 then (if num = 0 then 0.0 else 1.0)
  else float_of_int num /. float_of_int den

let percentile data p =
  if Array.length data = 0 then invalid_arg "Stats.percentile: empty data";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let idx = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor idx) and hi = int_of_float (ceil idx) in
  if lo = hi then sorted.(lo)
  else
    let w = idx -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
