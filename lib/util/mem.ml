let word_bytes = Sys.word_size / 8

let live_bytes () =
  Gc.minor ();
  let st = Gc.quick_stat () in
  st.Gc.heap_words * word_bytes
