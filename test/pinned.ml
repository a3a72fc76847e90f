(* A test that pins an artefact writes it with [write] at its golden's path
   relative to test/goldens, under the working directory: test/dune runs
   the test inside its own output directory and diffs each such file
   against the golden. *)

let write path contents =
  Mirage_util.Fsutil.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)
