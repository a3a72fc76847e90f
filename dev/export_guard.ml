(* Tier-1 guard on the library's exported surface: every [val] declared
   above the [(**/**)] marker of a lib/<dir>/<module>.mli must be named by
   some .ml file outside its own module and outside test/.  Exports kept
   only for tests go below the marker, with a line naming their test.

     export_guard ROOT

   ROOT holds lib/ and the caller directories (bin bench benchmark dev
   examples).  Prints each offender as "path:line: Module.name" and exits 1
   when there is one.  Names are matched as whole identifiers with comments
   and string literals stripped, so a name that another module also exports
   counts as called when either is. *)

type token = Ident of string * int  (** identifier and its line *) | Marker

(* OCaml identifiers of a source file, plus the [(**/**)] doc-stop markers;
   comments (nested) and string and character literals are skipped *)
let tokens s =
  let n = String.length s in
  let line = ref 1 in
  let toks = ref [] in
  let is_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_ident c = is_start c || (c >= '0' && c <= '9') || c = '\'' in
  let at i p = i + String.length p <= n && String.sub s i (String.length p) = p in
  let count_lines i j =
    for k = i to j - 1 do
      if s.[k] = '\n' then incr line
    done
  in
  (* index just past the string literal whose opening quote is at [i] *)
  let rec string_end i =
    if i >= n then n
    else match s.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  let rec comment_end depth i =
    if i >= n then n
    else if at i "(*" then comment_end (depth + 1) (i + 2)
    else if at i "*)" then if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else if s.[i] = '"' then comment_end depth (string_end (i + 1))
    else comment_end depth (i + 1)
  in
  let rec go i =
    if i < n then
      if at i "(**/**)" then (toks := Marker :: !toks; go (i + 7))
      else if at i "(*" then (
        let j = comment_end 0 i in
        count_lines i j;
        go j)
      else if s.[i] = '"' then (
        let j = string_end (i + 1) in
        count_lines i j;
        go j)
      else if at i "{|" then (
        let rec close j = if j >= n || at j "|}" then min n (j + 2) else close (j + 1) in
        let j = close (i + 2) in
        count_lines i j;
        go j)
      else if s.[i] = '\'' && i + 2 < n && s.[i + 2] = '\'' then go (i + 3)
      else if s.[i] = '\'' && i + 1 < n && s.[i + 1] = '\\' then (
        let rec close j = if j >= n || s.[j] = '\'' then j + 1 else close (j + 1) in
        go (close (i + 2)))
      else if is_start s.[i] then (
        let j = ref i in
        while !j < n && is_ident s.[!j] do incr j done;
        toks := Ident (String.sub s i (!j - i), !line) :: !toks;
        go !j)
      else (
        if s.[i] = '\n' then incr line;
        go (i + 1))
  in
  go 0;
  List.rev !toks

let read path = In_channel.with_open_bin path In_channel.input_all

let rec files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then (if f = "test" then [] else files p) else [ p ])

(* (name, line) of every [val] the interface exports outside its hidden
   parts.  As in odoc, a marker hides what follows it up to the next marker
   or the end of the enclosing signature, and a nested [sig ... end] inside
   a hidden part is hidden too. *)
let exported mli =
  (* [scopes]: one hidden flag per open signature, innermost first *)
  let rec go scopes acc toks =
    let hidden = List.mem true scopes in
    match (toks, scopes) with
    | Marker :: rest, h :: outer -> go (not h :: outer) acc rest
    | Ident (("sig" | "object"), _) :: rest, _ -> go (false :: scopes) acc rest
    | Ident ("end", _) :: rest, _ :: (_ :: _ as outer) -> go outer acc rest
    | Ident ("val", _) :: Ident (name, line) :: rest, _ ->
        go scopes (if hidden then acc else (name, line) :: acc) rest
    | _ :: rest, _ -> go scopes acc rest
    | [], _ -> List.rev acc
  in
  go [ false ] [] (tokens (read mli))

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let sources =
    List.concat_map
      (fun d -> files (Filename.concat root d))
      [ "bin"; "bench"; "benchmark"; "dev"; "examples"; "lib" ]
  in
  (* identifier -> the .ml files that name it *)
  let named_in = Hashtbl.create 4096 in
  List.iter
    (fun ml ->
      let seen = Hashtbl.create 512 in
      List.iter
        (function
          | Ident (id, _) when not (Hashtbl.mem seen id) ->
              Hashtbl.replace seen id ();
              Hashtbl.add named_in id ml
          | Ident _ | Marker -> ())
        (tokens (read ml)))
    (List.filter (fun f -> Filename.check_suffix f ".ml") sources);
  let lib = Filename.concat root "lib" in
  let interfaces =
    List.filter (fun f -> Filename.check_suffix f ".mli") (files lib)
  in
  let offenders =
    List.concat_map
      (fun mli ->
        let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
        let modname =
          String.capitalize_ascii (Filename.basename (Filename.chop_suffix mli ".mli"))
        in
        List.filter_map
          (fun (name, line) ->
            if List.exists (fun f -> f <> own) (Hashtbl.find_all named_in name) then None
            else Some (Printf.sprintf "%s:%d: %s.%s" mli line modname name))
          (exported mli))
      interfaces
  in
  if offenders <> [] then begin
    List.iter print_endline offenders;
    Printf.printf
      "%d exported value(s) have no caller outside their own module and test/: \
       delete them, drop them from the .mli, or move them below the (**/**) \
       marker with a line naming their test\n"
      (List.length offenders);
    exit 1
  end
