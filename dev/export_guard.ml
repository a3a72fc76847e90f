(* Tier-1 guard on the library's exported surface: every [val] declared
   above the [(**/**)] marker of a lib/<dir>/<module>.mli must be named by
   some .ml file outside its own module and outside test/.  Exports kept
   only for tests go below the marker, with a line naming their test.

     export_guard ROOT

   ROOT holds lib/ and the caller directories (bin bench benchmark dev
   examples).  Prints each offender as "path:line: Module.name" and exits 1
   when there is one.

   A use is a qualified name: [Module.name], [Module.Sub.name] for a value
   of a submodule's signature, or a bare [name] inside [open Module] (to
   the end of the file) or a local open [Module.( ... )] / [Module.{ ... }].
   A path's head goes through the file's module aliases ([module Pred =
   Mirage_sql.Pred], also [let module]), and the library wrappers
   ([Mirage_sql.]) are dropped, so [Mirage_sql.Pred.to_string],
   [Pred.to_string] under that alias and [to_string] inside [Pred.( ... )]
   all name [Pred.to_string], and a name that another module also exports
   does not count.  Comments and string literals are stripped. *)

type token =
  | Path of string list * int  (** dotted identifier path and its line *)
  | Open_local  (** the [.(] or [.{] of a local open [M.( ... )] *)
  | Open_group  (** [(], [\[] or [{] *)
  | Close_group
  | Marker  (** the [(**/**)] doc-stop marker *)

(* Uses the scan cannot see through, as "Module.name", each with why.
   None today: no caller reaches a library value through an [include], a
   functor or a first-class module. *)
let allowed = []

(* identifiers and dotted paths of a source file, bracket tokens and the
   [(**/**)] markers; comments (nested) and string and character literals
   are skipped.  [M.(] yields [Path [M]] then [Open_local]. *)
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
  (* the components of the dotted path starting at [i], and its end *)
  let rec path i acc =
    let j = ref i in
    while !j < n && is_ident s.[!j] do incr j done;
    let acc = String.sub s i (!j - i) :: acc in
    if !j + 1 < n && s.[!j] = '.' && is_start s.[!j + 1] then path (!j + 1) acc
    else (List.rev acc, !j)
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
        let p, j = path i [] in
        toks := Path (p, !line) :: !toks;
        if j + 1 < n && s.[j] = '.' && (s.[j + 1] = '(' || s.[j + 1] = '{') then (
          toks := Open_local :: !toks;
          go (j + 2))
        else go j)
      else (
        (match s.[i] with
        | '(' | '[' | '{' -> toks := Open_group :: !toks
        | ')' | ']' | '}' -> toks := Close_group :: !toks
        | '\n' -> incr line
        | _ -> ());
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

let is_module c = c <> "" && c.[0] >= 'A' && c.[0] <= 'Z'

(* ("Module.name" or "Module.Sub.name", line) of every [val] the interface
   exports outside its hidden parts.  As in odoc, a marker hides what
   follows it up to the next marker or the end of the enclosing signature,
   and a nested [sig ... end] inside a hidden part is hidden too. *)
let exported ~modname mli =
  (* [scopes]: (hidden, module path) per open signature, innermost first;
     [pending]: the name of a [module X :] whose [sig] comes next *)
  let rec go scopes pending acc toks =
    let hidden = List.exists fst scopes in
    let prefix = snd (List.hd scopes) in
    match (toks, scopes) with
    | Marker :: rest, (h, p) :: outer -> go ((not h, p) :: outer) None acc rest
    | Path ([ "module" ], _) :: Path ([ m ], _) :: rest, _ when is_module m ->
        go scopes (Some m) acc rest
    | Path ([ ("sig" | "object") ], _) :: rest, _ ->
        let p = match pending with Some m -> prefix @ [ m ] | None -> prefix in
        go ((false, p) :: scopes) None acc rest
    | Path ([ "end" ], _) :: rest, _ :: (_ :: _ as outer) -> go outer None acc rest
    | Path ([ "val" ], _) :: Path ([ name ], line) :: rest, _ ->
        let acc =
          if hidden then acc else (String.concat "." (prefix @ [ name ]), line) :: acc
        in
        go scopes None acc rest
    | _ :: rest, _ -> go scopes pending acc rest
    | [], _ -> List.rev acc
  in
  go [ (false, [ modname ]) ] None [] (tokens (read mli))

(* every "Module.name" a .ml file names, through its aliases and opens *)
let uses ml =
  let aliases = Hashtbl.create 16 in
  (* a module path as the library names it: library wrappers dropped, the
     head expanded once (an alias is stored resolved) *)
  let rec resolve = function
    | m :: rest when String.length m > 7 && String.sub m 0 7 = "Mirage_" -> resolve rest
    | m :: rest -> Option.value ~default:[ m ] (Hashtbl.find_opt aliases m) @ rest
    | [] -> []
  in
  let found = Hashtbl.create 256 in
  let add mods name = Hashtbl.replace found (String.concat "." (mods @ [ name ])) () in
  (* [opens]: the module paths open here, with the group depth each local
     open closes at ([-1]: to the end of the file) *)
  let rec go opens depth toks =
    match toks with
    | Path ([ ("module" | "open") ], _) :: Path ([ "type" ], _) :: rest ->
        go opens depth rest
    | Path ([ "module" ], _) :: Path ([ m ], _) :: Path ((c :: _ as p), _) :: rest
      when is_module m && is_module c ->
        Hashtbl.replace aliases m (resolve p);
        go opens depth rest
    | Path ([ "open" ], _) :: Path ((c :: _ as p), _) :: rest when is_module c ->
        go ((resolve p, -1) :: opens) depth rest
    | Path (p, _) :: Open_local :: rest ->
        go ((resolve p, depth + 1) :: opens) (depth + 1) rest
    | Path (p, _) :: rest ->
        (* the value path ends at its first lowercase component; what
           follows it is record fields *)
        let rec split mods = function
          | c :: more when is_module c -> split (mods @ [ c ]) more
          | v :: _ -> Some (mods, v)
          | [] -> None
        in
        (match split [] p with
        | Some ((_ :: _ as mods), v) ->
            let mods = resolve mods in
            add mods v;
            List.iter (fun (o, _) -> add (o @ mods) v) opens
        | Some ([], v) -> List.iter (fun (o, _) -> add o v) opens
        | None -> ());
        go opens depth rest
    | (Open_local | Open_group) :: rest -> go opens (depth + 1) rest
    | Close_group :: rest ->
        go (List.filter (fun (_, d) -> d <> depth) opens) (depth - 1) rest
    | Marker :: rest -> go opens depth rest
    | [] -> ()
  in
  go [] 0 (tokens (read ml));
  found

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let sources =
    List.concat_map
      (fun d -> files (Filename.concat root d))
      [ "bin"; "bench"; "benchmark"; "dev"; "examples"; "lib" ]
  in
  (* "Module.name" -> the .ml files that name it *)
  let named_in = Hashtbl.create 4096 in
  List.iter
    (fun ml -> Hashtbl.iter (fun use () -> Hashtbl.add named_in use ml) (uses ml))
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
            if
              List.mem name allowed
              || List.exists (fun f -> f <> own) (Hashtbl.find_all named_in name)
            then None
            else Some (Printf.sprintf "%s:%d: %s" mli line name))
          (exported ~modname mli))
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
