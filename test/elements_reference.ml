(* The production-element lookup [Driver] used before it shared
   [Extract]'s typed counter, kept as a test oracle: every IN value is
   counted by a scan of a boxed copy of the whole column, and every LIKE
   match by a scan of another.  [test_core] checks that [Extract.run]'s
   [param_elements] hold the same list, in the same order. *)

module Pred = Mirage_sql.Pred
module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Db = Mirage_engine.Db

let owner_table schema col =
  List.find_opt
    (fun (tbl : Schema.table) ->
      List.exists (fun (c : Schema.column) -> c.Schema.cname = col) tbl.Schema.nonkeys)
    (Schema.tables schema)

let elements_fn schema ref_db prod_env lit =
  let count_eq table col v =
    let a = Db.column ref_db table col in
    let c = ref 0 in
    Array.iter (fun x -> if Value.compare x v = 0 then incr c) a;
    !c
  in
  match lit with
  | Pred.In { col; arg; _ } -> (
      let vs =
        match arg with
        | Pred.Const_list vs -> vs
        | Pred.Param p -> (
            match Pred.Env.find p prod_env with
            | Some (Pred.Env.Vlist vs) -> vs
            | Some (Pred.Env.Scalar v) -> [ v ]
            | None -> [])
        | Pred.Const v -> [ v ]
      in
      match owner_table schema col with
      | Some tbl -> List.map (fun v -> (v, count_eq tbl.Schema.tname col v)) vs
      | None -> [])
  | Pred.Like { col; arg; _ } -> (
      let pattern =
        match arg with
        | Pred.Const (Value.Str s) -> Some s
        | Pred.Param p -> (
            match Pred.Env.find p prod_env with
            | Some (Pred.Env.Scalar (Value.Str s)) -> Some s
            | _ -> None)
        | Pred.Const _ | Pred.Const_list _ -> None
      in
      match (pattern, owner_table schema col) with
      | Some pattern, Some tbl ->
          let a = Db.column ref_db tbl.Schema.tname col in
          let counts = Hashtbl.create 16 in
          Array.iter
            (fun v ->
              match v with
              | Value.Str s when Mirage_sql.Like.matches ~pattern s ->
                  Hashtbl.replace counts s
                    (1 + try Hashtbl.find counts s with Not_found -> 0)
              | _ -> ())
            a;
          Hashtbl.fold (fun v c acc -> (Value.Str v, c) :: acc) counts []
          |> List.sort compare
      | _ -> [])
  | Pred.Cmp _ | Pred.Arith_cmp _ -> []
