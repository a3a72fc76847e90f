type t = { name : string; plan : Plan.t; cards : int option array }

let unannotated ~name plan =
  { name; plan; cards = Array.make (Plan.size plan) None }

let annotate t i n =
  if i < 0 || i >= Array.length t.cards then
    invalid_arg (Printf.sprintf "Aqt.annotate: view %d out of range" i);
  let cards = Array.copy t.cards in
  cards.(i) <- Some n;
  { t with cards }

let card t i =
  if i < 0 || i >= Array.length t.cards then None else t.cards.(i)

let annotated_views t =
  let subs = Array.of_list (Plan.preorder t.plan) in
  Array.to_list t.cards
  |> List.mapi (fun i c -> (i, c))
  |> List.filter_map (fun (i, c) ->
         match c with Some n -> Some (i, subs.(i), n) | None -> None)
