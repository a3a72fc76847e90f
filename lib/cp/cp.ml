type var = int

type constr =
  | Linear of { terms : (int * var) list; eq : bool; rhs : int }
      (** [Σ a·x (= | ≤) rhs] *)
  | Ge of var * var  (** x ≥ y *)
  | Imply_pos of var * var  (** x > 0 ⇒ y > 0 *)

type t = {
  mutable nvars : int;
  mutable lo0 : int array;  (* initial bounds, grown on demand *)
  mutable hi0 : int array;
  mutable constrs : constr list;  (* reversed posting order *)
  mutable nodes : int;
  mutable props : int;  (* propagator executions during the last solve *)
  mutable objective : (int * var) list;  (* LP-guide objective, minimised *)
  mutable lp_constrs : constr list;  (* rows seen only by the LP relaxation *)
  mutable aux : bool array;  (* auxiliary vars the search never branches on *)
}

type outcome = Sat of (var -> int) | Unsat | Unknown

type stats = { st_nodes : int; st_restarts : int; st_props : int }

let create () =
  {
    nvars = 0;
    lo0 = Array.make 16 0;
    hi0 = Array.make 16 0;
    constrs = [];
    nodes = 0;
    props = 0;
    objective = [];
    lp_constrs = [];
    aux = Array.make 16 false;
  }

let grow t =
  let cap = Array.length t.lo0 in
  if t.nvars >= cap then begin
    let lo = Array.make (2 * cap) 0 and hi = Array.make (2 * cap) 0 in
    let aux = Array.make (2 * cap) false in
    Array.blit t.lo0 0 lo 0 cap;
    Array.blit t.hi0 0 hi 0 cap;
    Array.blit t.aux 0 aux 0 cap;
    t.lo0 <- lo;
    t.hi0 <- hi;
    t.aux <- aux
  end

let var ?(aux = false) t ~lo ~hi =
  if lo > hi then invalid_arg "Cp.var: lo > hi";
  grow t;
  let id = t.nvars in
  t.nvars <- id + 1;
  t.lo0.(id) <- lo;
  t.hi0.(id) <- hi;
  t.aux.(id) <- aux;
  id


let linear_eq t terms rhs = t.constrs <- Linear { terms; eq = true; rhs } :: t.constrs
let linear_le t terms rhs = t.constrs <- Linear { terms; eq = false; rhs } :: t.constrs
let ge t x y = t.constrs <- Ge (x, y) :: t.constrs
let imply_pos t x y = t.constrs <- Imply_pos (x, y) :: t.constrs
let set_objective t terms = t.objective <- terms

let lp_linear_le t terms rhs =
  t.lp_constrs <- Linear { terms; eq = false; rhs } :: t.lp_constrs

let solution_of_fun t f = Array.init t.nvars (fun v -> f v)

exception Fail

(* --- event-driven kernel -------------------------------------------------

   The constraint store is compiled once per solve into flat arrays; each
   variable carries a watch list of the constraints mentioning it.
   Propagation runs a FIFO work queue of constraint indices seeded by the
   variables whose bounds changed, instead of sweeping the whole constraint
   list to fixpoint at every node.  Bounds-consistency propagators are
   monotone, so the event-driven fixpoint equals the naive sweep's fixpoint
   (the differential test in test_cp.ml checks this on random systems).

   Domains live in one (lo, hi) pair of arrays; every tightening pushes a
   (var, old_lo, old_hi) entry on a trail, and backtracking undoes the trail
   to a saved mark — no per-node domain copies. *)

type cc =
  | C_lin of { coefs : int array; cvars : int array; eq : bool; rhs : int }
  | C_ge of int * int
  | C_imp of int * int

type kernel = {
  cs : cc array;
  watch : int array array;  (* var -> indices of constraints mentioning it *)
  lo : int array;
  hi : int array;
  queue : int array;  (* FIFO ring of pending constraint indices *)
  mutable qhead : int;
  mutable qtail : int;
  on_q : bool array;  (* dedupe: constraint already pending *)
  mutable tr_var : int array;  (* trail of (var, old_lo, old_hi) *)
  mutable tr_lo : int array;
  mutable tr_hi : int array;
  mutable tr_len : int;
}

let compile t =
  let n = t.nvars in
  let cs =
    Array.of_list
      (List.rev_map
         (fun c ->
           match c with
           | Linear { terms; eq; rhs } ->
               let terms = Array.of_list terms in
               C_lin
                 {
                   coefs = Array.map fst terms;
                   cvars = Array.map snd terms;
                   eq;
                   rhs;
                 }
           | Ge (x, y) -> C_ge (x, y)
           | Imply_pos (x, y) -> C_imp (x, y))
         t.constrs)
  in
  let nc = Array.length cs in
  let deg = Array.make n 0 in
  let mention f =
    Array.iter
      (fun c ->
        match c with
        | C_lin { cvars; _ } -> Array.iter f cvars
        | C_ge (x, y) | C_imp (x, y) ->
            f x;
            f y)
      cs
  in
  mention (fun v -> deg.(v) <- deg.(v) + 1);
  let watch = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun ci c ->
      let add v =
        watch.(v).(fill.(v)) <- ci;
        fill.(v) <- fill.(v) + 1
      in
      match c with
      | C_lin { cvars; _ } -> Array.iter add cvars
      | C_ge (x, y) | C_imp (x, y) ->
          add x;
          add y)
    cs;
  {
    cs;
    watch;
    lo = Array.sub t.lo0 0 n;
    hi = Array.sub t.hi0 0 n;
    queue = Array.make (nc + 1) 0;
    qhead = 0;
    qtail = 0;
    on_q = Array.make nc false;
    tr_var = Array.make 64 0;
    tr_lo = Array.make 64 0;
    tr_hi = Array.make 64 0;
    tr_len = 0;
  }

let enqueue k c =
  if not k.on_q.(c) then begin
    k.on_q.(c) <- true;
    k.queue.(k.qtail) <- c;
    k.qtail <- (k.qtail + 1) mod Array.length k.queue
  end

let enqueue_watchers k v = Array.iter (fun c -> enqueue k c) k.watch.(v)

let enqueue_all k =
  for c = 0 to Array.length k.cs - 1 do
    enqueue k c
  done

(* drop pending work after a failed subtree *)
let reset_queue k =
  while k.qhead <> k.qtail do
    k.on_q.(k.queue.(k.qhead)) <- false;
    k.qhead <- (k.qhead + 1) mod Array.length k.queue
  done

let trail_push k v =
  let cap = Array.length k.tr_var in
  if k.tr_len >= cap then begin
    let tv = Array.make (2 * cap) 0
    and tl = Array.make (2 * cap) 0
    and th = Array.make (2 * cap) 0 in
    Array.blit k.tr_var 0 tv 0 cap;
    Array.blit k.tr_lo 0 tl 0 cap;
    Array.blit k.tr_hi 0 th 0 cap;
    k.tr_var <- tv;
    k.tr_lo <- tl;
    k.tr_hi <- th
  end;
  k.tr_var.(k.tr_len) <- v;
  k.tr_lo.(k.tr_len) <- k.lo.(v);
  k.tr_hi.(k.tr_len) <- k.hi.(v);
  k.tr_len <- k.tr_len + 1

let undo_to k mark =
  while k.tr_len > mark do
    k.tr_len <- k.tr_len - 1;
    let v = k.tr_var.(k.tr_len) in
    k.lo.(v) <- k.tr_lo.(k.tr_len);
    k.hi.(v) <- k.tr_hi.(k.tr_len)
  done

let tighten_lo k v x =
  if x > k.lo.(v) then begin
    trail_push k v;
    k.lo.(v) <- x;
    if x > k.hi.(v) then raise Fail;
    enqueue_watchers k v
  end

let tighten_hi k v x =
  if x < k.hi.(v) then begin
    trail_push k v;
    k.hi.(v) <- x;
    if k.lo.(v) > x then raise Fail;
    enqueue_watchers k v
  end

(* floor/ceil division for possibly negative numerators *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)

let prop_linear k coefs cvars eq rhs =
  let lo = k.lo and hi = k.hi in
  let nt = Array.length coefs in
  (* bounds of Σ a·x *)
  let sum_lo = ref 0 and sum_hi = ref 0 in
  for q = 0 to nt - 1 do
    let a = coefs.(q) and v = cvars.(q) in
    if a >= 0 then begin
      sum_lo := !sum_lo + (a * lo.(v));
      sum_hi := !sum_hi + (a * hi.(v))
    end
    else begin
      sum_lo := !sum_lo + (a * hi.(v));
      sum_hi := !sum_hi + (a * lo.(v))
    end
  done;
  if !sum_lo > rhs then raise Fail;
  if eq && !sum_hi < rhs then raise Fail;
  (* For each term, bound it by rhs minus the others' extreme sums. *)
  for q = 0 to nt - 1 do
    let a = coefs.(q) and v = cvars.(q) in
    if a <> 0 then begin
      let term_lo = if a >= 0 then a * lo.(v) else a * hi.(v) in
      let term_hi = if a >= 0 then a * hi.(v) else a * lo.(v) in
      let others_lo = !sum_lo - term_lo in
      let others_hi = !sum_hi - term_hi in
      (* a·x ≤ rhs - others_lo; for a < 0 divide by |a| with the bound
         negated — fdiv/cdiv require a positive divisor *)
      let ub = rhs - others_lo in
      if a > 0 then tighten_hi k v (fdiv ub a)
      else tighten_lo k v (cdiv (-ub) (-a));
      (* for equalities: a·x ≥ rhs - others_hi *)
      if eq then begin
        let lb = rhs - others_hi in
        if a > 0 then tighten_lo k v (cdiv lb a)
        else tighten_hi k v (fdiv (-lb) (-a))
      end
    end
  done

let run_propagator k c =
  match k.cs.(c) with
  | C_lin { coefs; cvars; eq; rhs } -> prop_linear k coefs cvars eq rhs
  | C_ge (x, y) ->
      tighten_lo k x k.lo.(y);
      tighten_hi k y k.hi.(x)
  | C_imp (x, y) ->
      if k.hi.(y) = 0 then tighten_hi k x 0;
      if k.lo.(x) > 0 then tighten_lo k y 1

(* Drain the work queue to fixpoint.  The pending flag is cleared before the
   propagator runs, so a propagator that tightens one of its own variables
   re-enqueues itself — exactly the naive sweep's keep-going-until-stable
   behaviour, restricted to constraints that can still act. *)
let propagate_queue t k =
  while k.qhead <> k.qtail do
    let c = k.queue.(k.qhead) in
    k.qhead <- (k.qhead + 1) mod Array.length k.queue;
    k.on_q.(c) <- false;
    t.props <- t.props + 1;
    (try run_propagator k c
     with Fail ->
       reset_queue k;
       raise Fail)
  done

(* Propagation-to-fixpoint on the initial domains, no search: exposed so the
   differential test can compare the event-driven fixpoint against a naive
   full-sweep reference.  Returns the fixpoint bounds, or [None] when
   propagation alone proves the system infeasible. *)
let root_fixpoint t =
  let k = compile t in
  enqueue_all k;
  match propagate_queue t k with
  | () -> Some (Array.copy k.lo, Array.copy k.hi)
  | exception Fail -> None

(* LP relaxation of the model, used to guide branching the way CP-SAT's
   internal LP does.  Equalities map directly; ≤ rows get a slack; Ge gets a
   slack; Imply_pos is ignored (it only matters at integrality).  Variable
   bounds become rows with slacks so the simplex respects them. *)
let lp_guess t lo hi =
  let n = t.nvars in
  let rows = ref [] in
  let n_slack = ref 0 in
  let add_row terms slack rhs = rows := (terms, slack, rhs) :: !rows in
  List.iter
    (fun c ->
      match c with
      | Linear { terms; eq = true; rhs } -> add_row terms None rhs
      | Linear { terms; eq = false; rhs } ->
          let s = !n_slack in
          incr n_slack;
          add_row terms (Some (s, 1.0)) rhs
      | Ge (x, y) ->
          (* x - y - s = 0 *)
          let s = !n_slack in
          incr n_slack;
          add_row [ (1, x); (-1, y) ] (Some (s, -1.0)) 0
      | Imply_pos _ -> ())
    (t.constrs @ t.lp_constrs);
  (* bounds x_v + s = hi_v and x_v - s' = lo_v (lo_v > 0 only) *)
  for v = 0 to n - 1 do
    let s = !n_slack in
    incr n_slack;
    add_row [ (1, v) ] (Some (s, 1.0)) hi.(v);
    if lo.(v) > 0 then begin
      let s' = !n_slack in
      incr n_slack;
      add_row [ (1, v) ] (Some (s', -1.0)) lo.(v)
    end
  done;
  let total = n + !n_slack in
  (* sparse rows: a variable's repeated terms are summed in posting order
     (the stable sort keeps it), as the dense row's [+.] from 0.0 did *)
  let sparse_row (terms, slack, _) =
    let sums =
      List.fold_left
        (fun acc (coef, v) ->
          match acc with
          | (v', sum) :: rest when v' = v -> (v, sum +. float_of_int coef) :: rest
          | _ -> (v, float_of_int coef) :: acc)
        []
        (List.stable_sort (fun (_, v) (_, v') -> compare v v') terms)
    in
    Array.of_list (match slack with Some (s, coef) -> (n + s, coef) :: sums | None -> sums)
  in
  let rows = List.rev !rows in
  let a = Array.of_list (List.map sparse_row rows) in
  let b = Array.of_list (List.map (fun (_, _, rhs) -> float_of_int rhs) rows) in
  let c = Array.make total 0.0 in
  List.iter (fun (coef, v) -> c.(v) <- c.(v) +. float_of_int coef) t.objective;
  let round x = Array.init n (fun v -> int_of_float (Float.round x.(v))) in
  match Mirage_lp.Lp.solve ~a ~b ~c () with
  | Mirage_lp.Lp.Optimal x -> Some (round x)
  | Mirage_lp.Lp.Infeasible -> None
  | Mirage_lp.Lp.Unbounded ->
      (* the objective can stall the phase-II simplex on degenerate vertices;
         a pure feasibility solve is more robust.  Phase I ignores [c], so
         after [Infeasible] the same retry would only repeat it *)
      Option.map round (Mirage_lp.Lp.feasible_point ~n:total ~a ~b ())

(* Structure-aware repair of a candidate point.

   The key-generator models are transportation-like: a family of disjoint
   all-ones "partition" equalities (the covers) plus overlapping group sums.
   We (a) fix the partition equalities exactly by shifting within each group,
   then (b) repair the remaining constraints with {e swap moves} — increase
   one variable and decrease a partner from the same partition group that the
   violated constraint does not mention — which never break the covers.
   Ungrouped variables fall back to plain bounded shifts. *)
let repair_guess constrs lo hi g =
  let n = Array.length g in
  for v = 0 to n - 1 do
    if g.(v) < lo.(v) then g.(v) <- lo.(v);
    if g.(v) > hi.(v) then g.(v) <- hi.(v)
  done;
  let sum terms = List.fold_left (fun acc (a, v) -> acc + (a * g.(v))) 0 terms in
  (* partition groups: greedily take all-ones equalities over fresh vars, in
     posting order (constrs is a prepend list, so walk it reversed) *)
  let group_of = Array.make n (-1) in
  let groups = ref [] in
  List.iter
    (fun c ->
      match c with
      | Linear { terms; eq = true; rhs } when
          terms <> []
          && List.for_all (fun (a, v) -> a = 1 && group_of.(v) = -1) terms ->
          let gid = List.length !groups in
          List.iter (fun (_, v) -> group_of.(v) <- gid) terms;
          groups := (gid, List.map snd terms, rhs) :: !groups
      | Linear _ | Ge _ | Imply_pos _ -> ())
    (List.rev constrs);
  let group_members = Hashtbl.create 16 in
  List.iter (fun (gid, vs, _) -> Hashtbl.replace group_members gid vs) !groups;
  (* fix each partition equality exactly *)
  List.iter
    (fun (_, vs, rhs) ->
      let s = List.fold_left (fun acc v -> acc + g.(v)) 0 vs in
      let delta = ref (rhs - s) in
      List.iter
        (fun v ->
          if !delta <> 0 then begin
            let dv =
              if !delta > 0 then min !delta (hi.(v) - g.(v))
              else max !delta (lo.(v) - g.(v))
            in
            g.(v) <- g.(v) + dv;
            delta := !delta - dv
          end)
        vs)
    !groups;
  (* swap move: change v by ±1·amount, compensate within v's group on a
     partner outside [exclude] *)
  let in_set set v = Hashtbl.mem set v in
  let swap_toward exclude v want =
    (* want > 0: raise g.(v); want < 0: lower it; returns amount achieved *)
    if group_of.(v) = -1 then begin
      let dv =
        if want > 0 then min want (hi.(v) - g.(v))
        else max want (lo.(v) - g.(v))
      in
      g.(v) <- g.(v) + dv;
      dv
    end
    else begin
      let partners = Hashtbl.find group_members group_of.(v) in
      let achieved = ref 0 in
      List.iter
        (fun w ->
          if w <> v && (not (in_set exclude w)) && !achieved <> want then begin
            let remaining = want - !achieved in
            let dv =
              if remaining > 0 then
                min remaining (min (hi.(v) - g.(v)) (g.(w) - lo.(w)))
              else max remaining (max (lo.(v) - g.(v)) (g.(w) - hi.(w)))
            in
            if dv <> 0 then begin
              g.(v) <- g.(v) + dv;
              g.(w) <- g.(w) - dv;
              achieved := !achieved + dv
            end
          end)
        partners;
      !achieved
    end
  in
  let repair_linear terms eq rhs =
    let s = sum terms in
    let violated = if eq then s <> rhs else s > rhs in
    if violated then begin
      let exclude = Hashtbl.create (List.length terms) in
      List.iter (fun (_, v) -> Hashtbl.replace exclude v ()) terms;
      let delta = ref (rhs - s) in
      (* grouped variables first: their swap moves are side-effect-free for
         the covers, whereas plain shifts on free variables (e.g. the y
         aggregates) can oscillate against their defining rows *)
      let grouped, free =
        List.partition (fun (_, v) -> group_of.(v) <> -1) terms
      in
      List.iter
        (fun (a, v) ->
          if !delta <> 0 && a <> 0 then begin
            let want = !delta / a in
            if want <> 0 then begin
              let got = swap_toward exclude v want in
              delta := !delta - (a * got)
            end
          end)
        (grouped @ free);
      !delta = 0 || ((not eq) && !delta > 0)
    end
    else true
  in
  let ok = ref false in
  let passes = ref 0 in
  while (not !ok) && !passes < 100 do
    incr passes;
    ok := true;
    List.iter
      (fun c ->
        match c with
        | Linear { terms; eq; rhs } ->
            (* partition equalities stay exact under swap moves; repairing
               them again is harmless *)
            if not (repair_linear terms eq rhs) then ok := false
        | Ge (x, y) ->
            if g.(x) < g.(y) then begin
              let exclude = Hashtbl.create 2 in
              Hashtbl.replace exclude x ();
              Hashtbl.replace exclude y ();
              ignore (swap_toward exclude y (g.(x) - g.(y)));
              if g.(x) < g.(y) then
                ignore (swap_toward exclude x (g.(y) - g.(x)));
              if g.(x) < g.(y) then ok := false
            end
        | Imply_pos (x, y) ->
            if g.(x) > 0 && g.(y) = 0 then begin
              if hi.(y) >= 1 && group_of.(y) = -1 then g.(y) <- 1
              else begin
                let exclude = Hashtbl.create 2 in
                Hashtbl.replace exclude x ();
                if hi.(y) >= 1 then ignore (swap_toward exclude y 1);
                if g.(y) = 0 then begin
                  let exclude2 = Hashtbl.create 2 in
                  Hashtbl.replace exclude2 y ();
                  ignore (swap_toward exclude2 x (-g.(x)))
                end
              end;
              if g.(x) > 0 && g.(y) = 0 then ok := false
            end)
      constrs;
    (* verify everything still holds *)
    if !ok then
      List.iter
        (fun c ->
          match c with
          | Linear { terms; eq; rhs } ->
              let s = sum terms in
              if (eq && s <> rhs) || ((not eq) && s > rhs) then ok := false
          | Ge (x, y) -> if g.(x) < g.(y) then ok := false
          | Imply_pos (x, y) -> if g.(x) > 0 && g.(y) = 0 then ok := false)
        constrs
  done;
  !ok

let solve ?(max_nodes = 1_000_000) ?(lp_guide = true) ?(interrupt = fun () -> ()) t =
  (* cooperative cancellation point before any work: a tripped budget stops
     a solve that has not even started *)
  interrupt ();
  t.nodes <- 0;
  t.props <- 0;
  let n = t.nvars in
  let lo0 = Array.sub t.lo0 0 n and hi0 = Array.sub t.hi0 0 n in
  let constrs = t.constrs in
  let guess = if n = 0 || not lp_guide then None else lp_guess t lo0 hi0 in
  let stats restarts =
    { st_nodes = t.nodes; st_restarts = restarts; st_props = t.props }
  in
  (* fast path: a repaired LP point satisfying everything is a solution *)
  match
    match guess with
    | Some g when repair_guess constrs lo0 hi0 g -> Some g
    | _ -> None
  with
  | Some g ->
      t.nodes <- 1;
      (Sat (fun v -> g.(v)), stats 0)
  | None ->
  let guess =
    (* even a partial repair improves the search's value ordering *)
    match guess with
    | Some g ->
        ignore (repair_guess constrs lo0 hi0 g);
        Some g
    | None -> None
  in
  let exception Found of int array in
  let exception Out_of_nodes in
  let k = compile t in
  (* One bounded DFS attempt on the shared kernel state.  [salt]
     deterministically perturbs the variable tie-breaking scan origin and the
     order of the two value half-ranges, so each restart explores a genuinely
     different tree; [deadline] is a bound on the cumulative node counter, so
     the whole ladder respects [max_nodes]. *)
  let attempt ~salt ~deadline =
    let scan_start = if n = 0 then 0 else salt * 7919 mod n in
    let flip = salt land 1 = 1 in
    let lo = k.lo and hi = k.hi in
    let rec search () =
      t.nodes <- t.nodes + 1;
      if t.nodes > deadline then raise Out_of_nodes;
      (* cancellation point every 64 nodes: whatever [interrupt] raises
         aborts the whole ladder, trail state and all — the model is
         discarded by the caller *)
      if t.nodes land 63 = 0 then interrupt ();
      propagate_queue t k;
      (* choose the unfixed non-auxiliary variable with the widest domain;
         ties break by the salt-rotated scan order *)
      let best = ref (-1) in
      let best_width = ref 0 in
      for vi = 0 to n - 1 do
        let v = (vi + scan_start) mod n in
        let w = hi.(v) - lo.(v) in
        if w > !best_width && not t.aux.(v) then begin
          best := v;
          best_width := w
        end
      done;
      if !best = -1 then raise (Found (Array.copy lo))
      else begin
        let v = !best in
        (* value ordering: try the LP relaxation's (rounded, clamped) value
           first, then the halves below and above it *)
        let g =
          match guess with
          | Some arr -> min hi.(v) (max lo.(v) arr.(v))
          | None -> lo.(v)
        in
        let try_range l h =
          if l <= h then begin
            let mark = k.tr_len in
            try
              tighten_lo k v l;
              tighten_hi k v h;
              search ()
            with Fail ->
              reset_queue k;
              undo_to k mark
          end
        in
        (* the last branch propagates failure upward instead of swallowing;
           the catching ancestor unwinds the trail past this frame *)
        let last_range l h =
          if l <= h then begin
            tighten_lo k v l;
            tighten_hi k v h;
            search ()
          end
          else raise Fail
        in
        try_range g g;
        if flip then begin
          try_range (g + 1) hi.(v);
          last_range lo.(v) (g - 1)
        end
        else begin
          try_range lo.(v) (g - 1);
          last_range (g + 1) hi.(v)
        end
      end
    in
    (* fresh attempt: restore the root domains, clear trail and queue, and
       seed the queue with every constraint (the root full propagation) *)
    undo_to k 0;
    reset_queue k;
    Array.blit lo0 0 k.lo 0 n;
    Array.blit hi0 0 k.hi 0 n;
    enqueue_all k;
    search ()
  in
  (* Randomized-restart ladder with escalating budgets: an [Out_of_nodes]
     attempt restarts with twice the budget and a fresh perturbation.  An
     Unsat proof is definitive at any budget (Fail is only raised when a
     subtree is exhausted, never on the node limit), so only node-limited
     attempts escalate. *)
  let rec ladder ~restart ~budget =
    let deadline = min max_nodes (t.nodes + budget) in
    match attempt ~salt:restart ~deadline with
    | () -> (Unsat, stats restart) (* root propagation failed: unreachable *)
    | exception Fail -> (Unsat, stats restart)
    | exception Found a -> (Sat (fun v -> a.(v)), stats restart)
    | exception Out_of_nodes ->
        if t.nodes >= max_nodes then (Unknown, stats restart)
        else ladder ~restart:(restart + 1) ~budget:(2 * budget)
  in
  ladder ~restart:0 ~budget:(max 1_000 (max_nodes / 8))

