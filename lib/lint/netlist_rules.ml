(* Netlist lint rules.

   NET001  Error    combinational cycle (proved by DFS, [order] not trusted)
   NET002  Error    structural defect (wraps Netlist.Check: dangling fanins,
                    bad arities, unconnected DFFs, duplicate names/POs)
   NET003  Warning  dead logic: fanout-free node that drives no PO
   NET004  Warning  unobservable logic: no structural path to any PO
   NET005  Warning  constant-provable node (ternary propagation)
   NET006  Info     statically untestable fault: an Analysis.Untest verdict
                    with structural or ternary evidence
   NET007  Info     hard-to-test fanout-free region (SCOAP-scored)
   NET008  Warning  proved sequentially redundant fault: an Analysis.Untest
                    verdict with symbolic (BDD reachability) evidence

   The value analyses (NET003..NET008) trust [order] and therefore only
   run once NET001/NET002 pass — Report enforces that staging. *)

let rule_cycle = "NET001"
let rule_structure = "NET002"
let rule_dead = "NET003"
let rule_unobservable = "NET004"
let rule_constant = "NET005"
let rule_untestable = "NET006"
let rule_hard_ffr = "NET007"
let rule_seq_redundant = "NET008"

let node_loc c id =
  Diag.Node { id; name = (Netlist.Node.node c id).Netlist.Node.name }

let is_gate c id =
  match (Netlist.Node.node c id).Netlist.Node.kind with
  | Netlist.Node.Gate _ -> true
  | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> false

let po_drivers c =
  let po = Array.make (Netlist.Node.num_nodes c) false in
  Array.iter (fun (_, id) -> po.(id) <- true) c.Netlist.Node.pos;
  po

(* --- NET001: combinational cycles ------------------------------------------ *)

(* DFS over gate-to-gate fanin edges (PIs and DFF outputs are sources and
   cut the traversal).  One diagnostic per back edge, carrying the cycle. *)
let combinational_cycles c =
  let n = Netlist.Node.num_nodes c in
  let color = Array.make n 0 in
  (* 0 white, 1 on stack, 2 done *)
  let diags = ref [] in
  let stack = ref [] in
  let report_cycle head =
    let rec take acc = function
      | [] -> acc
      | id :: rest -> if id = head then id :: acc else take (id :: acc) rest
    in
    let cycle = take [] !stack in
    let names =
      List.map (fun id -> (Netlist.Node.node c id).Netlist.Node.name) cycle
    in
    let msg =
      Printf.sprintf "combinational cycle: %s -> %s"
        (String.concat " -> " names) (List.hd names)
    in
    diags :=
      Diag.make ~rule:rule_cycle ~severity:Diag.Error ~loc:(node_loc c head) msg
      :: !diags
  in
  let rec visit id =
    if color.(id) = 0 then begin
      match (Netlist.Node.node c id).Netlist.Node.kind with
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> color.(id) <- 2
      | Netlist.Node.Gate _ ->
        color.(id) <- 1;
        stack := id :: !stack;
        Array.iter
          (fun f ->
            if f >= 0 && f < n && is_gate c f then
              if color.(f) = 1 then report_cycle f else visit f)
          (Netlist.Node.node c id).Netlist.Node.fanins;
        stack := List.tl !stack;
        color.(id) <- 2
    end
  in
  for id = 0 to n - 1 do
    visit id
  done;
  List.rev !diags

(* --- NET002: structural defects --------------------------------------------- *)

let structure c =
  List.map
    (fun p ->
      Diag.make ~rule:rule_structure ~severity:Diag.Error ~loc:Diag.Circuit
        (Netlist.Check.problem_to_string p))
    (Netlist.Check.problems c)

(* --- NET003: dead (fanout-free, non-PO) logic -------------------------------- *)

let dead_logic c =
  let po = po_drivers c in
  let out = ref [] in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      let id = nd.Netlist.Node.id in
      if Array.length c.Netlist.Node.fanouts.(id) = 0 && not po.(id) then begin
        let msg =
          match nd.Netlist.Node.kind with
          | Netlist.Node.Pi _ -> "unused primary input"
          | Netlist.Node.Dff _ -> "dead register: no reader and no PO"
          | Netlist.Node.Gate _ -> "dead gate: no reader and no PO"
        in
        out :=
          Diag.make ~rule:rule_dead ~severity:Diag.Warning ~loc:(node_loc c id)
            msg
          :: !out
      end)
    c.Netlist.Node.nodes;
  List.rev !out

(* --- NET004: unobservable logic ------------------------------------------------ *)

let unobservable c ~structural_obs =
  let po = po_drivers c in
  let out = ref [] in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      let id = nd.Netlist.Node.id in
      (* fanout-free nodes are already NET003 *)
      if
        (not structural_obs.(id))
        && Array.length c.Netlist.Node.fanouts.(id) > 0
        && not po.(id)
      then
        out :=
          Diag.make ~rule:rule_unobservable ~severity:Diag.Warning
            ~loc:(node_loc c id)
            "unobservable logic: no structural path to any primary output"
          :: !out)
    c.Netlist.Node.nodes;
  List.rev !out

(* --- NET005: constant-provable nodes ----------------------------------------- *)

let constants c values =
  let out = ref [] in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      let id = nd.Netlist.Node.id in
      let self_loop_const =
        (* intentional constant generator: a self-looped DFF *)
        match nd.Netlist.Node.kind with
        | Netlist.Node.Dff _ -> nd.Netlist.Node.fanins.(0) = id
        | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> false
      in
      match nd.Netlist.Node.kind, Sim.Value3.to_bool_opt values.(id) with
      | (Netlist.Node.Gate _ | Netlist.Node.Dff _), Some v
        when not self_loop_const ->
        out :=
          Diag.make ~rule:rule_constant ~severity:Diag.Warning
            ~loc:(node_loc c id)
            (Printf.sprintf
               "provably constant %d in every reachable cycle (stuck-at-%d \
                is unexcitable)"
               (Bool.to_int v) (Bool.to_int v))
          :: !out
      | _ -> ())
    c.Netlist.Node.nodes;
  List.rev !out

(* --- NET006/NET008: Analysis.Untest verdicts ------------------------------------- *)

(* One diagnostic per proved collapsed fault: a structural or ternary
   proof is NET006 (Info), a symbolic one NET008 (Warning).  The proof
   payload names the cascade's cause, so --json consumers parse it
   instead of the prose message; NET008's also names the BDD budget and
   the reached-set size of the exploration behind it. *)
let untestable c (t : Analysis.Untest.t) =
  let s = t.Analysis.Untest.summary in
  let diags = ref [] in
  Array.iteri
    (fun i (f : Fsim.Fault.t) ->
      match t.Analysis.Untest.verdicts.(i) with
      | Analysis.Untest.Unknown -> ()
      | Analysis.Untest.Untestable { cause; evidence } ->
        let symbolic = evidence = Analysis.Untest.Symbolic in
        let cause = Analysis.Untest.cause_to_string cause in
        let budget =
          if symbolic then
            [ ("max_nodes", Obs.Json.Int Analysis.Symreach.default_max_nodes);
              ("bdd_nodes", Obs.Json.Int s.Analysis.Untest.bdd_nodes) ]
          else []
        in
        let proof =
          Obs.Json.Obj
            ([ ("cause", Obs.Json.String cause);
               ("source", Obs.Json.String (if symbolic then "symbolic" else "static")) ]
            @ budget)
        in
        let rule, severity, what =
          if symbolic then
            (rule_seq_redundant, Diag.Warning, "proved sequentially redundant")
          else (rule_untestable, Diag.Info, "statically untestable")
        in
        let site = Fsim.Fault.site_node f.Fsim.Fault.site in
        diags :=
          Diag.make ~proof ~rule ~severity ~loc:(node_loc c site)
            (Printf.sprintf "%s fault %s: %s (%s proof)" what
               (Fsim.Fault.to_string c f) cause
               (Analysis.Untest.evidence_to_string evidence))
          :: !diags)
    t.Analysis.Untest.faults;
  List.rev !diags

(* --- NET007: hard-to-test fanout-free regions -------------------------------- *)

let hard_ffrs ?(top = 3) c scoap =
  let ranked = Ffr.ranked c scoap in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | (score, (r : Ffr.region)) :: rest ->
      if score <= 0 then []
      else
        Diag.make ~rule:rule_hard_ffr ~severity:Diag.Info
          ~loc:(node_loc c r.Ffr.root)
          (Printf.sprintf
             "hard-to-test fanout-free region: %d gate(s), hardest SCOAP \
              detection cost %d"
             (List.length r.Ffr.members) score)
        :: take (k - 1) rest
  in
  take top ranked
