(* Netlist lint rules.

   NET001  Error    combinational cycle (proved by DFS, [order] not trusted)
   NET002  Error    structural defect (wraps Netlist.Check: dangling fanins,
                    bad arities, unconnected DFFs, duplicate names/POs)
   NET003  Warning  dead logic: fanout-free node that drives no PO
   NET004  Warning  unobservable logic: no structural path to any PO
   NET005  Warning  constant-provable node (ternary propagation)
   NET006  Info     statically untestable fault (implication-proved: either
                    unexcitable because its source is constant at the stuck
                    value, or unpropagatable because every path to a PO is
                    blocked by a constant side input)
   NET007  Info     hard-to-test fanout-free region (SCOAP-scored)
   NET008  Info     sequentially redundant fault candidate: activation needs
                    a line value no reachable state can produce (proved by a
                    caller-supplied symbolic-reachability oracle)

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

(* --- observability ----------------------------------------------------------- *)

(* Structural: can the node's output reach some PO through any path
   (registers are transparent)?  Pure connectivity — invariant under
   retiming, which only moves registers along wires. *)
let structurally_observable c =
  let n = Netlist.Node.num_nodes c in
  let obs = Array.make n false in
  let queue = Queue.create () in
  Array.iter
    (fun (_, id) ->
      if not obs.(id) then begin
        obs.(id) <- true;
        Queue.add id queue
      end)
    c.Netlist.Node.pos;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    Array.iter
      (fun f ->
        if not obs.(f) then begin
          obs.(f) <- true;
          Queue.add f queue
        end)
      (Netlist.Node.node c id).Netlist.Node.fanins
  done;
  obs

(* Does a fault effect arriving on pin [pin] of gate [fn] propagate to the
   gate output, given the proved-constant side inputs?  Blocked exactly
   when some sibling is constant at the gate's controlling value. *)
let pin_propagates c values (nd : Netlist.Node.node) fn pin =
  let blocked_by v =
    match fn, v with
    | (Netlist.Node.And | Netlist.Node.Nand), Sim.Value3.Zero -> true
    | (Netlist.Node.Or | Netlist.Node.Nor), Sim.Value3.One -> true
    | _ -> false
  in
  ignore c;
  let ok = ref true in
  Array.iteri
    (fun j f -> if j <> pin && blocked_by values.(f) then ok := false)
    nd.Netlist.Node.fanins;
  !ok

(* Implication-refined observability: like [structurally_observable] but a
   gate passes an effect from one of its fanins only when no sibling input
   is proved constant at the controlling value. *)
let fault_observable c values =
  let n = Netlist.Node.num_nodes c in
  let obs = Array.make n false in
  let queue = Queue.create () in
  let mark id =
    if not obs.(id) then begin
      obs.(id) <- true;
      Queue.add id queue
    end
  in
  Array.iter (fun (_, id) -> mark id) c.Netlist.Node.pos;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let nd = Netlist.Node.node c id in
    match nd.Netlist.Node.kind with
    | Netlist.Node.Pi _ -> ()
    | Netlist.Node.Dff _ -> mark nd.Netlist.Node.fanins.(0)
    | Netlist.Node.Gate fn ->
      Array.iteri
        (fun pin f -> if pin_propagates c values nd fn pin then mark f)
        nd.Netlist.Node.fanins
  done;
  obs

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
      match nd.Netlist.Node.kind, Constants.constant_value values id with
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

(* --- NET006: statically untestable faults ------------------------------------ *)

type cause = Unexcitable | Unpropagatable

let cause_to_string = function
  | Unexcitable -> "unexcitable (source proved constant at the stuck value)"
  | Unpropagatable -> "unpropagatable (every path to a PO is blocked)"

let cause_slug = function
  | Unexcitable -> "unexcitable"
  | Unpropagatable -> "unpropagatable"

(* Machine-readable proof payload attached to NET006/NET008 diagnostics
   (the --json consumers parse these instead of the prose message). *)
let static_proof cause =
  Json.Obj
    [
      ("cause", Json.String (cause_slug cause));
      ("source", Json.String "static");
    ]

(* Why fault [f] can be proved untestable from the constant values and the
   refined observability, or [None] when no static proof applies. *)
let fault_cause c values obs (f : Fsim.Fault.t) =
  let unexcitable src =
    match Constants.constant_value values src with
    | Some v -> v = f.Fsim.Fault.stuck
    | None -> false
  in
  match f.Fsim.Fault.site with
  | Fsim.Fault.Stem id ->
    if unexcitable id then Some Unexcitable
    else if not obs.(id) then Some Unpropagatable
    else None
  | Fsim.Fault.Pin { gate; pin } ->
    let nd = Netlist.Node.node c gate in
    let src = nd.Netlist.Node.fanins.(pin) in
    if unexcitable src then Some Unexcitable
    else
      let propagates =
        obs.(gate)
        &&
        match nd.Netlist.Node.kind with
        | Netlist.Node.Gate fn -> pin_propagates c values nd fn pin
        | Netlist.Node.Dff _ | Netlist.Node.Pi _ -> true
      in
      if not propagates then Some Unpropagatable else None

(* Untestable members of the engines' collapsed fault list. *)
let untestable_faults c values obs =
  let faults = Fsim.Collapse.list c in
  let proved = ref [] in
  Array.iter
    (fun f ->
      match fault_cause c values obs f with
      | Some cause -> proved := (f, cause) :: !proved
      | None -> ())
    faults;
  (Array.length faults, List.rev !proved)

let untestable_diags c proved =
  List.map
    (fun ((f : Fsim.Fault.t), cause) ->
      let site = Fsim.Fault.site_node f.Fsim.Fault.site in
      Diag.make ~proof:(static_proof cause) ~rule:rule_untestable
        ~severity:Diag.Info ~loc:(node_loc c site)
        (Printf.sprintf "statically untestable fault %s: %s"
           (Fsim.Fault.to_string c f) (cause_to_string cause)))
    proved

(* Theorem-1 invariant count: untestable faults over the full
   (uncollapsed) fault universe of the gate and PI sites only.  Gates and
   PIs are preserved verbatim by retiming (only registers move), and
   every ingredient of the proof — constant values seen through
   registers, structural connectivity, constant-blocked propagation — is
   invariant under a correct retiming, so this count must be identical
   across an original/retimed pair (Theorem 1 of the paper).  DFF-site
   faults are excluded because the register count itself legitimately
   changes. *)
let invariant_untestable_count c values obs =
  let count = ref 0 in
  let tally b = if b then incr count in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      let id = nd.Netlist.Node.id in
      let unexcitable src stuck =
        match Constants.constant_value values src with
        | Some v -> v = stuck
        | None -> false
      in
      match nd.Netlist.Node.kind with
      | Netlist.Node.Dff _ -> ()
      | Netlist.Node.Pi _ ->
        (* PI stems are never constant; untestable iff unobservable *)
        if not obs.(id) then count := !count + 2
      | Netlist.Node.Gate fn ->
        tally (unexcitable id false || not obs.(id));
        tally (unexcitable id true || not obs.(id));
        Array.iteri
          (fun pin src ->
            let blocked =
              not (obs.(id) && pin_propagates c values nd fn pin)
            in
            tally (unexcitable src false || blocked);
            tally (unexcitable src true || blocked))
          nd.Netlist.Node.fanins)
    c.Netlist.Node.nodes;
  !count

(* --- NET008: sequentially redundant fault candidates -------------------------- *)

(* A stuck-at fault activates by driving its source line to the opposite
   of the stuck value.  [oracle.can_take src v] is an exact oracle —
   typically Analysis.Symreach over the proved-unreachable state set —
   answering whether line [src] can take value [v] in any reachable
   state under any input; a [false] answer makes the fault sequentially
   redundant.  The oracle record also carries the BDD budget and
   reached-set size, so each diagnostic's proof payload names the exact
   symbolic computation that proved it.

   Returns the candidate faults (excluding those NET006 already proved
   statically, so the diagnostics do not duplicate) and the
   inconsistencies: a statically Unexcitable fault is constant at the
   stuck value in *every* cycle, reachable or not, so the oracle must
   agree it cannot activate — a disagreement would falsify the Theorem-1
   machinery and is reported at Error severity (it should never fire). *)
let fault_source c (f : Fsim.Fault.t) =
  match f.Fsim.Fault.site with
  | Fsim.Fault.Stem id -> id
  | Fsim.Fault.Pin { gate; pin } ->
    (Netlist.Node.node c gate).Netlist.Node.fanins.(pin)

let seq_redundant_faults c ~can_take proved =
  let faults = Fsim.Collapse.list c in
  let statically_proved f =
    List.exists (fun (g, _) -> g = f) proved
  in
  let candidates = ref [] and inconsistent = ref [] in
  Array.iter
    (fun (f : Fsim.Fault.t) ->
      let activatable = can_take (fault_source c f) (not f.Fsim.Fault.stuck) in
      let static_cause =
        List.find_opt (fun ((g : Fsim.Fault.t), _) -> g = f) proved
      in
      (match static_cause with
      | Some (_, Unexcitable) when activatable -> inconsistent := f :: !inconsistent
      | _ -> ());
      if (not activatable) && not (statically_proved f) then
        candidates := f :: !candidates)
    faults;
  (List.rev !candidates, List.rev !inconsistent)

type oracle = {
  can_take : int -> bool -> bool;
  max_nodes : int;  (* the BDD node budget the exploration ran under *)
  bdd_nodes : int;  (* nodes of the reached-set BDD *)
}

let reach_oracle c =
  match Analysis.Symreach.explore c with
  | r ->
    Some
      {
        can_take = (fun node value -> Analysis.Symreach.can_take r node value);
        max_nodes = Analysis.Symreach.default_max_nodes;
        bdd_nodes = r.Analysis.Symreach.summary.Analysis.Symreach.bdd_nodes;
      }
  | exception (Bdd.Node_limit | Invalid_argument _) -> None

let symbolic_proof oracle =
  Json.Obj
    [
      ("cause", Json.String "unreachable_activation");
      ("source", Json.String "symbolic");
      ("max_nodes", Json.Int oracle.max_nodes);
      ("bdd_nodes", Json.Int oracle.bdd_nodes);
    ]

(* The symbolic check is a complete proof, not a heuristic: when the
   oracle ran, the fault *is* sequentially redundant — hence Warning
   severity and "proved" wording (the rule was Info "candidate" before
   the exploration budget and proof payloads were threaded through). *)
let seq_redundant_diags c ~oracle (candidates, inconsistent) =
  List.map
    (fun (f : Fsim.Fault.t) ->
      let site = Fsim.Fault.site_node f.Fsim.Fault.site in
      Diag.make
        ~proof:(symbolic_proof oracle)
        ~rule:rule_seq_redundant ~severity:Diag.Warning
        ~loc:(node_loc c site)
        (Printf.sprintf
           "sequentially redundant fault %s (proved): activation requires a \
            state symbolic reachability proved unreachable"
           (Fsim.Fault.to_string c f)))
    candidates
  @ List.map
      (fun (f : Fsim.Fault.t) ->
        let site = Fsim.Fault.site_node f.Fsim.Fault.site in
        Diag.make ~rule:rule_seq_redundant ~severity:Diag.Error
          ~loc:(node_loc c site)
          (Printf.sprintf
             "reachability oracle claims statically unexcitable fault %s can \
              activate — static implication and symbolic reachability \
              disagree"
             (Fsim.Fault.to_string c f)))
      inconsistent

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
