(* Content-addressed cache keys.

   A key names a computation, not a circuit file: the canonical structural
   hash of the netlist (Netlist.Structhash — node names and ids excluded)
   joined with a fingerprint of every budget/flag the computation read.
   Display names never enter the key, so two structurally different
   circuits submitted under one name cannot alias, and the same circuit
   under two names shares one record.  Changing any budget (e.g. via
   SATPG_BUDGET) changes the fingerprint and therefore the key: stale
   records are never returned, only orphaned. *)

let config_fingerprint (cfg : Atpg.Types.config) =
  let open Netlist.Structhash in
  let h = empty in
  let h = int h cfg.Atpg.Types.max_frames_fwd in
  let h = int h cfg.Atpg.Types.max_frames_bwd in
  let h = int h cfg.Atpg.Types.backtrack_limit in
  let h = int h cfg.Atpg.Types.work_limit in
  let h = int h cfg.Atpg.Types.total_work_limit in
  let h = bool h cfg.Atpg.Types.validate in
  let h = bool h cfg.Atpg.Types.learn in
  let h = bool h cfg.Atpg.Types.struct_learn in
  to_hex h

(* Bump when the classifier's cascade changes in a way that can alter
   verdicts (new stage, sharper cone, ...) or its recorded work:
   cached classifications and pruned ATPG runs both depend on it.
   2: the random-simulation prefilter fronts C3 as well as C4, which
   changes the classify work accounting. *)
let classify_version = 2

let classify_fingerprint ~symbolic ~max_nodes ~product ~universe =
  Netlist.Structhash.(
    to_hex
      (string
         (int (bool (bool (int empty max_nodes) symbolic) product)
            classify_version)
         universe))

let classify ~symbolic ~max_nodes ~product ~universe ~circuit_hash =
  Printf.sprintf "%s-%s" circuit_hash
    (classify_fingerprint ~symbolic ~max_nodes ~product ~universe)

(* A pruned ATPG run's result depends on the classifier's verdicts, so
   the classify fingerprint joins the key; unpruned runs keep their
   historical keys. *)
let atpg ~engine ~config ?classify ~circuit_hash () =
  let base =
    Printf.sprintf "%s-%s-%s" engine circuit_hash (config_fingerprint config)
  in
  match classify with
  | None -> base
  | Some cfp -> Printf.sprintf "%s-pruned-%s" base cfp

let reach_fingerprint ~max_states =
  Netlist.Structhash.(to_hex (int empty max_states))

let reach ~max_states ~circuit_hash =
  Printf.sprintf "%s-%s" circuit_hash (reach_fingerprint ~max_states)

(* Bump when the BDD variable-ordering scheme changes: counts are
   order-independent but the persisted bdd_nodes field is not. *)
let symreach_ordering_version = 2

let symreach_fingerprint ~max_nodes =
  Netlist.Structhash.(
    to_hex (int (int empty max_nodes) symreach_ordering_version))

let symreach ~max_nodes ~circuit_hash =
  Printf.sprintf "%s-%s" circuit_hash (symreach_fingerprint ~max_nodes)

let structural ~depth_budget ~cycle_budget ~circuit_hash =
  let fp =
    Netlist.Structhash.(
      to_hex (int (int empty depth_budget) cycle_budget))
  in
  Printf.sprintf "%s-%s" circuit_hash fp
