(* Memoization of the expensive analyses, keyed by *content*: the
   canonical structural hash of the circuit (Netlist.Structhash) joined
   with a fingerprint of the configuration the computation reads
   (Store.Key).  The circuit name is display-only metadata — it labels
   records for humans but never enters a key, so two structurally
   different circuits submitted under the same name get distinct results
   by construction (the aliasing bug the name-keyed memo had), and the
   same circuit under two names shares one computation.

   Two layers.  The per-process memory table serves repeat lookups within
   a run; with SATPG_STORE=dir set, Store.Disk adds a persistent layer
   underneath, so a warm rerun recomputes nothing.  Every lookup feeds
   the core.cache.* counters — memory hits, disk hits/misses/writes,
   corrupt-record errors — and the `satpg atpg`/`tables` commands report
   them; code paths that knowingly sidestep the cache (e.g. --scoap
   guided runs) record a bypass. *)

type atpg_kind = Hitec | Attest | Sest

let atpg_kinds = [ ("hitec", Hitec); ("attest", Attest); ("sest", Sest) ]

let atpg_kind_name k = fst (List.find (fun (_, k') -> k' = k) atpg_kinds)

let hits = Obs.Metrics.counter "core.cache.hits"
let misses = Obs.Metrics.counter "core.cache.misses"
let bypasses = Obs.Metrics.counter "core.cache.bypasses"
let disk_hits = Obs.Metrics.counter "core.cache.disk_hits"
let disk_misses = Obs.Metrics.counter "core.cache.disk_misses"
let disk_writes = Obs.Metrics.counter "core.cache.disk_writes"
let disk_errors = Obs.Metrics.counter "core.cache.disk_errors"

(* The cache outcome of the most recent [atpg]/[reach]/[structural] call
   (or explicit bypass note), for one-line CLI reporting.  Domain-local:
   parallel table cells each track their own outcome instead of racing on
   one cell (the CLI reads it from the main domain's sequential flow). *)
type outcome = Hit | Disk_hit | Miss | Bypassed

let last : outcome Domain.DLS.key = Domain.DLS.new_key (fun () -> Miss)
let set_last o = Domain.DLS.set last o

let note_bypass () =
  Obs.Metrics.incr bypasses;
  set_last Bypassed

let outcome_string = function
  | Hit -> "hit"
  | Disk_hit -> "disk-hit"
  | Miss -> "miss"
  | Bypassed -> "bypassed"

let last_outcome () = Domain.DLS.get last

(* Guards the memory tables.  Held only around find/replace, never across
   a [compute] — two domains missing the same key concurrently may both
   compute it, but the computations are deterministic functions of the
   key, so the duplicate replace is idempotent; serializing hours of ATPG
   under a table lock would be far worse. *)
let mu = Mutex.create ()

(* Memory first, then (when SATPG_STORE is set) the disk record, then a
   fresh computation whose result back-fills both layers.  A corrupt disk
   record is counted and recomputed over, never propagated. *)
let lookup tbl ~skind ~key ~name ~encode ~decode compute =
  match Mutex.protect mu (fun () -> Hashtbl.find_opt tbl key) with
  | Some r ->
    Obs.Metrics.incr hits;
    set_last Hit;
    r
  | None ->
    let from_disk =
      if not (Store.Disk.enabled ()) then None
      else
        match Store.Disk.load skind ~key with
        | Store.Disk.Found payload ->
          (match decode payload with
           | Some r ->
             Obs.Metrics.incr disk_hits;
             Some r
           | None ->
             Obs.Metrics.incr disk_errors;
             None)
        | Store.Disk.Absent ->
          Obs.Metrics.incr disk_misses;
          None
        | Store.Disk.Corrupt _ ->
          Obs.Metrics.incr disk_errors;
          None
    in
    (match from_disk with
     | Some r ->
       set_last Disk_hit;
       Mutex.protect mu (fun () -> Hashtbl.replace tbl key r);
       r
     | None ->
       Obs.Metrics.incr misses;
       set_last Miss;
       let r = compute () in
       Mutex.protect mu (fun () -> Hashtbl.replace tbl key r);
       if Store.Disk.save skind ~key ~name (encode r) then
         Obs.Metrics.incr disk_writes;
       r)

let atpg_results : (string, Atpg.Types.result) Hashtbl.t = Hashtbl.create 64
let classify_results : (string, Analysis.Untest.t) Hashtbl.t = Hashtbl.create 64
let reach_results : (string, Analysis.Reach.result) Hashtbl.t = Hashtbl.create 64
let symreach_results : (string, Analysis.Symreach.summary) Hashtbl.t =
  Hashtbl.create 64
let structural_results : (string, Analysis.Structural.result) Hashtbl.t =
  Hashtbl.create 64

(* Drop the per-process memory layer (disk records stay).  For tests and
   long-lived callers that re-synthesize under changed budgets. *)
let reset_memory () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset atpg_results;
      Hashtbl.reset classify_results;
      Hashtbl.reset reach_results;
      Hashtbl.reset symreach_results;
      Hashtbl.reset structural_results)

type classify_universe = Collapsed | Invariant

let universe_name = function
  | Collapsed -> "collapsed"
  | Invariant -> "invariant"

let classify_fingerprint ~symbolic ~product universe =
  Store.Key.classify_fingerprint ~symbolic
    ~max_nodes:Analysis.Symreach.default_max_nodes ~product
    ~universe:(universe_name universe)

let classify_key ~symbolic ~product universe ~circuit_hash =
  Store.Key.classify ~symbolic ~max_nodes:Analysis.Symreach.default_max_nodes
    ~product ~universe:(universe_name universe) ~circuit_hash

(* Fault classification (Analysis.Untest), cached like every other
   analysis.  [universe] picks the fault set: [Collapsed] is the
   engines' list (what [atpg ~prove_untestable] prunes against),
   [Invariant] the gate/PI-site Theorem-1 comparison universe of
   [satpg classify --check]. *)
let classify ?(symbolic = true) ?(product = false) ?(universe = Collapsed)
    ~name c =
  let key =
    classify_key ~symbolic ~product universe
      ~circuit_hash:(Netlist.Structhash.circuit c)
  in
  lookup classify_results ~skind:Store.Disk.Classify ~key ~name
    ~encode:Store.Codec.untest_to_json ~decode:Store.Codec.untest_of_json
    (fun () ->
      let faults =
        match universe with
        | Collapsed -> None
        | Invariant -> Some (Analysis.Untest.invariant_faults c)
      in
      Analysis.Untest.classify ~symbolic
        ~max_nodes:Analysis.Symreach.default_max_nodes ~product ?faults c)

(* The ATPG configuration recipe.  Every entry point — CLI, daemon,
   bench — builds its config here, so equal inputs give equal
   fingerprints and therefore one store record.  [budget] scales the
   engine's budgets like SATPG_BUDGET does (and replaces it); [learn]
   overrides the SATPG_LEARN default.  The simulation-based attest engine
   has no branch structure to learn from, so its flag is always off and a
   --learn attest run shares the record of the plain one. *)
let atpg_config kind ~budget ~learn =
  let base =
    { Atpg.Types.default_config with Atpg.Types.learn = (kind = Sest) }
  in
  let config =
    match budget with
    | None -> Atpg.Types.scaled_config ~base ()
    | Some f ->
      Atpg.Types.scale_budgets
        { base with Atpg.Types.struct_learn = Atpg.Types.env_struct_learn () }
        f
  in
  let struct_learn =
    match kind, learn with
    | Attest, _ -> false
    | (Hitec | Sest), Some b -> b
    | (Hitec | Sest), None -> config.Atpg.Types.struct_learn
  in
  { config with Atpg.Types.struct_learn }

(* A pruned run folds in the fingerprint of the classification it prunes
   against: the full cascade including the exact product stage, since the
   engines are about to spend real budget *)
let atpg_key ~prove_untestable kind config ~circuit_hash =
  let classify =
    if prove_untestable then
      Some (classify_fingerprint ~symbolic:true ~product:true Collapsed)
    else None
  in
  Store.Key.atpg ~engine:(atpg_kind_name kind) ~config ?classify
    ~circuit_hash ()

let atpg ?(prove_untestable = false) ~config kind ~name c =
  (* classify first (its own cache line) so the prune predicate and the
     classify fingerprint in the ATPG key agree by construction *)
  let prune =
    if prove_untestable then
      Some (Analysis.Untest.prune (classify ~product:true ~name c))
    else None
  in
  let key =
    atpg_key ~prove_untestable kind config
      ~circuit_hash:(Netlist.Structhash.circuit c)
  in
  lookup atpg_results ~skind:Store.Disk.Atpg ~key ~name
    ~encode:Store.Codec.atpg_result_to_json
    ~decode:Store.Codec.atpg_result_of_json
    (fun () ->
      match kind with
      | Hitec | Sest ->
        Atpg.Run.generate ~config ~engine:(atpg_kind_name kind) ?prune c
      | Attest -> Atpg.Attest.generate ~config ?prune c)

let reach_fingerprint =
  Store.Key.reach_fingerprint ~max_states:Analysis.Reach.default_max_states

let reach_key ~circuit_hash =
  Store.Key.reach ~max_states:Analysis.Reach.default_max_states ~circuit_hash

let symreach_fingerprint =
  Store.Key.symreach_fingerprint ~max_nodes:Analysis.Symreach.default_max_nodes

let symreach_key ~circuit_hash =
  Store.Key.symreach ~max_nodes:Analysis.Symreach.default_max_nodes
    ~circuit_hash

let reach ~name c =
  let key = reach_key ~circuit_hash:(Netlist.Structhash.circuit c) in
  lookup reach_results ~skind:Store.Disk.Reach ~key ~name
    ~encode:Store.Codec.reach_result_to_json
    ~decode:Store.Codec.reach_result_of_json
    (fun () ->
      Analysis.Reach.explore ~max_states:Analysis.Reach.default_max_states
        ~name c)

let symreach ~name c =
  let key = symreach_key ~circuit_hash:(Netlist.Structhash.circuit c) in
  lookup symreach_results ~skind:Store.Disk.Symreach ~key ~name
    ~encode:Store.Codec.symreach_summary_to_json
    ~decode:Store.Codec.symreach_summary_of_json
    (fun () ->
      (Analysis.Symreach.explore ~max_nodes:Analysis.Symreach.default_max_nodes
         c)
        .Analysis.Symreach.summary)

(* The density-of-encoding data path of Tables 6-8 and Figure 3: explicit
   BFS wherever it is feasible (seed benchmarks — keeps the table numbers
   grounded in enumeration), symbolic BDD reachability beyond the caps.
   Both paths share one float expression for density, so on any circuit
   where both run the results are bit-identical (tested, and enforced by
   `satpg reach --check`). *)
type density = {
  valid : float;
  valid_int : int option;
  total : float;
  density : float;
  source : [ `Explicit | `Symbolic ];
}

let density_source_name = function
  | `Explicit -> "explicit"
  | `Symbolic -> "symbolic"

let density ~name c =
  if Analysis.Reach.feasible c then begin
    let r = reach ~name c in
    let valid = float_of_int r.Analysis.Reach.valid_states in
    let total = Analysis.Reach.total_states r in
    {
      valid;
      valid_int = Some r.Analysis.Reach.valid_states;
      total;
      density = Analysis.Reach.density r;
      source = `Explicit;
    }
  end
  else begin
    let s = symreach ~name c in
    {
      valid = s.Analysis.Symreach.valid_states;
      valid_int = s.Analysis.Symreach.valid_states_int;
      total = Analysis.Symreach.total_states s;
      density = Analysis.Symreach.density s;
      source = `Symbolic;
    }
  end

let structural ~name c =
  let depth_budget = Analysis.Structural.default_depth_budget in
  let cycle_budget = Analysis.Structural.default_cycle_budget in
  let key =
    Store.Key.structural ~depth_budget ~cycle_budget
      ~circuit_hash:(Netlist.Structhash.circuit c)
  in
  lookup structural_results ~skind:Store.Disk.Structural ~key ~name
    ~encode:Store.Codec.structural_result_to_json
    ~decode:Store.Codec.structural_result_of_json
    (fun () -> Analysis.Structural.analyze ~depth_budget ~cycle_budget c)

(* One-line summary of the cache counters, for end-of-run reporting. *)
let pp_summary ppf () =
  Fmt.pf ppf
    "cache: %d memory hits, %d disk hits, %d misses, %d bypassed%s"
    (Obs.Metrics.count hits)
    (Obs.Metrics.count disk_hits)
    (Obs.Metrics.count misses)
    (Obs.Metrics.count bypasses)
    (match Store.Disk.dir () with
     | Some d ->
       Printf.sprintf " (store %s: %d writes, %d stale/corrupt)" d
         (Obs.Metrics.count disk_writes)
         (Obs.Metrics.count disk_errors)
     | None -> "")
