(** Static untestability prover: classify stuck-at faults before ATPG.

    A soundness-ordered cascade of increasingly sharp (and increasingly
    expensive) proofs — structural observability, ternary
    constant-propagation excitation/effect-cone checks, and symbolic
    activation/confinement checks against the BDD reachable set.  Every
    [Untestable] verdict is a proof that no input sequence from power-up
    can ever detect the fault; anything the cascade cannot prove is
    [Unknown] and left for the engines.  The symbolic stage is
    node-budgeted and degrades to [Unknown] on {!Bdd.Node_limit}, never
    to a wrong verdict.

    Requires a cycle-free circuit (trusts [order], like
    {!Fixpoint.constants}). *)

type cause =
  | Unobservable            (** no structural path from the site to a PO *)
  | Unexcitable             (** source line proved constant at the stuck value *)
  | Effect_confined         (** effect cone reaches no primary output *)
  | Unreachable_activation  (** no reachable state produces the activation value *)
  | Machine_equivalent
      (** exact product-machine reachability: no reachable (good, faulty)
          state pair differs on any PO under any input *)

type evidence = Structural | Ternary | Symbolic

type proof = { cause : cause; evidence : evidence }
type verdict = Unknown | Untestable of proof

type summary = {
  total : int;            (** faults classified *)
  proved : int;           (** faults proved untestable *)
  structural : int;       (** proved by the structural stage *)
  ternary : int;          (** proved by the ternary stages *)
  symbolic : int;         (** proved by the symbolic stages *)
  symbolic_ran : bool;    (** false when disabled or Node_limit hit *)
  bdd_nodes : int;        (** reached-set BDD size (0 without symbolic) *)
  work : int;             (** deterministic work units (gate transfers) *)
}

type t = {
  faults : Fsim.Fault.t array;
  verdicts : verdict array;  (** aligned with [faults] *)
  summary : summary;
}

val cause_to_string : cause -> string
val cause_of_string : string -> cause option
val evidence_to_string : evidence -> string
val evidence_of_string : string -> evidence option

(** Reassemble a result (store codec constructor). *)
val v :
  faults:Fsim.Fault.t array -> verdicts:verdict array -> summary:summary -> t

(** Classify [faults] (default: the engines' collapsed list,
    {!Fsim.Collapse.list}).  [symbolic:false] skips the BDD stages;
    [max_nodes] is the BDD budget (default
    {!Symreach.default_max_nodes}).  Whenever a per-fault BDD stage can
    run, faults that {!presimulate} detects skip it (they are testable,
    so the stage could not prove them).  [product:true] (requires the
    symbolic stage) additionally runs the exact product-machine check on
    every fault the cheaper stages leave unknown — complete for
    single-stuck-at sequential redundancy but the most expensive stage
    by far; each fault gets a fresh manager with a tenth of [max_nodes]
    as its budget (blow-up wall time is proportional to the budget and
    paid per fault), so a blow-up costs only that fault its verdict. *)
val classify :
  ?symbolic:bool ->
  ?max_nodes:int ->
  ?product:bool ->
  ?faults:Fsim.Fault.t array ->
  Netlist.Node.t ->
  t

(** The Theorem-1 comparison universe: every stuck-at fault on gate and
    PI sites (stems and gate input pins), uncollapsed, DFF sites
    excluded.  Gates and PIs survive retiming verbatim, so a correct
    retiming must leave this set's proved-untestable subset invariant. *)
val invariant_faults : Netlist.Node.t -> Fsim.Fault.t array

(** [lookup t] is an O(1) verdict oracle (faults outside [t.faults] are
    [Unknown]).  Build once, query many. *)
val lookup : t -> Fsim.Fault.t -> verdict

(** The summary as JSON fields: faults, proved_untestable, structural,
    ternary, symbolic, symbolic_ran, bdd_nodes, work_units — the counts
    that CLI and daemon classify responses report. *)
val summary_fields : summary -> (string * Obs.Json.t) list

(** [prune t] is [fun f -> lookup t f <> Unknown] — the predicate
    {!Atpg.Run.generate} consumes to skip proved-untestable faults. *)
val prune : t -> Fsim.Fault.t -> bool

(** Sorted display names of the proved-untestable faults — the
    retiming-comparable fingerprint used by [satpg classify --check]
    (gate/PI names are stable across retiming; node ids are not). *)
val proved_names : Netlist.Node.t -> t -> string list

(** The prefilter of the per-fault BDD stages: 4×128 random vectors
    from a seed fixed per circuit, fault-simulated with dropping.
    [(presimulate ~work c faults).(i)] is [true] when some vector
    detects [faults.(i)], which makes it testable.  Adds the simulated
    cycles to [work]. *)
val presimulate : work:int ref -> Netlist.Node.t -> Fsim.Fault.t array -> bool array

(** Exposed for tests: the per-line constants implied by the reachable
    set, or [None] when the BDD budget was exceeded. *)
val reachable_constants :
  max_nodes:int -> Netlist.Node.t -> (bool option array * int) option

(** Structural backward connectivity from the POs, registers
    transparent (stage A; also lint's NET004). *)
val structurally_observable : Netlist.Node.t -> bool array

(** Exposed for tests: the fault's source line (its stem, or the line
    driving the faulty pin). *)
val fault_source : Netlist.Node.t -> Fsim.Fault.t -> int
