(** Shared ATPG types: engine configuration, budgets, work accounting and
    per-circuit results.

    "CPU time" is reported in deterministic {e work units} so the
    retimed/original ratios of the paper's tables are reproducible
    independent of the host.  A work unit is a unit of the cost model,
    not a count of evaluations performed: one unit per gate of each
    full-sweep evaluation of a time frame or simulated cycle, one per
    node an X-path check visits, plus 50 per backtrack.  {!Frames.imply}
    is event-driven and evaluates only the gates a change reaches, yet
    is charged the full sweep per frame. *)

type config = {
  max_frames_fwd : int;   (** forward time frames for fault propagation *)
  max_frames_bwd : int;   (** backward frames for state justification *)
  backtrack_limit : int;  (** per-fault PODEM backtracks *)
  work_limit : int;       (** per-fault gate-evaluation budget *)
  total_work_limit : int; (** whole-circuit budget; beyond it faults abort *)
  validate : bool;        (** confirm every test by fault simulation *)
  learn : bool;           (** SEST-style dynamic state learning *)
  struct_learn : bool;
  (** conflict-driven structural clause learning ({!module:Learn}): derive
      blocking clauses from phase-A conflicts and generalized failed cubes
      from complete phase-B refutations, and consult them before branching *)
}

val default_config : config

(** Is [SATPG_LEARN] set to a truthy value (1/true/on/yes)? *)
val env_struct_learn : unit -> bool

(** [scaled_config ?base ()] multiplies every budget of [base] by the
    [SATPG_BUDGET] environment variable (a float), when set, and turns
    [struct_learn] on when [SATPG_LEARN] is truthy.  An unparsable budget
    logs a warning and leaves the budgets unscaled.
    @raise Invalid_argument on a non-positive or non-finite scale. *)
val scaled_config : ?base:config -> unit -> config

(** [scale_budgets base f] multiplies the [backtrack_limit], [work_limit]
    and [total_work_limit] of [base] by [f] — the same arithmetic
    {!scaled_config} applies to [SATPG_BUDGET], exposed directly so
    long-lived callers (`satpg serve`) can honor a per-request budget
    without going through the environment.
    @raise Invalid_argument on a non-positive or non-finite scale. *)
val scale_budgets : config -> float -> config

type stats = {
  mutable work : int;        (** charged gate evaluations and X-path visits *)
  mutable backtracks : int;
  mutable decisions : int;
  mutable frames : int;      (** time frames expanded ({!Frames.create}) *)
  states : (Sim.Statekey.t, unit) Hashtbl.t;
  (** distinct good-machine states traversed (Table 6 instrumentation),
      keyed by overflow-safe packed state keys *)
  state_cubes : (string, unit) Hashtbl.t;
  (** justification requirement cubes encountered (with X positions) *)
  mutable learn_conflicts : int;
  (** conflicts whose analysis produced a stored blocking clause *)
  mutable learn_clauses : int;   (** blocking clauses stored *)
  mutable learn_literals : int;  (** literals across stored clauses *)
  mutable learn_hits : int;      (** phase-A prunes from clause matches *)
  mutable learn_cube_hits : int;
  (** phase-B prunes from generalized failed-cube clauses *)
}

val new_stats : unit -> stats
val note_state : stats -> Sim.Statekey.t -> unit

(** The CPU-seconds stand-in: work + 50 * backtracks. *)
val work_units : stats -> int

type fault_outcome =
  | Tested of Sim.Vectors.sequence  (** candidate test, power-up onward *)
  | Proved_redundant
  | Gave_up

type result = {
  faults : Fsim.Fault.t array;
  status : Fsim.Fault.status array;
  test_sets : Sim.Vectors.sequence list;
  (** each sequence is applied from power-up *)
  stats : stats;
  fault_coverage : float;     (** % detected *)
  fault_efficiency : float;   (** % detected or proven redundant *)
  trajectory : (int * float) list;
  (** (work units, fault efficiency %) checkpoints — Figure 3's curves *)
}

(** One-object JSON summary of a result (the [satpg atpg --json] payload):
    coverage, efficiency, work accounting, states and per-status fault
    counts.  [extra] fields are prepended (circuit/engine/cache labels). *)
val result_to_json : ?extra:(string * Obs.Json.t) list -> result -> Obs.Json.t

val summarize :
  ?trajectory:(int * float) list ->
  Fsim.Fault.t array ->
  Fsim.Fault.status array ->
  Sim.Vectors.sequence list ->
  stats ->
  result
