(** Per-circuit ATPG driver shared by the HITEC- and SEST-style engines.

    1. {e random phase}: a few random sequences are fault-simulated with
       fault dropping, and the good-machine states they visit are recorded
       (with the input prefix reaching each) into a justification
       directory — on densely encoded machines this visits nearly the
       whole valid set, on sparsely encoded (retimed) machines a sliver,
       which is precisely the asymmetry the reproduced paper studies;
    2. {e deterministic phase}: time-frame PODEM plus backward state
       justification per remaining fault; every produced test is validated
       by fault simulation (ground truth) and used to drop other faults.

    Sound redundancy only: a fault is Redundant when phase A exhausted the
    search space and the fault effect never (even potentially) escaped the
    frame window. *)

(** Index of the PI literally named "reset", if any. *)
val find_reset_pi : Netlist.Node.t -> int option

(** Seeded random sequences; the reset line (when present) is pulsed with
    low probability. *)
val random_sequences :
  Netlist.Node.t -> seed:int -> count:int -> length:int ->
  Sim.Vectors.sequence list

val merge_stats : into:Types.stats -> Types.stats -> unit
val note_run_states : Types.stats -> Fsim.Engine.run -> unit

(** {1 Observability} — structured events shared by the engines.  All
    emission is guarded by {!Obs.Events.enabled}; results are bit-identical
    with or without an installed sink. *)

(** ["tested"], ["redundant"] or ["aborted"]. *)
val outcome_string : Types.fault_outcome -> string

(** One ["fault_sim"] record: a fault-dropping simulation pass of
    [vectors] vectors costing [work] gate evaluations, newly dropping the
    given fault indices.  [sim_cycles] is the deterministic count of
    faulty-machine cycles the engine actually simulated (drop-limited, so
    at most [vectors] per live batch); the sum over all ["fault_sim"]
    events equals the final ["fsim.vectors"] counter. *)
val emit_fault_sim_event :
  engine:string -> phase:string -> stats:Types.stats -> resolved:int ->
  vectors:int -> sim_cycles:int -> work:int -> int list -> unit

(** One ["fault"] record: the per-fault terminal line carrying the exact
    work/backtrack/decision/frame accounting of the attempt ([fstats]),
    the outcome, the post-validation status, and the number of {e other}
    faults dropped by the produced test ([drop_credit]). *)
val emit_fault_event :
  Netlist.Node.t -> engine:string -> index:int -> fault:Fsim.Fault.t ->
  fstats:Types.stats -> outcome:string -> status:Fsim.Fault.status ->
  drop_credit:int -> stats:Types.stats -> resolved:int -> unit

(** The state directory harvested from simulating [sequences]:
    (state key, input prefix reaching it) per first visit. *)
val state_directory :
  Netlist.Node.t -> Sim.Vectors.sequence list ->
  (Sim.Statekey.t * Sim.Vectors.sequence) list

(** Pre-engine pruning shared by the drivers: mark every fault [prune]
    accepts as [Proved_untestable]/resolved before any budget is spent
    (one "fault" event per pruned fault keeps event-stream replays
    complete).  No-op when [prune] is [None]. *)
val apply_prune :
  ?prune:(Fsim.Fault.t -> bool) ->
  Netlist.Node.t ->
  engine:string ->
  faults:Fsim.Fault.t array ->
  status:Fsim.Fault.status array ->
  detected:bool array ->
  stats:Types.stats ->
  resolved:int ref ->
  unit

(** Deterministic attempt on one fault (exposed for tests/benches) over
    the circuit's compiled tape, which {!generate} builds once per run.
    [guide] is the optional SCOAP [(cc0, cc1)] cost table steering
    PODEM's backtrace input choice; [slearn] the optional cross-fault
    structural-learning store (see {!module:Learn}). *)
val attempt_fault :
  ?directory:(Sim.Statekey.t * Sim.Vectors.sequence) list ->
  ?guide:int array * int array ->
  ?slearn:Learn.t ->
  Sim.Tape.t ->
  Fsim.Fault.t ->
  Types.config ->
  Types.stats ->
  Podem.learn_state option ->
  Types.fault_outcome

(** Run the whole flow on a circuit.  [guide] as in {!attempt_fault};
    omitted (the default) the engine behaves exactly as before.  [engine]
    labels the emitted observability records (default ["sest"] when
    [config.learn], else ["hitec"]).  [prune] (typically
    [Analysis.Untest.prune]) marks accepted faults [Proved_untestable]
    upfront — they are skipped by every phase and count towards fault
    efficiency but not coverage. *)
val generate :
  ?config:Types.config ->
  ?seed:int ->
  ?random_sequences_count:int ->
  ?random_sequence_length:int ->
  ?engine:string ->
  ?guide:int array * int array ->
  ?prune:(Fsim.Fault.t -> bool) ->
  Netlist.Node.t ->
  Types.result
