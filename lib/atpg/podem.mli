(** PODEM over the iterative-array model, in two phases.

    {b Phase A} (excitation + propagation): decisions on the primary
    inputs of every frame and the free present state of frame 0 — exactly
    the structural-ATPG blindness the reproduced paper studies.  Success
    is a D/D' on a primary output inside the window; a fault is
    {e exhausted} only after the whole space is refuted, and that proves
    redundancy only if no (even potential) escape through the last
    frame's next state was ever seen.

    {b Phase B} (state justification): the frame-0 requirement cube is
    regressed one good-machine frame at a time until compatible with the
    power-up state, with a reset-first probe per level and an optional
    simulation-seeded state directory; SEST-style learning caches failed
    cubes and successful prefixes across faults. *)

exception Out_of_budget

type var =
  | Pi of int * int  (** (frame, input index) *)
  | Ps of int        (** frame-0 state bit (dff position) *)

type decision = { var : var; mutable value : bool; mutable flipped : bool }

type phase_a_result = Detected | Exhausted of { escape_seen : bool }

type learn_state = {
  failed_cubes : (string, unit) Hashtbl.t;
  proven_prefix : (string, Sim.Vectors.sequence) Hashtbl.t;
}

val new_learn_state : unit -> learn_state

val assign : Frames.t -> var -> bool -> unit
val unassign : Frames.t -> var -> unit

(** Walk an objective (frame, node, value) down to an unassigned
    pseudo-input decision; [None] when every path is already assigned. *)
val backtrace : Frames.t -> int -> int -> bool -> (var * bool) option

(** Excitation/propagation search for one fault.  With [slearn], every
    dead end is analyzed into a blocking clause and the learned store is
    consulted before each branch (see {!module:Learn}); without it the
    search is bit-identical to the seed engine.
    @raise Out_of_budget when the per-fault budget runs out. *)
val phase_a :
  ?slearn:Learn.t ->
  Frames.t -> Fsim.Fault.t -> Types.config -> Types.stats -> phase_a_result

(** Does the cube's specified bits match the packed state key? *)
val cube_matches_code : Sim.Value3.t array -> Sim.Statekey.t -> bool

(** Is the cube compatible with the circuit's power-up state? *)
val compatible_with_init : Netlist.Node.t -> Sim.Value3.t array -> bool

(** Justify a frame-0 state cube on the good machine; returns the input
    prefix (power-up onward) reaching a compatible state, or [None].
    [directory] is the simulation-seeded (state, prefix) list; [guide]
    is the optional SCOAP [(cc0, cc1)] controllability cost table.
    [slearn] adds the cross-fault structural-learning store: complete
    refutations are generalized to their read set and consulted (with
    subset matching) before any cube is searched.
    @raise Out_of_budget when the budget runs out. *)
val justify :
  ?directory:(Sim.Statekey.t * Sim.Vectors.sequence) list ->
  ?guide:int array * int array ->
  ?slearn:Learn.t ->
  Sim.Tape.t ->
  required:Sim.Value3.t array ->
  cfg:Types.config ->
  stats:Types.stats ->
  learn:learn_state option ->
  Sim.Vectors.sequence option
