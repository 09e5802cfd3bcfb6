(** PROOFS-style parallel-fault sequential simulator.

    Faults are packed into the bit lanes of machine words (one faulty
    machine per lane); all lanes consume the same input sequence from the
    power-up state, with each lane's DFF state diverging independently.
    The good machine is simulated once; a fault counts as detected the
    first cycle a primary output differs from the good value.

    Fault dropping with regrouping (Niermann, Cheng and Patel's PROOFS):
    the sequence runs in fixed windows of 16 cycles, and at each window
    boundary the faults still undetected are repacked into as few words
    as their first-window word boundaries allow, in worklist order, each
    lane's faulty DFF state moving with its fault.  A lane's machine
    depends only on its own fault, the inputs and its own state, so
    detections, detect times and good states are exactly those of fixed
    batches; only the work ([sim_cycles]) falls.

    Every machine runs on the flat levelized instruction tape
    ({!Sim.Tape}), compiled once per call unless the caller passes the
    circuit's tape. *)

type run = {
  detected : bool array;   (** per fault index of the supplied array *)
  detect_time : int array; (** first differing cycle, [-1] if undetected *)
  good_states : Sim.Statekey.t list;
      (** distinct good-machine states, in visit order; keys are
          overflow-safe for any DFF count (the historical [int] packing
          aliased states beyond 62 DFFs).  Empty when the worklist was
          empty — the good pass is skipped entirely then. *)
  cycles : int;            (** good-machine vectors applied (0 when the
                               worklist was empty) *)
  sim_cycles : int;
      (** faulty-machine word-cycles actually simulated, summed over
          the words of every window (a word stops early once all its
          lanes have detected), so this is the work done, not the work
          scheduled.  Never more than fixed 62-fault batches would run.
          Deterministic at any job count. *)
}

(** [simulate ?indices ?skip ?tape c faults vectors] fault-simulates
    [vectors] (applied from power-up) against [faults].  [indices]
    restricts which entries are simulated (the worklist, in the given
    order); [skip.(i) = true] excludes fault [i] (used for fault
    dropping).  Detection flags are indexed like [faults].  [tape] is
    [c]'s compiled tape, for callers that simulate one circuit many
    times; without it each call compiles its own.  With a trace sink
    installed the call is one ["fsim.simulate"] span whose args are the
    worklist size and the vector count.
    [backend] selects the combinational-sweep implementation
    ({!Sim.Parallel.backend}; default [`Tape]) — results are bit-identical
    across backends, [`Nodes] exists for differential tests and the
    pre-tape bench baseline.

    If the effective worklist is empty, no simulation runs at all: the
    good pass is skipped, [good_states] is empty and every metric stays
    untouched, so `satpg diff` attribution reflects work actually done.
    @raise Invalid_argument if [tape] was compiled from another circuit. *)
val simulate :
  ?indices:int list ->
  ?skip:bool array ->
  ?backend:Sim.Parallel.backend ->
  ?tape:Sim.Tape.t ->
  Netlist.Node.t ->
  Fault.t array ->
  Sim.Vectors.sequence ->
  run

(** Does the sequence detect the single fault? *)
val detects : Netlist.Node.t -> Fault.t -> Sim.Vectors.sequence -> bool

(** Percentage helper: [coverage ~detected ~total]. *)
val coverage : detected:int -> total:int -> float
