(** Five-valued (0, 1, X, D, D') iterative-array model: the circuit
    unrolled over [k] time frames, good and faulty machines simulated side
    by side with the fault injected in every frame.  "D at a node" means
    good = 1 / faulty = 0 there in that frame.

    Pseudo-inputs (the PODEM decision variables): the primary inputs of
    every frame, and the present state of frame 0. *)

type t = private {
  circuit : Netlist.Node.t;
  tape : Sim.Tape.t;
  (** flat levelized instruction tape the cone evaluation runs on, with
      its fanout index; compiled once per ATPG run and shared read-only *)
  fault : Fsim.Fault.t option;
  dff_pos : int array;               (** node id -> dff position, or -1 *)
  k : int;                           (** number of frames *)
  good : Sim.Value3.t array array;   (** [frame][node] *)
  faulty : Sim.Value3.t array array;
  pi : Sim.Value3.t array array;     (** [frame][pi index]; assignable *)
  ps0 : Sim.Value3.t array;          (** [dff position]; assignable *)
  frontier : int list array;         (** per frame: D-frontier gate ids *)
  in_frontier : Bytes.t;
  (** D-frontier flag per [frame * num_gates + slot]; [frontier] is
      re-listed from it whenever a flag of the frame flips *)
  swept : Bytes.t;                   (** per frame: evaluated at least once *)
  dirty : Bytes.t;
  (** per slot: some fanin changed this sweep; all clear between
      [imply] calls *)
  mutable pending : int;             (** dirty slots not yet evaluated *)
  mutable low : int;                 (** lowest dirty slot, or [max_int] *)
  stem : int;                        (** stem-fault node, or -1 *)
  stem_v : Sim.Value3.t;             (** its stuck value *)
  pin_gate : int;                    (** branch-fault gate, or -1 *)
  pin : int;                         (** branch-fault pin *)
  pin_v : Sim.Value3.t;              (** its stuck value *)
  po_driver : bool array;            (** per node: drives a primary output *)
  mutable visited : int array;
  (** {!x_path} visit stamps per [frame * num_nodes + node], allocated on
      the first call *)
  mutable stamp : int;               (** the last {!x_path} call's stamp *)
  guide : (int array * int array) option;
  (** optional SCOAP [(cc0, cc1)] per node id; when present, PODEM's
      backtrace picks X inputs by controllability cost instead of pin
      order (cheapest when one input suffices, hardest first when all
      inputs are required) *)
  stats : Types.stats;
}

(** [create ?fault ?guide tape ~frames ~stats] unrolls [tape]'s circuit
    over [frames] frames, every pseudo-input X.  Nothing is evaluated
    until the first {!imply}. *)
val create :
  ?fault:Fsim.Fault.t ->
  ?guide:int array * int array ->
  Sim.Tape.t -> frames:int -> stats:Types.stats -> t

(** Faulty-machine read of gate pin [pin] (honors branch-fault injection). *)
val read_faulty : t -> int -> int -> int -> int -> Sim.Value3.t

(** Is (good, faulty) a fault effect (both binary, different)? *)
val is_d : Sim.Value3.t -> Sim.Value3.t -> bool

(** Re-simulate frames [from..k-1] from the current pseudo-inputs
    (assignments are the only state; implication is re-evaluation).
    Event-driven: a frame's first evaluation sweeps every gate, later
    ones only the gates reachable from a changed PI, present-state or
    gate value; [good], [faulty] and [frontier] end exactly as a full
    sweep of every frame from [from] leaves them.  Each frame is charged
    [num_gates] work units either way. *)
val imply : ?from:int -> t -> unit

(** A D/D' sits on some primary output of some frame. *)
val detected : t -> bool

(** A D/D' reaches a next-state input of the last frame (a longer window
    might still detect the fault: exhaustion is then not a proof). *)
val d_escapes : t -> bool

(** D-frontier as (frame, gate) pairs, earliest frames first. *)
val d_frontier : t -> (int * int) list

type x_path = {
  reaches_po : bool;  (** the effect can still reach a PO in-window *)
  escapes : bool;     (** ... or leave through the last frame's next state *)
}

(** X-path analysis from the current D-frontier; both the classic PODEM
    prune and the soundness guard for redundancy claims. *)
val x_path : t -> x_path
