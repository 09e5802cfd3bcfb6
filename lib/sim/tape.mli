(** Flat levelized instruction tape compiled once from a netlist.

    The tape is the engine-grade representation of a circuit's
    combinational logic: one instruction per gate, in level-major order
    (all level-1 gates, then level-2, ...), held in dense int arrays —
    no node records, no variant dispatch, no fanin-array allocation on
    the evaluation path.  Every simulator sweep becomes a single linear
    walk over [op]/[fanin], which is what makes word-parallel fault
    simulation throughput-bound rather than pointer-chasing-bound.

    {b Levelization invariant}: for every slot [s], each fanin of
    [node_of_slot.(s)] is a PI, a DFF output, or a gate placed at a slot
    [< s] (its level is strictly smaller).  Within a level, slots keep
    the circuit's topological-order ([Netlist.Node.order]) sequence, and
    [topo_slot] lists the slots in exactly that original order for walks
    whose {e output ordering} (not values) must match a node-order
    traversal — e.g. D-frontier collection in the ATPG frames.

    The arrays are exposed read-only ([private]): treat them as
    immutable; the compiler is the only constructor. *)

type t = private {
  circuit : Netlist.Node.t;  (** the source netlist *)
  num_nodes : int;
  num_gates : int;           (** = number of slots *)
  op : int array;            (** slot -> opcode ({!op_buf} ... {!op_xnor}) *)
  node_of_slot : int array;  (** slot -> netlist node id *)
  slot_of_node : int array;  (** node id -> slot, [-1] for PI/DFF nodes *)
  fanin_base : int array;    (** slot -> first index into [fanin];
                                 length [num_gates + 1], so slot [s]'s
                                 fanins are [fanin.(fanin_base.(s)) ..
                                 fanin.(fanin_base.(s+1) - 1)] *)
  fanin : int array;         (** flattened fanin node ids *)
  level_off : int array;     (** level [l]'s slots are
                                 [level_off.(l) .. level_off.(l+1) - 1];
                                 length [max gate level + 2].  Level 0 (the
                                 PI/DFF sources) holds no slots. *)
  topo_slot : int array;     (** slots in [Netlist.Node.order] sequence *)
  fanout_base : int array;   (** node id -> first index into [fanout];
                                 length [num_nodes + 1], so node [id]'s
                                 consumers are [fanout.(fanout_base.(id))
                                 .. fanout.(fanout_base.(id+1) - 1)] *)
  fanout : int array;        (** flattened consumer slots: for each node,
                                 the slots reading it, ascending, once
                                 per pin (the transpose of [fanin]; what
                                 an event-driven evaluator marks dirty
                                 when the node's value changes) *)
  pis : int array;           (** PI index -> node id *)
  pos : int array;           (** PO index -> driving node id *)
  dffs : int array;          (** DFF index -> node id *)
  dff_data : int array;      (** DFF index -> data-source node id *)
  dff_init : bool array;     (** DFF index -> power-up value *)
}

(** Opcodes, contiguous so the evaluator's dispatch is a jump table. *)

val op_buf : int
val op_not : int
val op_and : int
val op_nand : int
val op_or : int
val op_nor : int
val op_xor : int
val op_xnor : int

val op_of_fn : Netlist.Node.gate_fn -> int
val fn_of_op : int -> Netlist.Node.gate_fn

(** Compile the tape.  O(nodes + edges); the result is immutable and can
    back any number of simulator instances over the same circuit. *)
val compile : Netlist.Node.t -> t

(** [eval_words tp ~values ~f0 ~f1] sweeps the tape once over the
    word-per-node state [values] (each bit an independent simulation
    lane): for every slot, in levelized order, the gate's word is
    computed from its fanins' words and stored as
    [(w land lnot f0.(id)) lor f1.(id)] — [f0]/[f1] are the per-node
    stuck-at-0/1 lane masks ({!Parallel}'s stem faults; all-zero arrays
    for fault-free evaluation).  The three arrays must have length
    [>= num_nodes].  PI and DFF words are inputs and are not touched. *)
val eval_words :
  t -> values:int array -> f0:int array -> f1:int array -> unit
