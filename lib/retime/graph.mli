(** Retiming graph (Leiserson–Saxe): vertices are the combinational gates
    plus a host vertex standing for the environment (all PIs and POs);
    each edge carries the number of registers on that connection.

    Edges remember their physical source node so the retimed circuit can
    be materialized with per-source register-chain sharing.  Constant
    generators (self-looped DFFs modelling constants) are pinned to lag 0
    like the host. *)

type edge = {
  src_node : int;   (** netlist id: gate output, PI, or constant DFF *)
  weight : int;     (** registers along the connection *)
  dst_node : int;   (** reading gate id, or -1 for a primary output *)
  dst_pin : int;
  po_index : int;   (** PO index when [dst_node = -1], else -1 *)
  src_vertex : int; (** dense vertex of a gate source; -1 for PIs and
                        constants (lag pinned to 0) *)
  dst_vertex : int; (** dense vertex of the reading gate; -1 for a PO *)
}

type t = {
  circuit : Netlist.Node.t;
  gates : int array;            (** gate node ids, dense vertex order *)
  vertex_of_gate : int array;   (** node id -> dense vertex index, or -1 *)
  edges : edge array;
  delays : float array;         (** per dense vertex *)
  fanout_edges : int array array;
  (** node id -> indices into [edges] of the edges it sources *)
  fanin_edges : int array array;
  (** dense vertex -> indices into [edges] of the edges it reads *)
  registers_to_po : int array;
  (** dense vertex -> fewest registers on any path from it to a PO
      (original weights), [max_int] when no PO is reachable *)
}

val num_gates : t -> int

(** Flags the self-looped constant-generator DFFs of a circuit. *)
val const_dffs : Netlist.Node.t -> bool array

(** Walk a fanin back through its DFF chain: (source node, registers). *)
val trace_back : Netlist.Node.t -> bool array -> int -> int * int

val of_netlist : Netlist.Node.t -> t

(** w_r(e) = w(e) + r(dst) - r(src); the host and constants have lag 0. *)
val retimed_weight : t -> int array -> edge -> int

(** All retimed weights non-negative. *)
val legal : t -> int array -> bool

(** Register count after materialization with per-source chain sharing. *)
val total_registers_shared : t -> int array -> int
