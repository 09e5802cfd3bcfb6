(** Gate-level sequential netlist — the circuit representation shared by
    synthesis, retiming, simulation, fault simulation, ATPG and analysis.

    A circuit is a dense array of nodes.  Combinational evaluation flows
    from the sources (primary inputs and DFF outputs) to the sinks (DFF
    data inputs and primary outputs); [order] lists the gates in a valid
    topological order.  Circuits are immutable once finalized by
    {!Build.finalize}. *)

(** Gate functions.  [And]/[Or]/[Nand]/[Nor] accept any arity >= 1,
    [Not]/[Buf] exactly 1, [Xor]/[Xnor] exactly 2. *)
type gate_fn = And | Or | Nand | Nor | Not | Buf | Xor | Xnor

type kind =
  | Pi of int              (** primary input, with its input-vector index *)
  | Dff of { init : bool } (** edge-triggered D flip-flop; power-up value *)
  | Gate of gate_fn

type node = {
  id : int;
  name : string;            (** unique within the circuit *)
  kind : kind;
  fanins : int array;       (** node ids; a DFF's single fanin is its data *)
}

type t = {
  nodes : node array;
  pis : int array;              (** node ids, in input-vector order *)
  pos : (string * int) array;   (** (output name, driving node id) *)
  dffs : int array;             (** node ids of DFFs, state-vector order *)
  fanouts : int array array;    (** per node: ids of reading nodes *)
  order : int array;            (** gate ids in combinational topo order *)
  level : int array;            (** per node: combinational level; sources 0 *)
  name_index : (string, int) Hashtbl.t Lazy.t;
  (** name -> id, built lazily on first {!find_by_name} *)
}

(** Assemble a circuit record (the only way to obtain a consistent
    [name_index]); {!Build.finalize} and hand-built test fixtures both go
    through here. *)
val make :
  nodes:node array -> pis:int array -> pos:(string * int) array ->
  dffs:int array -> fanouts:int array array -> order:int array ->
  level:int array -> t

(** Printable name of a gate function (e.g. ["NAND"]). *)
val gate_fn_name : gate_fn -> string

(** [arity_ok fn n] is [true] when an [fn]-gate may have [n] inputs. *)
val arity_ok : gate_fn -> int -> bool

val num_nodes : t -> int
val num_pis : t -> int
val num_pos : t -> int
val num_dffs : t -> int
val num_gates : t -> int

(** [node c id] is the node record for [id]. *)
val node : t -> int -> node

(** Power-up value of a DFF node.
    @raise Invalid_argument if the node is not a DFF. *)
val dff_init : t -> int -> bool

(** Name lookup through a lazily-built hash index (amortized O(1)).
    @raise Not_found when absent. *)
val find_by_name : t -> string -> int

(** Default per-cell delay model (loosely shaped after mcnc.genlib):
    [gate_delay fn arity] in arbitrary time units. *)
val gate_delay : gate_fn -> int -> float

(** Default per-cell area model. *)
val gate_area : gate_fn -> int -> float

val dff_area : float

(** Longest combinational path under the default delay model, from any
    PI/DFF output to any PO/DFF input — the circuit's clock period. *)
val critical_path : t -> float

(** Total cell area (gates + DFFs) under the default area model. *)
val area : t -> float

(** One-line summary: IO/DFF/gate counts, area, delay. *)
val pp_summary : Format.formatter -> t -> unit
