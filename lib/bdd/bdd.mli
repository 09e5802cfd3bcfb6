(** Reduced ordered binary decision diagrams (ROBDDs), from scratch on the
    stdlib only.

    Nodes live in a hash-consed unique table inside a manager; a BDD is an
    {e edge} — an integer packing a node index with a complement bit.
    Negation is represented by complement edges (the alternative, canonical
    negative cofactors, was rejected because complement edges make [not_]
    O(1) and halve the node count of self-dual functions).  Canonical form:
    the then-edge of every stored node is regular (never complemented), so
    two edges denote the same function iff they are equal integers.

    Variables are dense non-negative integers ordered by value: smaller
    indices sit closer to the root.  The manager never garbage-collects —
    allocation is monotone and [num_nodes] is also the high-water mark —
    which fits the one-manager-per-analysis usage of {!Analysis.Symreach}. *)

type man

(** A BDD edge.  Only meaningful together with the manager that created
    it; edges from one manager must never be mixed with another's. *)
type t = private int

(** Raised by node-creating operations when the manager's [max_nodes]
    budget is exhausted (the caller recovers by falling back to explicit
    enumeration or reporting the blow-up). *)
exception Node_limit

(** [create ?max_nodes ()] makes an empty manager.  [max_nodes] bounds
    unique-table growth (default [10_000_000]). *)
val create : ?max_nodes:int -> unit -> man

val one : t
val zero : t

(** Structural (= semantic, by canonicity) equality; plain [(=)]. *)
val equal : t -> t -> bool

val is_false : t -> bool

(** The literal for variable [v] ([v >= 0]). *)
val var : man -> int -> t

(** O(1): flips the complement bit. *)
val not_ : t -> t

(** If-then-else, the universal connective; memoized. *)
val ite : man -> t -> t -> t -> t

val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor_ : man -> t -> t -> t
val xnor_ : man -> t -> t -> t

(** Cofactor: [restrict m f ~var ~value] is f with [var] fixed. *)
val restrict : man -> t -> var:int -> value:bool -> t

(** Functional composition [f[var := g]]. *)
val compose : man -> t -> var:int -> t -> t

(** [exists m pred f] existentially quantifies every variable [v] with
    [pred v] out of [f]. *)
val exists : man -> (int -> bool) -> t -> t

(** [and_exists m pred f g] is [exists m pred (and_ m f g)] computed in
    one memoized pass — the relational-product kernel of image
    computation. *)
val and_exists : man -> (int -> bool) -> t -> t -> t

(** [rename m map f] substitutes variable [map v] for every support
    variable [v].  [map] must preserve the variable order on the support
    (checked during the rebuild).
    @raise Invalid_argument when the order check fails. *)
val rename : man -> (int -> int) -> t -> t

(** Evaluate under an assignment (queried only on support variables). *)
val eval : man -> t -> (int -> bool) -> bool

(** Support variables, ascending. *)
val support : man -> t -> int list

(** Internal (non-terminal) nodes reachable from an edge; [size one = 0]. *)
val size : man -> t -> int

(** Internal nodes allocated by the manager so far (also the peak — there
    is no garbage collection). *)
val num_nodes : man -> int

(** Number of satisfying assignments over variables [0..nvars-1] as a
    float — exact up to [2^53], merely rounded (never overflowing) beyond,
    so counts past the 62-bit integer range stay usable.
    @raise Invalid_argument if the support reaches beyond [nvars]. *)
val sat_count : man -> nvars:int -> t -> float

(** Exact integer satisfying-assignment count, or [None] when [nvars] is
    large enough that the count could overflow a 63-bit integer.
    @raise Invalid_argument if the support reaches beyond [nvars]. *)
val sat_count_int : man -> nvars:int -> t -> int option

type stats = {
  nodes : int;           (** internal nodes allocated *)
  unique_load : float;   (** unique-table bindings per bucket *)
  cache_lookups : int;   (** ite-cache probes *)
  cache_hits : int;
}

val stats : man -> stats
