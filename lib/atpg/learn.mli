(** Conflict-driven structural learning for the time-frame PODEM engines
    (ROADMAP item 3, after "Conflict-driven Structural Learning Towards
    Higher Coverage Rate in ATPG", arXiv 2303.02290).

    {b Phase A (propagation conflicts).}  When the search hits a dead end
    — the D-frontier died or no X-path reaches a primary output — the
    implication state recorded in the five-valued frame arrays is
    analyzed: walk the potential-D cone of the fault site across the
    whole window, stopping at every node whose good and faulty values are
    already determinate and equal.  Those boundary nodes are {e walls}:
    three-valued refinement is monotone, so a determinate node can never
    become a D later in the subtree, and the cone closure beyond the
    walls is purely structural.  If the closure reaches no primary
    output, the wall assignments form a sound blocking clause of
    [(line, relative frame, value)] literals: {e whenever} these lines
    carry these values, no refinement can detect a fault anchored at this
    site within the window.  Clauses are keyed by the anchor node of the
    fault site — shared by both stuck-at polarities and every
    equivalence-class member manifesting at that node — and literals are
    identified by the tape IR's [topo_slot], so learning composes with
    the PR 8 tape backend bit-identically when off.

    {b Phase B (justification refutations).}  A frame-backward
    justification search that fails {e completely} — no depth cutoff,
    probe cutoff, visited-table hit or budget abort anywhere in its
    subtree — is an unreachability proof for its requirement cube.  The
    search only ever examined the cube bits in its read set, so the
    restriction of the cube to that read set is an equally refuted,
    strictly more general clause: any future requirement that refines it
    is unjustifiable and is pruned without a search.  Good-machine
    justification is fault-independent, so this store is shared across
    all faults of the run.

    Every store consultation and conflict analysis is charged to the
    caller's {!Types.stats} work counter, so learn-on work units remain
    an honest, machine-independent account. *)

type t

(** One blocking-clause literal: a line (identified by its stable tape
    key), a relative time frame, and the determinate value both machines
    must carry for the clause to apply. *)
type literal = { key : int; frame : int; value : bool }

(** An empty store over the tape's circuit, keyed by the tape's stable
    line keys; one per ATPG run. *)
val create : Sim.Tape.t -> t

(** Stable per-line key: the tape [topo_slot] for gates, then primary
    inputs, then state (DFF) outputs.  Total over all node ids. *)
val key_of_node : t -> int -> int

(** The clause-store anchor of a fault: the node where good and faulty
    machines first diverge (stem node, or the faulted gate for pin
    faults). *)
val anchor : Fsim.Fault.t -> int

(** Analyze the current implication state of [fr] as a conflict for the
    fault anchored at [site]; on success the derived clause is stored
    (deduplicated, capped) and returned.  [None] when the potential-D
    cone still reaches a primary output, when the clause is too long to
    be worth keeping, or when it is already known. *)
val analyze :
  t -> site:int -> stats:Types.stats -> Frames.t -> literal array option

(** Consult the store before branching: does some learned clause of
    [site] match the current implication state of [fr] (every literal
    determinate-equal at its frame)?  A match proves the whole subtree
    fruitless. *)
val blocked : t -> site:int -> stats:Types.stats -> Frames.t -> bool

(** Record a failed justification cube.  [complete] marks a refutation
    whose subtree hit no cutoff of any kind; only those generalize:
    the cube restricted to [read] (the bit indices the failed search
    actually examined) is stored as a subset-matching clause. *)
val note_failed_cube :
  t ->
  complete:bool ->
  read:bool array ->
  stats:Types.stats ->
  Sim.Value3.t array ->
  unit

(** Was this exact cube signature already refuted?  Returns the recorded
    completeness of that refutation, or [None] if unknown. *)
val failed_exact : t -> string -> bool option

(** Does some stored generalized clause subsume [cube] (every literal of
    the clause constrained identically in [cube])?  A match refutes the
    cube without a search. *)
val cube_blocked : t -> stats:Types.stats -> Sim.Value3.t array -> bool

(** Cached justification prefix for an exact cube signature, if one was
    recorded by {!note_proven_prefix}. *)
val proven_prefix : t -> string -> Sim.Vectors.sequence option

val note_proven_prefix : t -> string -> Sim.Vectors.sequence -> unit

(** (stored phase-A clauses, stored literals, stored phase-B clauses) *)
val sizes : t -> int * int * int
