(** Generic register-widening dataflow engine over cycle-free netlists.

    One shared implementation of the "evaluate combinationally, join each
    register's next-state value into its running abstraction, repeat to
    fixpoint" loop used by ternary constant propagation
    (lint's NET005 and {!Untest}'s excitation stage) and by {!Untest}'s
    fault effect-cone analysis.

    Requires a cycle-free circuit ([order] is trusted); callers run it
    only after the structural lint rules pass. *)

(** [run ~equal ~join ~default ~pi ~dff_seed ~gate c] computes, per node,
    the least fixpoint abstraction of every value the node can take in
    any reachable cycle.

    - [equal]/[join]: the join-semilattice.  [gate] must be monotone
      w.r.t. the order induced by [join].
    - [default]: bottom-of-sweep scratch value (any element; every node
      is assigned before it is read because [order] is topological).
    - [pi id]: abstraction of primary input [id] (typically top).
    - [dff_seed id]: power-up abstraction of DFF node [id].
    - [gate nd ins]: transfer function; [ins] are the fanin values in
      pin order.  Called only for [Gate] nodes.
    - [force id]: when [Some v], overrides node [id]'s value right after
      assignment in every sweep (fault injection hook).
    - [max_climbs]: height of the lattice above the seeds — the maximum
      number of strict climbs any register abstraction can make
      (default 1: ternary constants and boolean cones).  The sweep bound
      is [num_dffs * max_climbs + 2]. *)
val run :
  ?max_climbs:int ->
  ?force:(int -> 'a option) ->
  equal:('a -> 'a -> bool) ->
  join:('a -> 'a -> 'a) ->
  default:'a ->
  pi:(int -> 'a) ->
  dff_seed:(int -> 'a) ->
  gate:(Netlist.Node.node -> 'a array -> 'a) ->
  Netlist.Node.t ->
  'a array

(** Ternary join: [a ⊔ b] is [a] when equal, else [X]. *)
val join3 : Sim.Value3.t -> Sim.Value3.t -> Sim.Value3.t

(** Ternary constant propagation — per node, an over-approximation of
    every value it can take in any reachable cycle: PIs are [X],
    registers widen from their power-up values.  A [Zero]/[One] result
    is a proof of constancy.  Bit-identical to the historical
    in-place sweep loop (regression-tested). *)
val constants : Netlist.Node.t -> Sim.Value3.t array
