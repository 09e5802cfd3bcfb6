(** Structural statistics and cone-traversal helpers. *)

type t = {
  pis : int;
  pos : int;
  dffs : int;
  gates : int;
  by_fn : (Node.gate_fn * int) list;  (** gate histogram *)
  max_fanin : int;
  max_fanout : int;
  levels : int;                        (** combinational depth in gates *)
  area : float;
  delay : float;
}

val of_circuit : Node.t -> t
val pp : Format.formatter -> t -> unit

(** Nodes combinationally reachable from a node (through gates, stopping
    at DFF data inputs); reached DFFs are included. *)
val comb_fanout_cone : Node.t -> int -> int list
