(** SCOAP testability metrics (Goldstein 1979): combinational and
    sequential controllability/observability per netlist node, computed by
    fixpoint sweeps over the register boundary.

    The netlist's registers have known power-up values, so controlling a
    register to its init value is free of input assignments; this makes
    the scores finite everywhere the logic is actually exercisable and
    leaves unattainable goals saturated at {!unreachable}. *)

(** Saturation value for unattainable goals (safe to add without
    overflow). *)
val unreachable : int

type t = {
  cc0 : int array;  (** combinational 0-controllability, per node *)
  cc1 : int array;  (** combinational 1-controllability *)
  sc0 : int array;  (** sequential 0-controllability (time frames) *)
  sc1 : int array;  (** sequential 1-controllability *)
  co : int array;   (** combinational observability *)
  so : int array;   (** sequential observability *)
}

val compute : Netlist.Node.t -> t

(** Detection cost of the harder output stuck-at fault at a node:
    [max (cc1 + co) (cc0 + co)], saturating. *)
val testability : t -> int -> int

(** [(cc0, cc1)] — the per-node cost arrays the ATPG backtrace consumes
    as its input-selection heuristic. *)
val controllability : t -> int array * int array
