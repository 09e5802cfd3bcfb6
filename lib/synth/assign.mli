(** State assignment in the spirit of jedi: build an affinity graph over
    states, then embed the states into a minimum-width hypercube so that
    strongly related states receive codes at small Hamming distance
    (greedy seeding + pairwise-swap local search, deterministic). *)

type algorithm =
  | Input_dominant   (** fan-in related states attract (jedi "ji") *)
  | Output_dominant  (** common successors / similar outputs ("jo") *)
  | Combined         (** sum of both ("jc") *)

(** Every algorithm under its circuit-name field, in the order
    ji, jo, jc — the one list the CLI flags and the daemon's request
    decoder both read. *)
val algorithms : (string * algorithm) list

(** The circuit-name field: "ji", "jo" or "jc". *)
val algorithm_tag : algorithm -> string

(** Minimum code width for [n] states (at least 1). *)
val bits_needed : int -> int

val popcount : int -> int

(** Pairwise affinity matrix of a machine under an algorithm. *)
val weights : algorithm -> Fsm.Machine.t -> int array array

(** Total weighted Hamming cost of an embedding. *)
val cost : int array array -> int array -> int

(** [(codes, bits)]: one distinct code per state; the reset state always
    receives code 0 (which doubles as the circuits' power-up state). *)
val assign : ?seed:int -> algorithm -> Fsm.Machine.t -> int array * int
