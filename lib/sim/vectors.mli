(** Input-vector helpers shared by fault simulation, ATPG and tests. *)

type vector = bool array

(** A test sequence, applied from the power-up state, one vector/cycle. *)
type sequence = vector list

val vector_to_string : vector -> string

(** @raise Invalid_argument on characters other than '0'/'1'. *)
val vector_of_string : string -> vector

val to_v3 : vector -> Value3.t array

val random_vector : Random.State.t -> int -> vector
val random_sequence : Random.State.t -> width:int -> length:int -> sequence

(** All [2^n] vectors (small [n] only). *)
val enumerate : int -> vector list

(** All [2^n] vectors packed into parallel-simulation words: list of
    (lane count, per-input word); lane [l] of chunk [k] encodes the vector
    with code [k * Parallel.word_bits + l]. *)
val enumerate_words : int -> (int * int array) list
