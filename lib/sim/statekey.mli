(** Overflow-safe packed state keys.

    A state key identifies a DFF state vector (or any bit vector) as a
    plain [string], 8 bits per byte, little-endian within each byte, so
    it stays exact for any number of state bits — unlike the historical
    [int] codes, whose [1 lsl i] packing silently aliased distinct
    states once a circuit had more than 62 DFFs (OCaml ints are 63-bit;
    shifts beyond that are unspecified).  Keys from vectors of the same
    length compare with the structural [compare]/[(=)] and hash with
    [Hashtbl.hash], so they drop into the int codes' old roles (hash
    keys, visit sets, directories) unchanged. *)

type t = string

(** Pack a bit vector; bit [i] of the vector is bit [i land 7] of byte
    [i lsr 3]. *)
val of_bools : bool array -> t

(** Pack bit [lane] of each word: [of_lane_words words ~lane] is
    [of_bools] of the boolean vector [(words.(i) lsr lane) land 1].
    Used on {!Parallel.get_state_words} to key the lane-0 (or any
    lane's) DFF state. *)
val of_lane_words : int array -> lane:int -> t

(** Bit [i] of the key; [false] beyond the packed length. *)
val bit : t -> int -> bool

(** Number of bits the key can hold (8 × byte length). *)
val capacity : t -> int

(** Printable round-trip codec (lowercase hex, two digits per byte) for
    embedding keys in JSON records. *)
val to_hex : t -> string

(** @raise Invalid_argument on a string [to_hex] cannot have produced. *)
val of_hex : string -> t
