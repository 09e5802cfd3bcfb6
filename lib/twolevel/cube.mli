(** Positional-cube representation over up to {!max_vars} binary
    variables: each variable owns two bits of a machine word — bit [2i]
    set admits variable [i] = 0, bit [2i+1] set admits 1.  So 11 = don't
    care, 01 = negative literal, 10 = positive literal, 00 = empty. *)

type t = int

val max_vars : int

(** The universal cube (all don't cares) over [n] variables.
    @raise Invalid_argument when [n] is out of range. *)
val full : int -> t

val lit_dc : int
val lit_pos : int
val lit_neg : int

(** Two-bit literal field of variable [i] (one of the [lit_*] values). *)
val get_lit : t -> int -> int

val set_lit : t -> int -> int -> t

(** Cube from (care, value) bit masks. *)
val of_masks : int -> care:int -> value:int -> t

val intersect : t -> t -> t
val is_empty : int -> t -> bool
val intersects : int -> t -> t -> bool

(** [contains a b]: cube [a] covers cube [b]. *)
val contains : t -> t -> bool

(** Smallest cube covering both. *)
val supercube : t -> t -> t

val num_literals : int -> t -> int

(** Bit [2i] set iff field [i] of the cube is a literal (01 or 10). *)
val literal_mask : int -> t -> int

(** Bit [2i+1] set iff field [i] is a positive literal (10), bit [2i] iff
    it is a negative literal (01). *)
val polarity_bits : int -> t -> int

(** Does the minterm (bit mask) lie inside the cube? *)
val member : int -> t -> int -> bool

(** Cube cofactor; [None] when disjoint. *)
val cofactor : int -> t -> t -> t option

(** e.g. ["01-1"]; ['!'] marks an empty field. *)
val to_string : int -> t -> string

val of_string : string -> t
val pp : int -> Format.formatter -> t -> unit
