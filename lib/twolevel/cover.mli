(** A cover is a set of cubes over [n] variables, read as their union
    (sum of products).  Tautology and complement use the classic unate
    recursive paradigm (most-binate branching variable, single-cube
    DeMorgan base case). *)

type t = { n : int; cubes : Cube.t list }

(** Build a cover, dropping empty cubes. *)
val make : int -> Cube.t list -> t

val empty : int -> t
val full : int -> t
val is_empty : t -> bool
val size : t -> int

(** Total specified literals. *)
val literals : t -> int

(** @raise Invalid_argument on width mismatch. *)
val union : t -> t -> t

(** Evaluate at a minterm (bit mask). *)
val eval : t -> int -> bool

val has_full : t -> bool

(** Cofactor of every cube with respect to a cube. *)
val cofactor : t -> Cube.t -> t

(** (positive, negative) literal occurrence counts per variable. *)
val literal_counts : t -> int array * int array

(** Most binate variable, or [None] when no cube has a literal. *)
val branch_var : t -> int option

(** {!branch_var} when the cover is binate in some variable, [None] when
    it is unate. *)
val binate_var : t -> int option

val pos_cube : int -> int -> Cube.t
val neg_cube : int -> int -> Cube.t

(** Is the cover the constant-1 function? *)
val tautology : t -> bool

(** Disjoint-sharp complement of one cube. *)
val complement_cube : int -> Cube.t -> Cube.t list

val complement : t -> t

(** Does the cover contain the cube (cofactor tautology)? *)
val covers_cube : t -> Cube.t -> bool

(** Drop cubes single-cube-contained in another. *)
val drop_contained : t -> t

val pp : Format.formatter -> t -> unit
