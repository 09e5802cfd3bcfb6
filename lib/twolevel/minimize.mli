(** Espresso-lite: the EXPAND / IRREDUNDANT / REDUCE iteration on
    single-output covers.

    Guarantees (property-tested against truth tables): the result covers
    the ON-set and stays inside ON ∪ DC; the cube count never exceeds the
    containment-pruned input. *)

type cost = { cubes : int; lits : int }

val cost : Cover.t -> cost
val better : cost -> cost -> bool

(** Raise literals of each cube to don't-care as long as the cube stays
    inside [care] (ON ∪ DC), i.e. disjoint from the OFF-set, which is never
    built; swallowed cubes are dropped. *)
val expand : Cover.t -> care:Cover.t -> Cover.t

(** Greedily delete cubes covered by the rest of the cover plus [dc]. *)
val irredundant : Cover.t -> dc:Cover.t -> Cover.t

(** Smallest cube containing the complement of the cover, or [None] when
    the cover is a tautology; never builds the complement. *)
val sccc : Cover.t -> Cube.t option

(** Shrink each cube to the smallest cube still covering what it alone
    covers (classic REDUCE), enabling the next EXPAND to escape local
    minima. *)
val reduce : Cover.t -> dc:Cover.t -> Cover.t

(** The main loop; iterates REDUCE/EXPAND/IRREDUNDANT from an initial
    EXPAND until the cost stops improving (or [max_iters]). *)
val espresso : ?max_iters:int -> on:Cover.t -> dc:Cover.t -> unit -> Cover.t

(** Truth-table equivalence on the care set; testing helper (<= 16 vars). *)
val equivalent_on_care : on:Cover.t -> dc:Cover.t -> Cover.t -> bool
