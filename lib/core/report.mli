(** Whole-study driver: run every experiment, print every table and the
    figure, and evaluate the paper's qualitative claims. *)

(** Print Tables 1-8 and Figure 3 (computing everything, memoized). *)
val run_all : Format.formatter -> unit -> unit

(** The shape criteria the reproduction must satisfy, as
    (claim, holds) pairs — also asserted by the test suite. *)
val shape_checks : unit -> (string * bool) list

val pp_shape_checks : Format.formatter -> unit -> unit

(** Every table the CLI and the daemon print, by name: ["1"]–["8"],
    ["fig3"], ["shape"] (the shape checks) and ["all"] ({!run_all} then
    the shape checks). *)
val tables : (string * (Format.formatter -> unit)) list
