(** Bit-parallel two-valued simulator: every node holds a machine word
    whose bits are independent simulation lanes.  Lanes share the input
    vector but may carry different injected stuck-at faults — and hence
    different DFF state — which makes this the PROOFS-style parallel-fault
    engine's core.  Also used (with per-lane inputs) to enumerate input
    spaces during reachability analysis. *)

type t

(** Usable lanes per word. *)
val word_bits : int

(** Combinational-sweep implementation.  [`Tape] (the default) runs on
    the flat levelized instruction tape ({!Tape}); [`Nodes] is the
    original node-record walk, kept bit-identical as the reference for
    differential tests and as the pre-tape baseline of [bench fsim]. *)
type backend = [ `Tape | `Nodes ]

val create : ?backend:backend -> Netlist.Node.t -> t

(** Build a simulator over an already-compiled tape — lets callers that
    create many simulator instances for one circuit (e.g. the fault
    simulator's per-batch sims) compile the tape once and share it. *)
val create_on : ?backend:backend -> Tape.t -> t

val circuit : t -> Netlist.Node.t
val tape : t -> Tape.t

(** Force the output of [node] to [value] in [lane], every cycle.
    @raise Invalid_argument if [lane] is outside [0 .. word_bits - 1]
    (a wider shift would silently alias another lane). *)
val inject_stem : t -> node:int -> lane:int -> value:bool -> unit

(** Force input [pin] of [gate] to [value] in [lane].
    @raise Invalid_argument if [lane] is outside [0 .. word_bits - 1]. *)
val inject_pin : t -> gate:int -> pin:int -> lane:int -> value:bool -> unit

(** Load the power-up state into every lane. *)
val reset : t -> unit

(** Load per-lane DFF state words (one word per DFF, state order). *)
val set_state_words : t -> int array -> unit

val get_state_words : t -> int array

(** Broadcast one input vector to all lanes. *)
val set_input_broadcast : t -> bool array -> unit

(** Per-lane inputs: bit [l] of [words.(i)] is PI [i] in lane [l]. *)
val set_input_words : t -> int array -> unit

(** Evaluate combinational logic and capture DFF data. *)
val eval_comb : t -> unit

(** Clock edge. *)
val tick : t -> unit

val output_words : t -> int array
val node_word : t -> int -> int

(** One full cycle with broadcast inputs; PO words before the tick. *)
val step_broadcast : t -> bool array -> int array
