(** FSM lint rules.  Rule catalogue:

    - [FSM001] (Warning): state unreachable from reset.
    - [FSM002] (Warning): dead (trap) state — no transition leaves it.
    - [FSM003] (Error): nondeterministic overlapping transitions.
    - [FSM004] (Info): incompletely specified (state, input) pairs,
      aggregated into one diagnostic. *)

val unreachable_states : Fsm.Machine.t -> Diag.t list
val dead_states : Fsm.Machine.t -> Diag.t list
val nondeterministic : Fsm.Machine.t -> Diag.t list
val incompletely_specified : Fsm.Machine.t -> Diag.t list

(** All FSM rules. *)
val lint : Fsm.Machine.t -> Diag.t list
