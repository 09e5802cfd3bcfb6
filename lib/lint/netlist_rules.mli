(** Netlist lint rules.  Rule catalogue:

    - [NET001] (Error): combinational cycle, proved by DFS — [order] is
      not trusted.
    - [NET002] (Error): structural defect ({!Netlist.Check} wrapped).
    - [NET003] (Warning): dead logic — fanout-free node driving no PO.
    - [NET004] (Warning): unobservable logic — no structural path to a PO.
    - [NET005] (Warning): constant-provable node (ternary propagation).
    - [NET006] (Info): statically untestable fault, with its proof cause
      (machine-readable [proof] payload: cause + ["static"] source).
    - [NET007] (Info): hard-to-test fanout-free region (SCOAP-scored).
    - [NET008] (Warning): {e proved} sequentially redundant fault —
      activation needs a line value no reachable state can produce, per a
      caller-supplied symbolic-reachability oracle; the [proof] payload
      carries the cause, ["symbolic"] source and the BDD budget (Error on
      oracle / static-implication disagreement, which should never
      fire).

    NET003..NET008 trust [order] and must only run after NET001/NET002
    pass ({!Report} stages this). *)

val rule_cycle : string
val rule_structure : string
val rule_dead : string
val rule_unobservable : string
val rule_constant : string
val rule_untestable : string
val rule_hard_ffr : string
val rule_seq_redundant : string

val combinational_cycles : Netlist.Node.t -> Diag.t list
val structure : Netlist.Node.t -> Diag.t list
val dead_logic : Netlist.Node.t -> Diag.t list

(** Per-node: can the output reach some PO structurally (registers
    transparent)?  Invariant under retiming. *)
val structurally_observable : Netlist.Node.t -> bool array

(** Like {!structurally_observable} but propagation through a gate is
    blocked when a sibling input is proved constant at the controlling
    value ([values] from {!Constants.values}). *)
val fault_observable : Netlist.Node.t -> Sim.Value3.t array -> bool array

val unobservable : Netlist.Node.t -> structural_obs:bool array -> Diag.t list
val constants : Netlist.Node.t -> Sim.Value3.t array -> Diag.t list

type cause = Unexcitable | Unpropagatable

val cause_to_string : cause -> string

(** Machine-readable cause tag: ["unexcitable"]/["unpropagatable"]. *)
val cause_slug : cause -> string

(** Static untestability proof for one fault, or [None]. [obs] must come
    from {!fault_observable}. *)
val fault_cause :
  Netlist.Node.t -> Sim.Value3.t array -> bool array -> Fsim.Fault.t ->
  cause option

(** [(total collapsed faults, proved untestable ones with causes)]. *)
val untestable_faults :
  Netlist.Node.t -> Sim.Value3.t array -> bool array ->
  int * (Fsim.Fault.t * cause) list

val untestable_diags :
  Netlist.Node.t -> (Fsim.Fault.t * cause) list -> Diag.t list

(** Statically-untestable count over the full fault universe restricted
    to gate/PI sites — the retiming-invariant metric asserted by the
    Theorem-1 property test (register sites are excluded because the
    register count legitimately changes under retiming). *)
val invariant_untestable_count :
  Netlist.Node.t -> Sim.Value3.t array -> bool array -> int

val hard_ffrs : ?top:int -> Netlist.Node.t -> Scoap.t -> Diag.t list

(** The node whose output line a fault sits on (the stem, or the pin's
    driving fanin). *)
val fault_source : Netlist.Node.t -> Fsim.Fault.t -> int

(** The symbolic-reachability oracle behind NET008, with the exploration
    metadata quoted in each diagnostic's proof payload. *)
type oracle = {
  can_take : int -> bool -> bool;
    (** can this line take this value in some reachable state? *)
  max_nodes : int;  (** BDD node budget of the exploration *)
  bdd_nodes : int;  (** size of the reached-set BDD *)
}

(** The oracle over the proved-reachable states of a circuit
    ({!Analysis.Symreach.explore} at its default budget); [None] when the
    BDD budget runs out or the circuit is rejected, so lint degrades to
    skipping NET008 instead of failing. *)
val reach_oracle : Netlist.Node.t -> oracle option

(** [seq_redundant_faults c ~can_take proved] classifies the collapsed
    fault list against a reachability oracle: [can_take src v] answers
    whether line [src] can take value [v] in some reachable state under
    some input (e.g. [Analysis.Symreach.can_take]).  Returns
    [(candidates, inconsistencies)] — faults the oracle proves
    sequentially redundant (minus those [proved] already covers
    statically), and statically-Unexcitable faults the oracle wrongly
    claims activatable (the Theorem-1 cross-check; must be empty). *)
val seq_redundant_faults :
  Netlist.Node.t -> can_take:(int -> bool -> bool) ->
  (Fsim.Fault.t * cause) list -> Fsim.Fault.t list * Fsim.Fault.t list

val seq_redundant_diags :
  Netlist.Node.t -> oracle:oracle ->
  Fsim.Fault.t list * Fsim.Fault.t list -> Diag.t list
