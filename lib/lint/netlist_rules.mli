(** Netlist lint rules.  Rule catalogue:

    - [NET001] (Error): combinational cycle, proved by DFS — [order] is
      not trusted.
    - [NET002] (Error): structural defect ({!Netlist.Check} wrapped).
    - [NET003] (Warning): dead logic — fanout-free node driving no PO.
    - [NET004] (Warning): unobservable logic — no structural path to a PO.
    - [NET005] (Warning): constant-provable node (ternary propagation).
    - [NET006] (Info): statically untestable fault — an
      {!Analysis.Untest} verdict with structural or ternary evidence
      (machine-readable [proof] payload: cause + ["static"] source).
    - [NET007] (Info): hard-to-test fanout-free region (SCOAP-scored).
    - [NET008] (Warning): {e proved} sequentially redundant fault — an
      {!Analysis.Untest} verdict with symbolic evidence; the [proof]
      payload carries the cause, ["symbolic"] source and the BDD budget.

    NET003..NET008 trust [order] and must only run after NET001/NET002
    pass ({!Report} stages this). *)

val combinational_cycles : Netlist.Node.t -> Diag.t list
val structure : Netlist.Node.t -> Diag.t list
val dead_logic : Netlist.Node.t -> Diag.t list

(** [structural_obs] from {!Analysis.Untest.structurally_observable}. *)
val unobservable : Netlist.Node.t -> structural_obs:bool array -> Diag.t list

(** [values] from {!Analysis.Fixpoint.constants}. *)
val constants : Netlist.Node.t -> Sim.Value3.t array -> Diag.t list

(** NET006/NET008: one diagnostic per proved fault of the classification,
    NET008 when the proof's evidence is symbolic.  The NET008 payload
    quotes the default BDD budget, so [t] must come from a run at that
    budget. *)
val untestable : Netlist.Node.t -> Analysis.Untest.t -> Diag.t list

val hard_ffrs : ?top:int -> Netlist.Node.t -> Scoap.t -> Diag.t list
