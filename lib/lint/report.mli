(** Lint driver: stages the rules (value analyses only run when the
    error-level rules pass), assembles summaries, renders text/JSON, and
    provides the post-transform gate used by the synthesis and retiming
    flows. *)

type netlist_summary = {
  diags : Diag.t list;          (** sorted, most severe first *)
  total_faults : int;           (** size of the collapsed fault list *)
  untestable : int;             (** NET006 count: proved without BDDs *)
  invariant_untestable : int;
  (** untestable count over the gate/PI-site full fault universe — the
      retiming-invariant Theorem-1 metric *)
  seq_redundant : int option;
  (** NET008 proved count; [None] when the symbolic stages were off or
      ran out of BDD nodes *)
  scoap : Scoap.t option;       (** [None] when error-level rules fired *)
}

(** Run all netlist rules.  [ffr_top] bounds the NET007 diagnostics.
    NET006/NET008 render {!Analysis.Untest.classify} on the collapsed
    fault list at the default BDD budget; [symbolic:false] skips its
    BDD stages, and with them NET008. *)
val lint_netlist :
  ?ffr_top:int -> symbolic:bool -> Netlist.Node.t -> netlist_summary

(** Run all FSM rules, sorted. *)
val lint_fsm : Fsm.Machine.t -> Diag.t list

(** Error-level rules only (cycles + structure); raises [Failure] naming
    [what] and every firing rule.  The post-transform flow gate. *)
val assert_clean : what:string -> Netlist.Node.t -> unit

val pp_counts : Format.formatter -> Diag.t list -> unit
val pp_netlist : Format.formatter -> string * netlist_summary -> unit
val pp_fsm : Format.formatter -> string * Diag.t list -> unit

(** JSON document for one netlist; [include_scoap] embeds per-node SCOAP
    scores. *)
val netlist_to_json :
  ?include_scoap:bool -> name:string -> Netlist.Node.t -> netlist_summary ->
  Obs.Json.t

val fsm_to_json : name:string -> Diag.t list -> Obs.Json.t
