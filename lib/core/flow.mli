(** The study's circuit factory: synthesize each benchmark FSM under a
    jedi-algorithm / script combination, then retime it — producing the
    original/retimed pairs of the paper's Table 2.  Everything is
    memoized per process, since several tables consume the same pairs. *)

type pair = {
  name : string;                  (** e.g. ["s510.jo.sr"] *)
  fsm : Fsm.Benchmarks.entry;
  synth : Synth.Flow.result;
  original : Netlist.Node.t;
  retimed : Netlist.Node.t;
  original_period : float;
  retimed_period : float;
  prefix_length : int;            (** P of the P ∪ T equivalence prefix *)
}

(** The original or the retimed circuit of a pair, with its display name:
    the pair's name, plus [".re"] for the retimed one. *)
val circuit : pair -> retimed:bool -> string * Netlist.Node.t

(** Deepening period allowance used by the paper flow (see DESIGN.md §7). *)
val default_period_slack : float

(** The input vector holding reset asserted, for reset-line circuits. *)
val reset_prefix_input : Synth.Flow.result -> bool array option

(** Synthesize a benchmark FSM under one algorithm/script combination,
    without the retiming {!build} follows it with (uncached). *)
val synthesize :
  string -> Synth.Assign.algorithm -> Synth.Flow.script -> Synth.Flow.result

(** Build a pair from scratch (uncached). *)
val build :
  ?period_slack:float ->
  string -> Synth.Assign.algorithm -> Synth.Flow.script -> pair

(** Memoized {!build}. *)
val pair :
  ?period_slack:float ->
  string -> Synth.Assign.algorithm -> Synth.Flow.script -> pair

(** The sixteen (fsm, algorithm, script) combinations of Table 2, in the
    paper's row order. *)
val table2_selection :
  (string * Synth.Assign.algorithm * Synth.Flow.script) list

val table2_pairs : ?period_slack:float -> unit -> pair list

(** The five pairs used for the Attest confirmation (paper Table 3). *)
val confirmation_selection :
  (string * Synth.Assign.algorithm * Synth.Flow.script) list

val confirmation_pairs : ?period_slack:float -> unit -> pair list

(** Table 7 / Figure 3: s510.jo.sr plus four progressively deeper
    retimings; (name, circuit, period) per version. *)
val sensitivity_versions : unit -> (string * Netlist.Node.t * float) list
