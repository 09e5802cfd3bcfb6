(** Memoization of the expensive analyses, keyed by {e content}: the
    canonical structural hash of the circuit ({!Netlist.Structhash})
    joined with a fingerprint of the configuration the computation reads
    ({!Store.Key}).  The [~name] argument is display-only metadata — it
    never enters a key, so structurally different circuits submitted
    under one name cannot alias.

    With [SATPG_STORE=dir] set ({!Store.Disk}), results also persist
    across processes: a warm rerun serves every lookup from disk. *)

type atpg_kind =
  | Hitec   (** PODEM + justification, no learning *)
  | Attest  (** simulation-based directed search *)
  | Sest    (** PODEM + dynamic state learning *)

(** Every engine under its name, in the order hitec, attest, sest — the
    one list the CLI's [-e] flag and the daemon's [config.engine] read. *)
val atpg_kinds : (string * atpg_kind) list

val atpg_kind_name : atpg_kind -> string

(** {1 Cache observability}

    Every lookup increments [core.cache.hits]/[core.cache.misses] in
    {!Obs.Metrics.global}; the disk layer adds
    [core.cache.disk_hits]/[disk_misses]/[disk_writes]/[disk_errors]
    (the last counts corrupt or stale records that were recomputed
    over).  Paths that knowingly sidestep the cache record a bypass.
    {!last_outcome} reports the most recent outcome for one-line CLI
    reporting. *)

type outcome = Hit | Disk_hit | Miss | Bypassed

val outcome_string : outcome -> string

(** Record that a caller deliberately computed outside the cache. *)
val note_bypass : unit -> unit

val last_outcome : unit -> outcome

(** One-line counter summary, e.g. for end-of-run reporting:
    ["cache: 12 memory hits, 3 disk hits, ..."]. *)
val pp_summary : Format.formatter -> unit -> unit

(** Drop the per-process memory layer (disk records stay). *)
val reset_memory : unit -> unit

(** {1 Fault classification} *)

(** Which fault set {!classify} runs on. *)
type classify_universe =
  | Collapsed  (** the engines' collapsed list ({!Fsim.Collapse.list}) *)
  | Invariant
      (** the gate/PI-site Theorem-1 universe
          ({!Analysis.Untest.invariant_faults}) *)

val universe_name : classify_universe -> string

(** The configuration fingerprint {!classify} keys its records by — the
    [config_fp] that CLI and daemon classify runs report. *)
val classify_fingerprint :
  symbolic:bool -> product:bool -> classify_universe -> string

(** The store key of a {!classify} record ({!Store.Disk.Classify}). *)
val classify_key :
  symbolic:bool -> product:bool -> classify_universe -> circuit_hash:string ->
  string

(** Run (or recall) the static untestability classifier
    ({!Analysis.Untest.classify}, default BDD budget).  [product]
    additionally runs the exact product-machine stage.  The cache key
    carries [symbolic], [product], the budget, the universe and the
    classifier version. *)
val classify :
  ?symbolic:bool ->
  ?product:bool ->
  ?universe:classify_universe ->
  name:string ->
  Netlist.Node.t ->
  Analysis.Untest.t

(** The ATPG configuration recipe every entry point shares: the engine's
    base config (SEST adds state learning), its budgets scaled by
    [budget] when given and by [SATPG_BUDGET] otherwise, and structural
    learning from [learn] when given and from [SATPG_LEARN] otherwise —
    except on attest, a simulation-based engine, whose flag is always off.
    Its {!Store.Key.config_fingerprint} is the [config_fp] that CLI and
    daemon ATPG runs report.
    @raise Invalid_argument on a non-positive or non-finite budget. *)
val atpg_config :
  atpg_kind -> budget:float option -> learn:bool option -> Atpg.Types.config

(** The store key of an {!atpg} record ({!Store.Disk.Atpg}); a
    [prove_untestable] run folds in the fingerprint of the classification
    it prunes against. *)
val atpg_key :
  prove_untestable:bool -> atpg_kind -> Atpg.Types.config ->
  circuit_hash:string -> string

(** Run (or recall) an engine on a circuit under [config] (build it with
    {!atpg_config}); [name] labels the persisted record but plays no part
    in the cache key, which is {!atpg_key}.  [prove_untestable] classifies
    first (through {!classify}, full cascade including the exact product
    stage) and prunes proved faults — the pruned run is cached under a
    distinct key that folds in the classification fingerprint. *)
val atpg :
  ?prove_untestable:bool ->
  config:Atpg.Types.config ->
  atpg_kind ->
  name:string ->
  Netlist.Node.t ->
  Atpg.Types.result

(** Fingerprint and store key of {!reach} records ({!Store.Disk.Reach}). *)
val reach_fingerprint : string

val reach_key : circuit_hash:string -> string

val reach : name:string -> Netlist.Node.t -> Analysis.Reach.result

(** Fingerprint and store key of {!symreach} records
    ({!Store.Disk.Symreach}). *)
val symreach_fingerprint : string

val symreach_key : circuit_hash:string -> string

(** Symbolic reachability (summary only — BDDs are not persistable). *)
val symreach : name:string -> Netlist.Node.t -> Analysis.Symreach.summary

(** {1 Density of encoding}

    The single data path Tables 6–8 and Figure 3 use: explicit {!reach}
    whenever {!Analysis.Reach.feasible} holds, {!symreach} beyond the
    explicit caps.  Both compute density with the same float expression,
    so where both are applicable they agree bit-for-bit. *)

type density = {
  valid : float;            (** reachable-state count *)
  valid_int : int option;   (** as an exact integer when it fits *)
  total : float;            (** [2. ** #DFF] *)
  density : float;          (** valid / total *)
  source : [ `Explicit | `Symbolic ];
}

val density_source_name : [ `Explicit | `Symbolic ] -> string

val density : name:string -> Netlist.Node.t -> density

val structural :
  name:string -> Netlist.Node.t -> Analysis.Structural.result
