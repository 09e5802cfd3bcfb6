(** Process-wide metrics registry: named counters, gauges and log2-bucketed
    histograms.

    Instrument handles are resolved once (get-or-create by name, usually at
    module initialisation) and updated with a single mutable-field write,
    so the hot path is O(1) and allocation-free whether or not anything
    ever snapshots the registry.  Snapshots render in name order: two
    identical runs produce byte-identical metrics files.

    Domain safety: while a {!Capture} scope is active on the current
    domain (the Exec scheduler installs one around every parallel task),
    writes to instruments of the {!global} registry are redirected into
    the capture's delta instead of mutating shared state; the scheduler
    applies the deltas in submission order, so N-domain totals equal the
    sequential totals exactly.  Custom registries are not redirected.
    Reads ([count]/[value]/...) always return the shared value, which
    excludes deltas not yet applied — read instruments only outside
    parallel sections. *)

type t

val create : unit -> t

(** The default registry used when [?registry] is omitted — all of the
    tree's built-in instrumentation lives here. *)
val global : t

(** {1 Counters} — monotonically increasing integers. *)

type counter

(** Get or create; the same name always yields the same handle. *)
val counter : ?registry:t -> string -> counter

val add : counter -> int -> unit
val incr : counter -> unit
val count : counter -> int

(** {1 Gauges} — last-write-wins floats. *)

type gauge

val gauge : ?registry:t -> string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float

(** {1 Histograms} — non-negative integer observations in power-of-two
    buckets (bucket [i] holds values [v] with [2^i <= v+1 < 2^(i+1)]). *)

type histogram

val histogram : ?registry:t -> string -> histogram
val observe : histogram -> int -> unit
val observations : histogram -> int
val sum : histogram -> int

(** Bucket index a value lands in (exposed for tests). *)
val bucket_of : int -> int

(** {1 Snapshot} *)

(** Zero every instrument, keeping registrations (module-level handles
    stay valid). *)
val reset : ?registry:t -> unit -> unit

(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}], keys in
    name order. *)
val snapshot : ?registry:t -> unit -> Json.t

(** Write {!snapshot} to [file] as one JSON document. *)
val write : ?registry:t -> string -> unit

(** {1 Delta application} *)

(** Fold a task's captured delta into the global registry: counters and
    histograms add, gauges last-write-win.  Call only with no capture
    active on the current domain (use [Commit.apply], which handles
    nesting). *)
val apply_delta : Capture.t -> unit
