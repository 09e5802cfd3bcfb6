(** Prometheus text-format rendering of a {!Metrics} registry.

    [render ()] snapshots the registry and returns the classic
    line-oriented exposition format (version 0.0.4): one [# TYPE] header
    and one sample line per metric, every name prefixed with [satpg_]
    and sanitized to the Prometheus grammar ([core.cache.hits] becomes
    [satpg_core_cache_hits_total]).  Counters gain the conventional
    [_total] suffix; gauges are emitted as-is; log2 histograms are
    exported as cumulative [_bucket{le="..."}] series plus [_sum] and
    [_count]; bucket [i] holds the integers [2^i - 1 .. 2^(i+1) - 2], so
    its bound is [le="2^(i+1) - 2"] (0, 2, 6, 14, ...).

    The output is what `satpg serve` answers on [GET /metrics]. *)

(** Sanitize one metric name component: characters outside
    [[a-zA-Z0-9_]] become ['_']. *)
val sanitize : string -> string

val render : ?registry:Metrics.t -> unit -> string
