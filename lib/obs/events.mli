(** Structured event sink: one JSON object per record, written as JSONL.

    The ATPG drivers emit one record per fault-simulation pass and one per
    deterministically attempted fault, carrying the exact
    work/backtrack/decision accounting, so Tables 2-4 rows and Figure 3
    trajectories can be rebuilt offline from the file alone.  With no sink
    installed, {!emit} is a single word test.

    Domain safety: install/uninstall from the main domain only.  Under an
    active {!Capture} scope (i.e. inside a parallel Exec task), {!emit}
    buffers into the task's delta instead of the shared sink; deltas are
    appended in submission order by [Commit.apply], keeping the record
    order — and hence the JSONL file — bit-identical to a sequential
    run. *)

type sink

val create : unit -> sink
val install : sink -> unit
val uninstall : unit -> unit
val active : unit -> sink option
val enabled : unit -> bool

(** Append one record (an object built from [fields]) to the installed
    sink; no-op without one.  Call sites should guard expensive field
    construction with {!enabled}. *)
val emit : (string * Json.t) list -> unit

(** Like {!emit} with an already-built record. *)
val emit_json : Json.t -> unit

(** Append a task delta's buffered records to the installed sink in
    emission order; no-op without a sink.  Call only with no capture
    active on the current domain (use [Commit.apply]). *)
val apply_delta : Capture.t -> unit

(** Records in emission order. *)
val records : sink -> Json.t list

(** One compact JSON document per line, emission order. *)
val to_lines : sink -> string list

(** Write {!to_lines} to [file]. *)
val write : sink -> string -> unit
