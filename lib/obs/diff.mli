(** Differential comparison of two instrumented runs.

    Inputs are classified by content — a provenance manifest
    ({!Ledger.t}), an event JSONL stream, a bench JSON array, or a Chrome
    trace — and compared at three granularities: run totals, per-span
    work aggregation, and per-row attribution (per-fault for event
    streams, per-record for bench arrays).

    The reconciliation invariant: event-stream records carry the run's
    complete work accounting, so on two event inputs the per-row deltas
    sum to the total delta {e exactly} ([reconciled = Some true]);
    [Some false] signals a truncated or edited stream, never rounding. *)

(** {1 Input classification} *)

type input =
  | Manifest of Ledger.t
  | Events of Json.t list  (** parsed JSONL records, file order *)
  | Bench of Json.t list  (** records of a bench JSON array *)
  | Chrome of Json.t  (** whole Chrome trace document *)

val input_kind_name : input -> string

(** Sniff a file's content: a JSON object with a ["satpg_manifest"]
    header is a manifest, with ["traceEvents"] a Chrome trace, a JSON
    array a bench file; anything else must parse as event JSONL. *)
val classify_input : string -> (input, string) result

(** {1 Comparison sides} *)

type row_data = { units : int; status : string option }

type side = {
  label : string;
  manifest_id : string option;
  total : int option;  (** total work units, when the input defines one *)
  exact : bool;  (** rows account for the total exactly *)
  spans : (string * int * int) list;
  rows : (string * row_data) list;  (** attribution rows, input order *)
}

val side_of_manifest : label:string -> Ledger.t -> side

(** Per-fault attribution: one row per ["fault"] record keyed by the
    fault name; ["fault_sim"] / ["state_directory"] records aggregate
    into parenthesized pseudo-rows, so the rows sum to the stream's final
    running total. *)
val side_of_events : label:string -> Json.t list -> side

val side_of_bench : label:string -> Json.t list -> side
val side_of_chrome : label:string -> Json.t -> side
val side_of_input : label:string -> input -> side

(** {1 The diff} *)

type row = {
  key : string;
  a_units : int option;  (** [None]: row absent on side A *)
  b_units : int option;
  delta : int;  (** absent sides weigh 0 *)
  status_a : string option;
  status_b : string option;
}

type t = {
  a : side;
  b : side;
  total_delta : int option;
  spans : row list;  (** per-span deltas, sorted by |delta| desc *)
  rows : row list;  (** attribution rows, sorted by |delta| desc *)
  new_keys : string list;  (** rows only on side B *)
  vanished_keys : string list;  (** rows only on side A *)
  status_changed : (string * string * string) list;  (** key, a, b *)
  attributed_delta : int option;  (** sum of row deltas *)
  reconciled : bool option;
      (** [Some (attributed_delta = total_delta)] when both sides are
          exact; [None] when attribution does not apply *)
}

val compute : side -> side -> t

(** No total delta, every span and row delta zero, no new / vanished /
    status-changed rows. *)
val is_empty : t -> bool

(** True when side B's total exceeds side A's by strictly more than
    [max_regress_pct] percent.  Improvements never breach; inputs
    without totals cannot breach. *)
val breach : max_regress_pct:float -> t -> bool

(** {1 Reports} *)

val to_json : t -> Json.t

(** Human-readable report; [top] bounds the span and row tables
    (default 20). *)
val pp_text : ?top:int -> Format.formatter -> t -> unit

(** {1 Bench history} *)

type history_point = { units : int; manifest : string; ts : int }

(** Group [BENCH_history.jsonl] lines into per-series points —
    one series per (suite, engine|mode, benchmark) cell, first-appearance
    order, points in file (= append) order.  Returns the series and the
    count of malformed lines skipped. *)
val history_of_lines :
  string list -> (string * history_point list) list * int

val history_json : (string * history_point list) list -> Json.t

val pp_history :
  Format.formatter -> (string * history_point list) list * int -> unit
