(** On-disk content-addressed result store.

    Enabled by [SATPG_STORE=dir] (unset or empty: disabled, every
    operation is a no-op).  One versioned JSON record per computation at
    [<dir>/<kind>/<key>.json]; keys come from {!Key}, the display name is
    metadata only.  Writes are atomic (temp file + rename); loads are
    corruption-tolerant — garbage degrades to a logged warning and a
    recompute, never a crash. *)

(** The environment variable, ["SATPG_STORE"]. *)
val env_var : string

(** The configured store directory, if enabled. *)
val dir : unit -> string option

val enabled : unit -> bool

type kind =
  | Atpg
  | Classify
  | Reach
  | Symreach
  | Structural
  | Manifest
  | Circuit  (** registered netlists, keyed by structural hash (serve) *)

val kind_name : kind -> string
val all_kinds : kind list

(** On-disk record format version; bumping it orphans every record. *)
val version : int

type load_result =
  | Found of Obs.Json.t  (** the record's payload *)
  | Absent               (** no record (or store disabled) *)
  | Corrupt of string    (** unreadable/garbage/mismatched record *)

val load : kind -> key:string -> load_result

(** Persist a payload; returns whether a record was written (false when
    the store is disabled or the write failed — saving is best-effort and
    never raises). *)
val save : kind -> key:string -> name:string -> Obs.Json.t -> bool

(** Persist a run manifest under its own content-addressed id
    (best-effort, like {!save}; a no-op when the store is disabled). *)
val save_manifest : name:string -> Obs.Ledger.t -> unit

type entry = { kind : kind; key : string; path : string; bytes : int }

(** Every record currently in the store, in deterministic order. *)
val entries : unit -> entry list

(** Per kind: (kind, record count, total bytes). *)
val stats : unit -> (kind * int * int) list

(** Delete every record; returns how many were removed. *)
val clear : unit -> int

(** Deep check of every record: header fields and payload decodability. *)
val verify : unit -> (entry * (unit, string) result) list
