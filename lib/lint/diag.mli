(** Structured lint diagnostics: a stable rule id, a severity, a location
    in the netlist or FSM, and a message.  Produced by the rule modules,
    rendered by {!Report}. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

(** Orders [Error < Warning < Info] (most severe first). *)
val compare_severity : severity -> severity -> int

type location =
  | Circuit                                  (** whole netlist / machine *)
  | Node of { id : int; name : string }      (** netlist node *)
  | Po of string                             (** primary output, by name *)
  | State of { index : int; name : string }  (** FSM state *)
  | Transition of int                        (** FSM transition index *)

type t = {
  rule : string;       (** stable id, e.g. ["NET001"] *)
  severity : severity;
  loc : location;
  message : string;
  proof : Obs.Json.t option;
      (** machine-readable proof evidence (NET006/NET008: cause, proof
          source, symbolic budget); carried verbatim through the JSON
          round trip *)
}

val make :
  ?proof:Obs.Json.t -> rule:string -> severity:severity -> loc:location ->
  string -> t

val location_to_string : location -> string

(** One-line rendering: [severity[RULE] location: message]. *)
val pp : Format.formatter -> t -> unit

val count_severity : severity -> t list -> int
val has_errors : t list -> bool

(** Stable sort, most severe first, then by rule id. *)
val sort : t list -> t list

val to_json : t -> Obs.Json.t

(** Inverse of {!to_json}; [None] on malformed input. *)
val of_json : Obs.Json.t -> t option
