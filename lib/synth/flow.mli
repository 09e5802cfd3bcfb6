(** End-to-end synthesis driver mirroring the paper's SIS command sequence:
    stamina (state minimization) → jedi (state assignment) →
    extract_seq_dc (unreachable-code don't cares) → script.rugged |
    script.delay (multilevel optimization) → technology mapping.

    Circuit names follow the paper's convention [<fsm>.<jX>.<sY>] with
    [jX] ∈ {ji, jo, jc} (jedi algorithm) and [sY] ∈ {sd, sr} (script). *)

type script =
  | Rugged  (** area-oriented, like SIS script.rugged; mapped for area *)
  | Delay   (** depth-oriented, like SIS script.delay; mapped for delay *)

(** Every script under its circuit-name field, in the order sr, sd. *)
val scripts : (string * script) list

val script_tag : script -> string

type result = {
  name : string;              (** e.g. ["s510.jo.sr"] *)
  machine : Fsm.Machine.t;    (** the minimized machine actually implemented *)
  codes : int array;          (** state assignment, per machine state *)
  bits : int;                 (** state register width *)
  circuit : Netlist.Node.t;   (** the mapped netlist *)
  reset_line : bool;          (** an explicit reset PI was appended last *)
}

(** Synthesize a machine.  [use_seq_dc] feeds unused state codes to the
    minimizer as external don't cares; [minimize_states] runs partition
    refinement first; [reset_line] appends an explicit reset input that
    forces the next state to the reset code (always 0). *)
val synthesize :
  ?use_seq_dc:bool ->
  ?minimize_states:bool ->
  ?reset_line:bool ->
  algorithm:Assign.algorithm ->
  script:script ->
  Fsm.Machine.t ->
  result

(** The encoded reset state — 0 by construction. *)
val reset_code : result -> int
