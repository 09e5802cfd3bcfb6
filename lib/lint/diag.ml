(* Structured lint diagnostics: a stable rule id, a severity, a location in
   the netlist or FSM, and a human-readable message.  Diagnostics are plain
   data; the text and JSON reporters live in Report. *)

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

(* Error is the most severe. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare_severity a b = compare (severity_rank a) (severity_rank b)

type location =
  | Circuit                                 (* whole netlist / machine *)
  | Node of { id : int; name : string }     (* netlist node *)
  | Po of string                            (* primary output, by name *)
  | State of { index : int; name : string } (* FSM state *)
  | Transition of int                       (* FSM transition index *)

type t = {
  rule : string;          (* stable id, e.g. "NET001" *)
  severity : severity;
  loc : location;
  message : string;
  proof : Obs.Json.t option;  (* machine-readable proof evidence, if any *)
}

let make ?proof ~rule ~severity ~loc message =
  { rule; severity; loc; message; proof }

let location_to_string = function
  | Circuit -> "circuit"
  | Node { name; _ } -> Printf.sprintf "node %s" name
  | Po name -> Printf.sprintf "output %s" name
  | State { name; _ } -> Printf.sprintf "state %s" name
  | Transition i -> Printf.sprintf "transition %d" i

let pp ppf d =
  Fmt.pf ppf "%s[%s] %s: %s"
    (severity_to_string d.severity)
    d.rule
    (location_to_string d.loc)
    d.message

let count_severity sev diags =
  List.fold_left (fun a d -> if d.severity = sev then a + 1 else a) 0 diags

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

let sort diags =
  List.stable_sort
    (fun a b ->
      let c = compare_severity a.severity b.severity in
      if c <> 0 then c else compare a.rule b.rule)
    diags

(* --- JSON ------------------------------------------------------------------ *)

let location_to_json = function
  | Circuit -> Obs.Json.Obj [ ("kind", Obs.Json.String "circuit") ]
  | Node { id; name } ->
    Obs.Json.Obj
      [ ("kind", Obs.Json.String "node"); ("id", Obs.Json.Int id);
        ("name", Obs.Json.String name) ]
  | Po name ->
    Obs.Json.Obj [ ("kind", Obs.Json.String "po"); ("name", Obs.Json.String name) ]
  | State { index; name } ->
    Obs.Json.Obj
      [ ("kind", Obs.Json.String "state"); ("index", Obs.Json.Int index);
        ("name", Obs.Json.String name) ]
  | Transition i ->
    Obs.Json.Obj [ ("kind", Obs.Json.String "transition"); ("index", Obs.Json.Int i) ]

let to_json d =
  Obs.Json.Obj
    ([
       ("rule", Obs.Json.String d.rule);
       ("severity", Obs.Json.String (severity_to_string d.severity));
       ("loc", location_to_json d.loc);
       ("message", Obs.Json.String d.message);
     ]
    @ match d.proof with Some p -> [ ("proof", p) ] | None -> [])

let location_of_json j =
  let str key = match Obs.Json.member key j with Some (Obs.Json.String s) -> Some s | _ -> None in
  let int key = match Obs.Json.member key j with Some (Obs.Json.Int i) -> Some i | _ -> None in
  match str "kind" with
  | Some "circuit" -> Some Circuit
  | Some "node" ->
    (match int "id", str "name" with
     | Some id, Some name -> Some (Node { id; name })
     | _ -> None)
  | Some "po" -> (match str "name" with Some n -> Some (Po n) | None -> None)
  | Some "state" ->
    (match int "index", str "name" with
     | Some index, Some name -> Some (State { index; name })
     | _ -> None)
  | Some "transition" ->
    (match int "index" with Some i -> Some (Transition i) | None -> None)
  | _ -> None

let of_json j =
  let str key = match Obs.Json.member key j with Some (Obs.Json.String s) -> Some s | _ -> None in
  match str "rule", str "severity", Obs.Json.member "loc" j, str "message" with
  | Some rule, Some sev, Some loc, Some message ->
    (match severity_of_string sev, location_of_json loc with
     | Some severity, Some loc ->
       Some { rule; severity; loc; message; proof = Obs.Json.member "proof" j }
     | _ -> None)
  | _ -> None
