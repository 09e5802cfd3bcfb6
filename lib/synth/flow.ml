(* End-to-end synthesis driver mirroring the paper's SIS command sequence:
   stamina (state minimization) -> jedi (state assignment) -> extract_seq_dc
   (unreachable-code don't cares) -> script.rugged | script.delay ->
   technology mapping.  Circuit names follow the paper's convention:
   <fsm>.<jX>.<sY> with jX in {ji, jo, jc} and sY in {sd, sr}. *)

type script = Rugged | Delay

let scripts = [ ("sr", Rugged); ("sd", Delay) ]

let script_tag s = fst (List.find (fun (_, t) -> t = s) scripts)

type result = {
  name : string;
  machine : Fsm.Machine.t;     (* minimized machine actually implemented *)
  codes : int array;
  bits : int;
  circuit : Netlist.Node.t;    (* mapped netlist *)
  reset_line : bool;
}

let synthesize ?(use_seq_dc = true) ?(minimize_states = true)
    ?(reset_line = false) ~algorithm ~script machine =
  let phase name f = Obs.Trace.span ("synth." ^ name) f in
  let m =
    phase "minimize_states" (fun () ->
        if minimize_states then Minimize_states.minimize machine else machine)
  in
  let codes, bits = phase "assign" (fun () -> Assign.assign algorithm m) in
  let encoded =
    phase "encode" (fun () -> Encode.encode ~use_seq_dc m (codes, bits))
  in
  let net = Network.of_encoded encoded in
  phase "script" (fun () ->
      match script with
      | Rugged -> Scripts.script_rugged net
      | Delay -> Scripts.script_delay net);
  let spec =
    {
      Emit.circuit_name = machine.Fsm.Machine.name;
      ni = m.Fsm.Machine.num_inputs;
      no = m.Fsm.Machine.num_outputs;
      bits;
      reset_line;
    }
  in
  let generic = Emit.to_netlist spec net in
  let objective = match script with Rugged -> `Area | Delay -> `Delay in
  let circuit = phase "techmap" (fun () -> Techmap.map ~objective generic) in
  let name =
    Printf.sprintf "%s.%s.%s" machine.Fsm.Machine.name
      (Assign.algorithm_tag algorithm)
      (script_tag script)
  in
  (* error-level lint gate: a mapped netlist with a combinational cycle or
     structural defect must never leave the synthesis flow *)
  phase "lint_gate" (fun () ->
      Lint.Report.assert_clean ~what:("synthesis of " ^ name) circuit);
  { name; machine = m; codes; bits; circuit; reset_line }

(* State code of the machine's reset state — always 0 by construction. *)
let reset_code r = r.codes.(r.machine.Fsm.Machine.reset)
