(* The study's circuit factory: synthesize each benchmark FSM under a jedi
   algorithm / SIS-script combination, then retime it — producing the
   original/retimed pairs of the paper's Table 2.  Every artifact is
   memoized per process, since several tables consume the same pairs. *)

type pair = {
  name : string;                  (* e.g. "s510.jo.sr" *)
  fsm : Fsm.Benchmarks.entry;
  synth : Synth.Flow.result;
  original : Netlist.Node.t;
  retimed : Netlist.Node.t;
  original_period : float;
  retimed_period : float;
  prefix_length : int;            (* P of the P ∪ T equivalence prefix *)
}

(* Deepening slack used for the paper flow (see DESIGN.md): our mapped
   netlists are delay-balanced, so the register wall needs a little timing
   slack to move; the paper's SIS circuits had it for free. *)
let default_period_slack = 0.12

let reset_prefix_input (r : Synth.Flow.result) =
  if r.Synth.Flow.reset_line then begin
    let npi =
      r.Synth.Flow.machine.Fsm.Machine.num_inputs + 1
    in
    let v = Array.make npi false in
    v.(npi - 1) <- true;
    Some v
  end
  else None

let synthesize fsm_name algorithm script =
  let entry = Fsm.Benchmarks.find fsm_name in
  let machine = Fsm.Benchmarks.machine entry in
  Obs.Trace.span ~args:[ ("fsm", Obs.Json.String fsm_name) ] "flow.synth"
    (fun () ->
      Synth.Flow.synthesize ~reset_line:entry.Fsm.Benchmarks.has_reset_line
        ~algorithm ~script machine)

let build ?(period_slack = default_period_slack) fsm_name algorithm script =
  let entry = Fsm.Benchmarks.find fsm_name in
  let synth = synthesize fsm_name algorithm script in
  let original = synth.Synth.Flow.circuit in
  let prefix_input = reset_prefix_input synth in
  let retimed, retimed_period, prefix_length =
    Obs.Trace.span
      ~args:[ ("circuit", Obs.Json.String synth.Synth.Flow.name) ]
      "flow.retime"
      (fun () ->
        Retime.Apply.retime_aggressive ?prefix_input ~period_slack original)
  in
  (* error-level lint gate on the retimed circuit (the original was gated
     by the synthesis flow) *)
  Obs.Trace.span "flow.lint_retimed" (fun () ->
      Lint.Report.assert_clean
        ~what:("retiming of " ^ synth.Synth.Flow.name)
        retimed);
  {
    name = synth.Synth.Flow.name;
    fsm = entry;
    synth;
    original;
    retimed;
    original_period = Netlist.Node.critical_path original;
    retimed_period;
    prefix_length;
  }

let cache : (string, pair) Hashtbl.t = Hashtbl.create 31

(* Guards [cache]; not held across [build] (parallel table cells that
   race to the same missing pair both build it — deterministic, so the
   duplicate replace is idempotent).  The table drivers prebuild their
   selections sequentially before fanning out, so in practice parallel
   callers only ever hit. *)
let mu = Mutex.create ()

let pair ?period_slack fsm_name algorithm script =
  let key =
    Printf.sprintf "%s.%s.%s" fsm_name
      (Synth.Assign.algorithm_tag algorithm)
      (Synth.Flow.script_tag script)
  in
  match Mutex.protect mu (fun () -> Hashtbl.find_opt cache key) with
  | Some p -> p
  | None ->
    let p = build ?period_slack fsm_name algorithm script in
    Mutex.protect mu (fun () -> Hashtbl.replace cache key p);
    p

(* The sixteen circuit pairs of Table 2, in the paper's row order. *)
let table2_selection =
  let ji = Synth.Assign.Input_dominant
  and jo = Synth.Assign.Output_dominant
  and jc = Synth.Assign.Combined in
  let sd = Synth.Flow.Delay and sr = Synth.Flow.Rugged in
  [
    ("dk16", ji, sd);
    ("pma", jo, sd);
    ("s510", jc, sd);
    ("s510", jc, sr);
    ("s510", ji, sd);
    ("s510", ji, sr);
    ("s510", jo, sr);
    ("s820", jc, sd);
    ("s820", jc, sr);
    ("s820", ji, sr);
    ("s820", jo, sd);
    ("s820", jo, sr);
    ("s832", jc, sr);
    ("s832", jo, sr);
    ("scf", ji, sd);
    ("scf", jo, sd);
  ]

let table2_pairs ?period_slack () =
  List.map (fun (f, a, s) -> pair ?period_slack f a s) table2_selection

(* The five worst pairs used for the Attest and SEST confirmations
   (Tables 3 and 4). *)
let confirmation_selection =
  let ji = Synth.Assign.Input_dominant
  and jo = Synth.Assign.Output_dominant
  and jc = Synth.Assign.Combined in
  let sd = Synth.Flow.Delay and sr = Synth.Flow.Rugged in
  [
    ("dk16", ji, sd);
    ("pma", jo, sd);
    ("s510", jc, sd);
    ("s510", ji, sr);
    ("s510", jo, sr);
  ]

let confirmation_pairs ?period_slack () =
  List.map (fun (f, a, s) -> pair ?period_slack f a s) confirmation_selection

(* Table 7 / Figure 3: partially retimed versions of s510.jo.sr with
   increasing register budgets (and hence decreasing density of encoding). *)
let sensitivity_versions () =
  let p = pair "s510" Synth.Assign.Output_dominant Synth.Flow.Rugged in
  let prefix_input = reset_prefix_input p.synth in
  let variant tag ~max_lag ~max_regs_factor ~period_slack =
    let c, period, _ =
      Retime.Apply.retime_aggressive ?prefix_input ~max_lag ~max_regs_factor
        ~period_slack p.original
    in
    (p.name ^ tag, c, period)
  in
  [
    (p.name, p.original, p.original_period);
    variant ".re.v1" ~max_lag:1 ~max_regs_factor:2 ~period_slack:0.04;
    variant ".re.v2" ~max_lag:2 ~max_regs_factor:3 ~period_slack:0.08;
    variant ".re.v3" ~max_lag:4 ~max_regs_factor:4 ~period_slack:0.10;
    (p.name ^ ".re", p.retimed, p.retimed_period);
  ]

let circuit p ~retimed =
  if retimed then (p.name ^ ".re", p.retimed) else (p.name, p.original)
