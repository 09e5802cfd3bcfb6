(* Lint subsystem tests: every rule fired by a crafted defect, JSON
   round-trips, SCOAP/FFR sanity, and the Theorem-1 property over the
   benchmark pairs (the lint-proved-untestable invariant metric must be
   identical on the original and retimed circuit). *)

let rules ds = List.map (fun d -> d.Lint.Diag.rule) ds
let has_rule r ds = List.mem r (rules ds)

(* --- crafted netlists -------------------------------------------------------- *)

(* a -> g1 = AND(a, g2); g2 = BUF(g1): a combinational cycle.
   Build.finalize rejects these, so the fixture goes through Node.make. *)
let cyclic_circuit () =
  let nodes =
    [|
      { Netlist.Node.id = 0; name = "a"; kind = Netlist.Node.Pi 0; fanins = [||] };
      {
        Netlist.Node.id = 1;
        name = "g1";
        kind = Netlist.Node.Gate Netlist.Node.And;
        fanins = [| 0; 2 |];
      };
      {
        Netlist.Node.id = 2;
        name = "g2";
        kind = Netlist.Node.Gate Netlist.Node.Buf;
        fanins = [| 1 |];
      };
    |]
  in
  Netlist.Node.make ~nodes ~pis:[| 0 |] ~pos:[| ("out", 2) |] ~dffs:[||]
    ~fanouts:[| [| 1 |]; [| 2 |]; [| 1 |] |]
    ~order:[| 1; 2 |] ~level:[| 0; 1; 2 |]

(* A well-formed circuit with one dead gate (no fanout, not a PO). *)
let dead_gate_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let c = Netlist.Build.add_pi b "c" in
  let live = Netlist.Build.add_gate b Netlist.Node.And "live" [| a; c |] in
  let _dead = Netlist.Build.add_gate b Netlist.Node.Or "deadg" [| a; c |] in
  Netlist.Build.add_po b "out" live;
  Netlist.Build.finalize b

(* g_const = OR(a, one) is provably constant 1: NET005 fires, its sa1 is
   unexcitable, and a's effect is confined by the constant side input. *)
let constant_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let one = Netlist.Build.add_const b "one" true in
  let g_const = Netlist.Build.add_gate b Netlist.Node.Or "gconst" [| a; one |] in
  Netlist.Build.add_po b "out" g_const;
  Netlist.Build.finalize b

(* q0' = a, q1' = NOT a: the two registers always disagree after the
   first clock, so state (1,1) is unreachable and AND(q0,q1) is constant 0
   over the valid states — its sa0 needs an activation the machine can
   never provide, invisible to the static value rules. *)
let seq_redundant_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let q0 = Netlist.Build.add_dff b "q0" in
  let q1 = Netlist.Build.add_dff b "q1" in
  let na = Netlist.Build.add_gate b Netlist.Node.Not "na" [| a |] in
  let g = Netlist.Build.add_gate b Netlist.Node.And "g" [| q0; q1 |] in
  Netlist.Build.connect_dff b q0 a;
  Netlist.Build.connect_dff b q1 na;
  Netlist.Build.add_po b "z" g;
  (Netlist.Build.finalize b, g)

let proof_field key (d : Lint.Diag.t) =
  match d.Lint.Diag.proof with
  | None -> None
  | Some p -> (
    match Obs.Json.member key p with
    | Some (Obs.Json.String s) -> Some s
    | _ -> None)

let names_fault name (d : Lint.Diag.t) =
  Helpers.contains_substring d.Lint.Diag.message ("fault " ^ name ^ ":")

let rule_diags rule (s : Lint.Report.netlist_summary) =
  List.filter (fun d -> d.Lint.Diag.rule = rule) s.Lint.Report.diags

let test_seq_redundant_rule () =
  let c, _ = seq_redundant_circuit () in
  let s = Lint.Report.lint_netlist ~symbolic:true c in
  let net008 = rule_diags "NET008" s in
  (* g/sa0 (C1) plus the register stems' sa0 (C3): every symbolic proof
     of the cascade is reported *)
  Alcotest.(check int) "NET008 count" 3 (List.length net008);
  Alcotest.(check (option int)) "summary count" (Some 3) s.Lint.Report.seq_redundant;
  Alcotest.(check bool) "proved, not an error" false
    (Lint.Diag.has_errors s.Lint.Report.diags);
  List.iter
    (fun d ->
      Alcotest.(check string) "warning severity" "warning"
        (Lint.Diag.severity_to_string d.Lint.Diag.severity);
      Alcotest.(check (option string)) "proof source" (Some "symbolic")
        (proof_field "source" d))
    net008;
  Alcotest.(check (list (option string)))
    "g/sa0 by unreachable activation" [ Some "unreachable_activation" ]
    (List.map (proof_field "cause") (List.filter (names_fault "g/sa0") net008));
  Alcotest.(check (option int)) "static-only, no NET008" None
    (Lint.Report.lint_netlist ~symbolic:false c).Lint.Report.seq_redundant

(* s/sa1 corrupts the AND's sibling input k = s, which is constant 0 at
   power-up only in the fault-free machine: a blocker the fault itself
   removes.  These faults are detectable (HITEC finds validated tests),
   so no NET006 may name them. *)
let corrupted_blocker_blif =
  String.concat "\n"
    [ ".model bug"; ".inputs x"; ".outputs g"; ".latch snext s 0";
      ".names s x snext"; "11 1"; ".names s k"; "1 1"; ".names s k g";
      "11 1"; ".end"; "" ]

let test_untestable_needs_uncorrupted_blocker () =
  let c = Netlist.Blif.parse_string corrupted_blocker_blif in
  let s = Lint.Report.lint_netlist ~symbolic:false c in
  let net006 = rule_diags "NET006" s in
  Alcotest.(check int) "NET006 count matches Untest" 7 (List.length net006);
  let suspects = [ "s/sa1"; "snext_blif1/sa1"; "snext_blif1.in0/sa1" ] in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not called untestable") false
        (List.exists (names_fault name) net006))
    suspects;
  let r = Atpg.Hitec.generate c in
  List.iter
    (fun name ->
      let status = ref None in
      Array.iteri
        (fun i f ->
          if Fsim.Fault.to_string c f = name then
            status := Some (Fsim.Fault.status_to_string r.Atpg.Types.status.(i)))
        r.Atpg.Types.faults;
      Alcotest.(check (option string)) (name ^ " detected") (Some "detected")
        !status)
    suspects

let test_cycle_rule () =
  let c = cyclic_circuit () in
  let ds = Lint.Netlist_rules.combinational_cycles c in
  Alcotest.(check bool) "NET001 fires" true (has_rule "NET001" ds);
  Alcotest.(check bool) "is an error" true (Lint.Diag.has_errors ds);
  (* the staged driver must stop before the order-trusting analyses *)
  let s = Lint.Report.lint_netlist ~symbolic:false c in
  Alcotest.(check bool) "scoap skipped" true (s.Lint.Report.scoap = None);
  Alcotest.(check bool)
    "gate raises" true
    (try
       Lint.Report.assert_clean ~what:"test" c;
       false
     with Failure _ -> true)

let test_structure_rule () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  Netlist.Build.add_po b "z" a;
  Netlist.Build.add_po b "z" a;
  let c = Netlist.Build.finalize b in
  let problems = Netlist.Check.problems c in
  Alcotest.(check bool)
    "duplicate PO detected" true
    (List.mem (Netlist.Check.Duplicate_po "z") problems);
  let ds = Lint.Netlist_rules.structure c in
  Alcotest.(check bool) "NET002 fires" true (has_rule "NET002" ds)

(* Satellite regression: a DFF with an out-of-range data input must be
   reported exactly once (as Dff_unconnected), not double-counted by the
   generic fanin sweep. *)
let test_check_dff_single_report () =
  let nodes =
    [|
      { Netlist.Node.id = 0; name = "a"; kind = Netlist.Node.Pi 0; fanins = [||] };
      {
        Netlist.Node.id = 1;
        name = "q";
        kind = Netlist.Node.Dff { init = false };
        fanins = [| 9 |];
      };
    |]
  in
  let c =
    Netlist.Node.make ~nodes ~pis:[| 0 |] ~pos:[| ("out", 0) |] ~dffs:[| 1 |]
      ~fanouts:[| [||]; [||] |] ~order:[||] ~level:[| 0; 0 |]
  in
  Alcotest.(check (list string))
    "one problem only"
    [ "DFF q has no data input" ]
    (List.map Netlist.Check.problem_to_string (Netlist.Check.problems c))

let test_dead_rule () =
  let c = dead_gate_circuit () in
  let s = Lint.Report.lint_netlist ~symbolic:false c in
  let dead =
    List.filter (fun d -> d.Lint.Diag.rule = "NET003") s.Lint.Report.diags
  in
  Alcotest.(check int) "one dead diagnostic" 1 (List.length dead);
  match (List.hd dead).Lint.Diag.loc with
  | Lint.Diag.Node { name; _ } -> Alcotest.(check string) "names it" "deadg" name
  | _ -> Alcotest.fail "expected a node location"

let test_constant_and_untestable_rules () =
  let c = constant_circuit () in
  let s = Lint.Report.lint_netlist ~symbolic:false c in
  let by r = List.filter (fun d -> d.Lint.Diag.rule = r) s.Lint.Report.diags in
  Alcotest.(check bool) "NET005 fires" true (by "NET005" <> []);
  Alcotest.(check bool) "NET006 fires" true (by "NET006" <> []);
  Alcotest.(check bool) "proved untestable > 0" true (s.Lint.Report.untestable > 0);
  Alcotest.(check bool)
    "invariant metric sees them" true
    (s.Lint.Report.invariant_untestable > 0);
  (* the constant-generator DFF itself is exempt from NET005 *)
  List.iter
    (fun d ->
      match d.Lint.Diag.loc with
      | Lint.Diag.Node { name; _ } ->
        Alcotest.(check bool) "not the generator" false (name = "one")
      | _ -> ())
    (by "NET005")

let test_clean_circuit () =
  let c = Helpers.toy_circuit () in
  let s = Lint.Report.lint_netlist ~symbolic:false c in
  Alcotest.(check int) "no errors"
    0
    (Lint.Diag.count_severity Lint.Diag.Error s.Lint.Report.diags);
  Alcotest.(check int) "no warnings"
    0
    (Lint.Diag.count_severity Lint.Diag.Warning s.Lint.Report.diags);
  Alcotest.(check int) "nothing untestable" 0 s.Lint.Report.untestable;
  Lint.Report.assert_clean ~what:"toy" c

(* --- SCOAP / FFR ------------------------------------------------------------- *)

let test_scoap_sanity () =
  let c = Helpers.toy_circuit () in
  let s = Lint.Scoap.compute c in
  Array.iter
    (fun id ->
      Alcotest.(check int) "PI cc0" 1 s.Lint.Scoap.cc0.(id);
      Alcotest.(check int) "PI cc1" 1 s.Lint.Scoap.cc1.(id))
    c.Netlist.Node.pis;
  Array.iter
    (fun (_, id) -> Alcotest.(check int) "PO driver co" 0 s.Lint.Scoap.co.(id))
    c.Netlist.Node.pos;
  (* every node of the toy circuit is exercisable: all scores finite *)
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      let id = nd.Netlist.Node.id in
      Alcotest.(check bool) "finite" true
        (Lint.Scoap.testability s id < Lint.Scoap.unreachable))
    c.Netlist.Node.nodes

let test_ffr_partition () =
  let c = Helpers.figure2_original () in
  let regions = Lint.Ffr.extract c in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (r : Lint.Ffr.region) ->
      List.iter
        (fun id ->
          Alcotest.(check bool) "member is a gate" true
            (match (Netlist.Node.node c id).Netlist.Node.kind with
             | Netlist.Node.Gate _ -> true
             | _ -> false);
          Alcotest.(check bool) "no overlap" false (Hashtbl.mem seen id);
          Hashtbl.add seen id ())
        r.Lint.Ffr.members)
    regions;
  Alcotest.(check int) "every gate covered exactly once"
    (Netlist.Node.num_gates c) (Hashtbl.length seen)

(* --- FSM rules ---------------------------------------------------------------- *)

let machine ?(num_inputs = 1) ~states ~reset transitions =
  {
    Fsm.Machine.name = "crafted";
    num_inputs;
    num_outputs = 1;
    state_names = Array.of_list states;
    reset;
    transitions = Array.of_list transitions;
  }

let t ~src ~dst ?(in_care = 0) ?(in_value = 0) () =
  { Fsm.Machine.in_care; in_value; src; dst; out_care = 1; out_value = 0 }

let test_fsm_unreachable () =
  (* A -> B on anything; C never entered *)
  let m =
    machine ~states:[ "A"; "B"; "C" ] ~reset:0
      [ t ~src:0 ~dst:1 (); t ~src:1 ~dst:0 () ]
  in
  let ds = Lint.Fsm_rules.lint m in
  Alcotest.(check bool) "FSM001 fires" true (has_rule "FSM001" ds);
  Alcotest.(check bool)
    "on state C" true
    (List.exists
       (fun d ->
         d.Lint.Diag.rule = "FSM001"
         && d.Lint.Diag.loc = Lint.Diag.State { index = 2; name = "C" })
       ds)

let test_fsm_dead_state () =
  (* B is reachable but nothing leaves it *)
  let m = machine ~states:[ "A"; "B" ] ~reset:0 [ t ~src:0 ~dst:1 () ] in
  let ds = Lint.Fsm_rules.dead_states m in
  Alcotest.(check bool)
    "FSM002 on B" true
    (List.exists
       (fun d -> d.Lint.Diag.loc = Lint.Diag.State { index = 1; name = "B" })
       ds)

let test_fsm_nondet () =
  (* two transitions of A match input 0 with different destinations *)
  let m =
    machine ~states:[ "A"; "B"; "C" ] ~reset:0
      [ t ~src:0 ~dst:1 ~in_care:0 (); t ~src:0 ~dst:2 ~in_care:0 () ]
  in
  let ds = Lint.Fsm_rules.nondeterministic m in
  Alcotest.(check bool) "FSM003 fires" true (has_rule "FSM003" ds);
  Alcotest.(check bool) "is an error" true (Lint.Diag.has_errors ds)

let test_fsm_incomplete () =
  (* input bit specified: only the 0 half of A's inputs is covered *)
  let m =
    machine ~states:[ "A" ] ~reset:0 [ t ~src:0 ~dst:0 ~in_care:1 ~in_value:0 () ]
  in
  match Lint.Fsm_rules.incompletely_specified m with
  | [ d ] ->
    Alcotest.(check string) "FSM004" "FSM004" d.Lint.Diag.rule;
    Alcotest.(check bool) "counts the hole" true
      (Helpers.contains_substring d.Lint.Diag.message "1 (state, input)")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_fsm_benchmarks_deterministic () =
  List.iter
    (fun name ->
      let m = Fsm.Benchmarks.machine_of_name name in
      let ds = Lint.Report.lint_fsm m in
      Alcotest.(check bool)
        (name ^ " has no FSM errors")
        false (Lint.Diag.has_errors ds))
    [ "dk16"; "pma"; "s510"; "s820"; "s832"; "scf" ]

(* --- JSON --------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let samples =
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Int (-42);
      Obs.Json.String "quote \" backslash \\ newline \n tab \t";
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.String "x"; Obs.Json.Null ];
      Obs.Json.Obj
        [
          ("a", Obs.Json.List []);
          ("b", Obs.Json.Obj [ ("nested", Obs.Json.Bool false) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      let j' = Obs.Json.parse (Obs.Json.to_string j) in
      Alcotest.(check bool) "parse inverts print" true (Obs.Json.equal j j'))
    samples

let test_diag_roundtrip () =
  let locs =
    [
      Lint.Diag.Circuit;
      Lint.Diag.Node { id = 3; name = "g3" };
      Lint.Diag.Po "out";
      Lint.Diag.State { index = 1; name = "B" };
      Lint.Diag.Transition 7;
    ]
  in
  List.iter
    (fun loc ->
      let d =
        Lint.Diag.make ~rule:"NET001" ~severity:Lint.Diag.Warning ~loc
          "message with \"specials\"\n"
      in
      (* through the printer/parser as well, as the CLI emits text *)
      let j = Obs.Json.parse (Obs.Json.to_string (Lint.Diag.to_json d)) in
      match Lint.Diag.of_json j with
      | Some d' -> Alcotest.(check bool) "diag round-trips" true (d = d')
      | None -> Alcotest.fail "of_json failed")
    locs

let test_report_json () =
  let c = constant_circuit () in
  let s = Lint.Report.lint_netlist ~symbolic:false c in
  let j = Lint.Report.netlist_to_json ~include_scoap:true ~name:"const" c s in
  let j' = Obs.Json.parse (Obs.Json.to_string j) in
  Alcotest.(check bool) "document round-trips" true (Obs.Json.equal j j');
  match Obs.Json.member "summary" j' with
  | Some summary ->
    Alcotest.(check bool) "untestable exported" true
      (Obs.Json.member "untestable" summary
      = Some (Obs.Json.Int s.Lint.Report.untestable))
  | None -> Alcotest.fail "summary missing"

(* --- name index --------------------------------------------------------------- *)

let test_find_by_name () =
  let c = Helpers.toy_circuit () in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      Alcotest.(check int) nd.Netlist.Node.name nd.Netlist.Node.id
        (Netlist.Node.find_by_name c nd.Netlist.Node.name))
    c.Netlist.Node.nodes;
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Netlist.Node.find_by_name c "nonexistent");
       false
     with Not_found -> true)

(* --- Theorem 1 ---------------------------------------------------------------- *)

(* Retiming preserves single-stuck-at testability (the paper's Theorem 1),
   so the lint-proved-untestable invariant metric — counted over gate/PI
   fault sites, which retiming preserves verbatim — must agree on every
   original/retimed benchmark pair, and none may have error diagnostics. *)
let test_theorem1_invariant () =
  List.iter
    (fun (fsm, alg, script) ->
      let p = Core.Flow.pair fsm alg script in
      let so = Lint.Report.lint_netlist ~symbolic:false p.Core.Flow.original in
      let sr = Lint.Report.lint_netlist ~symbolic:false p.Core.Flow.retimed in
      Alcotest.(check bool)
        (p.Core.Flow.name ^ " original clean")
        false
        (Lint.Diag.has_errors so.Lint.Report.diags);
      Alcotest.(check bool)
        (p.Core.Flow.name ^ " retimed clean")
        false
        (Lint.Diag.has_errors sr.Lint.Report.diags);
      Alcotest.(check int)
        (p.Core.Flow.name ^ " invariant untestable count")
        so.Lint.Report.invariant_untestable sr.Lint.Report.invariant_untestable)
    [
      ("dk16", Synth.Assign.Input_dominant, Synth.Flow.Delay);
      ("pma", Synth.Assign.Output_dominant, Synth.Flow.Delay);
      ("s510", Synth.Assign.Combined, Synth.Flow.Delay);
      ("s820", Synth.Assign.Combined, Synth.Flow.Rugged);
      ("s832", Synth.Assign.Output_dominant, Synth.Flow.Rugged);
      ("scf", Synth.Assign.Input_dominant, Synth.Flow.Delay);
    ]

(* A crafted "pair" exercising the invariant metric where it is nonzero:
   the same gates and PIs built in two different creation orders (so every
   node id differs, as it does after retiming) must produce the same
   count — the metric depends only on the preserved gate/PI sites. *)
let test_invariant_nonzero_under_retiming () =
  let build order_flipped =
    let b = Netlist.Build.create () in
    let x, q =
      if order_flipped then
        let q = Netlist.Build.add_dff b "q" in
        (Netlist.Build.add_pi b "x", q)
      else
        let x = Netlist.Build.add_pi b "x" in
        (x, Netlist.Build.add_dff b "q")
    in
    let one = Netlist.Build.add_const b "one" true in
    let g1 = Netlist.Build.add_gate b Netlist.Node.Or "g1" [| x; one |] in
    let g2 = Netlist.Build.add_gate b Netlist.Node.And "g2" [| g1; q |] in
    Netlist.Build.connect_dff b q x;
    Netlist.Build.add_po b "z" g2;
    Netlist.Build.finalize b
  in
  let so = Lint.Report.lint_netlist ~symbolic:false (build false) in
  let sr = Lint.Report.lint_netlist ~symbolic:false (build true) in
  Alcotest.(check bool) "nonzero" true (so.Lint.Report.invariant_untestable > 0);
  Alcotest.(check int) "id-independent" so.Lint.Report.invariant_untestable
    sr.Lint.Report.invariant_untestable

(* --- ATPG guidance ------------------------------------------------------------ *)

(* The SCOAP guide is behind an option: omitted, engines must behave
   exactly as before; supplied, the engine still produces a validated
   result (every test is checked by fault simulation, so coverage is
   trustworthy either way). *)
let test_guided_atpg () =
  let r = Helpers.synthesize_small () in
  let c = r.Synth.Flow.circuit in
  let guide = Lint.Scoap.controllability (Lint.Scoap.compute c) in
  let plain = Atpg.Hitec.generate ~seed:3 c in
  let guided = Atpg.Hitec.generate ~seed:3 ~guide c in
  Alcotest.(check int) "same fault universe"
    (Array.length plain.Atpg.Types.faults)
    (Array.length guided.Atpg.Types.faults);
  Alcotest.(check bool) "guided coverage sane" true
    (guided.Atpg.Types.fault_coverage >= 50.0)

let suite =
  [
    Alcotest.test_case "NET001 combinational cycle" `Quick test_cycle_rule;
    Alcotest.test_case "NET002 structure + duplicate PO" `Quick
      test_structure_rule;
    Alcotest.test_case "check: DFF bad fanin reported once" `Quick
      test_check_dff_single_report;
    Alcotest.test_case "NET003 dead gate" `Quick test_dead_rule;
    Alcotest.test_case "NET005/NET006 constants + untestable" `Quick
      test_constant_and_untestable_rules;
    Alcotest.test_case "clean circuit stays clean" `Quick test_clean_circuit;
    Alcotest.test_case "SCOAP sanity" `Quick test_scoap_sanity;
    Alcotest.test_case "FFR partition" `Quick test_ffr_partition;
    Alcotest.test_case "NET008 sequential redundancy" `Quick
      test_seq_redundant_rule;
    Alcotest.test_case "NET006 blocker the fault corrupts" `Quick
      test_untestable_needs_uncorrupted_blocker;
    Alcotest.test_case "FSM001 unreachable" `Quick test_fsm_unreachable;
    Alcotest.test_case "FSM002 dead state" `Quick test_fsm_dead_state;
    Alcotest.test_case "FSM003 nondeterminism" `Quick test_fsm_nondet;
    Alcotest.test_case "FSM004 incomplete" `Quick test_fsm_incomplete;
    Alcotest.test_case "benchmark FSMs have no errors" `Quick
      test_fsm_benchmarks_deterministic;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "diagnostic JSON round-trip" `Quick test_diag_roundtrip;
    Alcotest.test_case "report JSON round-trip" `Quick test_report_json;
    Alcotest.test_case "find_by_name index" `Quick test_find_by_name;
    Alcotest.test_case "invariant metric id-independent" `Quick
      test_invariant_nonzero_under_retiming;
    Alcotest.test_case "Theorem 1: invariant untestable count" `Slow
      test_theorem1_invariant;
    Alcotest.test_case "SCOAP-guided ATPG" `Slow test_guided_atpg;
  ]
