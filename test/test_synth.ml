(* Synthesis flow: state minimization, assignment, encoding, scripts,
   technology mapping — each stage checked for functional correctness
   against the (completed) machine semantics. *)

(* Compare a synthesized circuit against its machine on the whole
   (state, input) space; don't-care output bits are skipped. *)
let circuit_matches_machine (r : Synth.Flow.result) =
  let m = r.Synth.Flow.machine in
  let codes = r.Synth.Flow.codes and bits = r.Synth.Flow.bits in
  let ni = m.Fsm.Machine.num_inputs in
  let c = r.Synth.Flow.circuit in
  let sim = Sim.Scalar.create c in
  let npi = Netlist.Node.num_pis c in
  let bad = ref 0 in
  for s = 0 to Fsm.Machine.num_states m - 1 do
    for code = 0 to (1 lsl ni) - 1 do
      let state = Helpers.state_vector c ~bits codes.(s) in
      let inputs =
        Array.init npi (fun i ->
            if i < ni then Sim.Value3.of_bool ((code lsr i) land 1 = 1)
            else Sim.Value3.Zero)
      in
      let outs_c, next_c = Sim.Scalar.transition sim ~state ~inputs in
      let dst, outs = Fsm.Machine.step_observed m ~state:s ~input_code:code in
      Array.iteri
        (fun k ov ->
          match ov with
          | Sim.Value3.X -> ()
          | v -> if outs_c.(k) <> v then incr bad)
        outs;
      Array.iteri
        (fun j v ->
          if
            j < bits
            && v <> Sim.Value3.of_bool ((codes.(dst) lsr j) land 1 = 1)
          then incr bad)
        next_c
    done
  done;
  !bad

let test_minimize_states_behaviour () =
  (* build an FSM with duplicated states by construction: two copies of the
     same machine glued at the reset state can't be distinguished *)
  let m = Helpers.small_fsm ~states:8 () in
  let mm = Synth.Minimize_states.minimize m in
  Alcotest.(check bool) "not larger" true
    (Fsm.Machine.num_states mm <= Fsm.Machine.num_states m);
  (* behaviourally equivalent under completion *)
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 30 do
    let seq =
      List.init 40 (fun _ ->
          Sim.Vectors.random_vector rng m.Fsm.Machine.num_inputs)
    in
    Alcotest.(check bool) "same outputs" true
      (Fsm.Machine.run m seq = Fsm.Machine.run mm seq)
  done

let test_minimize_merges_duplicates () =
  (* machine with states 1 and 2 exactly equivalent *)
  let t in_care in_value src dst out_value =
    { Fsm.Machine.in_care; in_value; src; dst; out_care = 1; out_value }
  in
  let m =
    {
      Fsm.Machine.name = "dup";
      num_inputs = 1;
      num_outputs = 1;
      state_names = [| "a"; "b"; "c" |];
      reset = 0;
      transitions =
        [|
          t 1 0 0 1 0; t 1 1 0 2 1;
          t 1 0 1 0 1; t 1 1 1 1 0;
          t 1 0 2 0 1; t 1 1 2 1 0;
        |];
    }
  in
  let mm = Synth.Minimize_states.minimize m in
  Alcotest.(check int) "b and c merge" 2 (Fsm.Machine.num_states mm)

let test_assign_properties () =
  let m = Helpers.small_fsm ~states:7 () in
  List.iter
    (fun alg ->
      let codes, bits = Synth.Assign.assign alg m in
      Alcotest.(check int) "bits" 3 bits;
      Alcotest.(check int) "reset at 0" 0 codes.(m.Fsm.Machine.reset);
      let sorted = List.sort_uniq compare (Array.to_list codes) in
      Alcotest.(check int) "codes distinct" (Array.length codes)
        (List.length sorted);
      Array.iter
        (fun c ->
          Alcotest.(check bool) "in range" true (c >= 0 && c < 8))
        codes)
    [ Synth.Assign.Input_dominant; Synth.Assign.Output_dominant;
      Synth.Assign.Combined ]

let test_encode_correct () =
  let m = Helpers.small_fsm () in
  let assignment = Synth.Assign.assign Synth.Assign.Combined m in
  let e = Synth.Encode.encode m assignment in
  let codes, _ = assignment in
  let bad = ref 0 in
  for s = 0 to Fsm.Machine.num_states m - 1 do
    for code = 0 to (1 lsl m.Fsm.Machine.num_inputs) - 1 do
      let dst, outs = Fsm.Machine.step_observed m ~state:s ~input_code:code in
      let next, eouts = Synth.Encode.eval e ~state_code:codes.(s) ~input_code:code in
      if next <> codes.(dst) then incr bad;
      Array.iteri
        (fun k ov ->
          match ov with
          | Sim.Value3.X -> ()
          | v -> if Sim.Value3.of_bool eouts.(k) <> v then incr bad)
        outs
    done
  done;
  Alcotest.(check int) "encode matches machine" 0 !bad

let test_full_flow_all_options () =
  List.iter
    (fun (alg, script) ->
      List.iter
        (fun reset_line ->
          let r =
            Helpers.synthesize_small ~alg ~script ~reset_line ~seed:21 ()
          in
          Netlist.Check.assert_ok r.Synth.Flow.circuit;
          Alcotest.(check int)
            (Printf.sprintf "functional (%s reset=%b)" r.Synth.Flow.name
               reset_line)
            0
            (circuit_matches_machine r))
        [ false; true ])
    [
      (Synth.Assign.Input_dominant, Synth.Flow.Rugged);
      (Synth.Assign.Input_dominant, Synth.Flow.Delay);
      (Synth.Assign.Output_dominant, Synth.Flow.Rugged);
      (Synth.Assign.Combined, Synth.Flow.Delay);
    ]

let test_reset_line_forces_state () =
  let r =
    Helpers.synthesize_small ~reset_line:true ~seed:9 ~states:6 ()
  in
  let c = r.Synth.Flow.circuit in
  let sim = Sim.Scalar.create c in
  let npi = Netlist.Node.num_pis c in
  (* from an arbitrary state, asserting reset must drive the state to the
     all-zero (reset) code *)
  let code = (1 lsl r.Synth.Flow.bits) - 1 in
  let state =
    Helpers.state_vector c ~bits:r.Synth.Flow.bits code
    |> Array.mapi (fun j v -> if j < r.Synth.Flow.bits then Sim.Value3.One else v)
  in
  ignore code;
  let inputs =
    Array.init npi (fun i -> if i = npi - 1 then Sim.Value3.One else Sim.Value3.Zero)
  in
  let _, next = Sim.Scalar.transition sim ~state ~inputs in
  Array.iteri
    (fun j v ->
      if j < r.Synth.Flow.bits then
        Alcotest.check Helpers.v3
          (Printf.sprintf "bit %d zero" j)
          Sim.Value3.Zero v)
    next

let test_mapped_gates_in_library () =
  let r = Helpers.synthesize_small ~seed:33 () in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn ->
        let arity = Array.length nd.Netlist.Node.fanins in
        let in_lib =
          List.exists
            (fun (cell : Synth.Library.cell) ->
              cell.Synth.Library.fn = fn && cell.Synth.Library.arity = arity)
            Synth.Library.cells
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s arity %d in library" (Netlist.Node.gate_fn_name fn) arity)
          true in_lib
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
    r.Synth.Flow.circuit.Netlist.Node.nodes

let test_delay_objective_not_slower () =
  (* the delay-mapped circuit should not be slower than the area-mapped one
     for the same network (usually strictly faster or equal) *)
  let m = Helpers.small_fsm ~seed:40 ~states:8 () in
  let codes = Synth.Assign.assign Synth.Assign.Combined m in
  let e = Synth.Encode.encode m codes in
  let net = Synth.Network.of_encoded e in
  Synth.Scripts.script_rugged net;
  let spec =
    {
      Synth.Emit.circuit_name = "toy";
      ni = m.Fsm.Machine.num_inputs;
      no = m.Fsm.Machine.num_outputs;
      bits = snd codes;
      reset_line = false;
    }
  in
  let generic = Synth.Emit.to_netlist spec net in
  let area_mapped = Synth.Techmap.map ~objective:`Area generic in
  let delay_mapped = Synth.Techmap.map ~objective:`Delay generic in
  Alcotest.(check bool) "delay map not slower" true
    (Netlist.Node.critical_path delay_mapped
     <= Netlist.Node.critical_path area_mapped +. 1e-9);
  Alcotest.(check bool) "area map not bigger" true
    (Netlist.Node.area area_mapped <= Netlist.Node.area delay_mapped +. 1e-9)

let qcheck_flow_random_fsms =
  Helpers.qcheck_case ~count:12 "random FSMs synthesize correctly"
    QCheck2.Gen.(int_range 50 70)
    (fun seed ->
      let r = Helpers.synthesize_small ~seed ~states:5 () in
      Netlist.Check.is_well_formed r.Synth.Flow.circuit
      && circuit_matches_machine r = 0)

(* Synthesis output pinned to structural hashes: any change to what the
   scripts, the minimizer or the mapper produce fails here, not only in
   downstream numbers.  The circuit is the [original] of [Core.Flow.build],
   from the same [Core.Flow.synthesize] call without the retiming that
   follows it. *)
let test_golden_synthesis_hashes () =
  List.iter
    (fun (fsm, algorithm, script, want) ->
      let r = Core.Flow.synthesize fsm algorithm script in
      Alcotest.(check string) r.Synth.Flow.name want
        (Netlist.Structhash.circuit r.Synth.Flow.circuit))
    Synth.Assign.
      [
        ("pma", Input_dominant, Synth.Flow.Rugged, "faf86647828ac672");
        ("dk16", Input_dominant, Synth.Flow.Delay, "28aa055c2c44e829");
        ("s510", Combined, Synth.Flow.Rugged, "bbfa187ba2cb3661");
        ("scf", Input_dominant, Synth.Flow.Rugged, "2a1f750eb2180cf6");
      ]

(* Retiming output pinned the same way: the [retimed] circuit of four
   Table-2 pairs and one partially retimed Table-7 version.  Any change to
   FEAS, the period search, deepening or materialization fails here. *)
let test_golden_retiming_hashes () =
  List.iter
    (fun (fsm, algorithm, script, want) ->
      let p = Core.Flow.pair fsm algorithm script in
      Alcotest.(check string) (p.Core.Flow.name ^ ".re") want
        (Netlist.Structhash.circuit p.Core.Flow.retimed))
    Synth.Assign.
      [
        ("dk16", Input_dominant, Synth.Flow.Delay, "a72d80bb95813fef");
        ("pma", Output_dominant, Synth.Flow.Delay, "5f2e62c7fa05a33e");
        ("s510", Combined, Synth.Flow.Delay, "06589e7027288744");
        ("scf", Input_dominant, Synth.Flow.Delay, "a2bf2f42f62af4b2");
      ];
  let name, c, _ =
    List.find
      (fun (name, _, _) -> name = "s510.jo.sr.re.v2")
      (Core.Flow.sensitivity_versions ())
  in
  Alcotest.(check string) name "6646f13ba1d44cfe" (Netlist.Structhash.circuit c)

let suite =
  [
    Alcotest.test_case "state minimization behaviour" `Quick
      test_minimize_states_behaviour;
    Alcotest.test_case "state minimization merges duplicates" `Quick
      test_minimize_merges_duplicates;
    Alcotest.test_case "assignment properties" `Quick test_assign_properties;
    Alcotest.test_case "encoding correct" `Quick test_encode_correct;
    Alcotest.test_case "full flow, all options" `Slow
      test_full_flow_all_options;
    Alcotest.test_case "reset line forces state 0" `Quick
      test_reset_line_forces_state;
    Alcotest.test_case "mapped gates are library cells" `Quick
      test_mapped_gates_in_library;
    Alcotest.test_case "mapping objectives" `Quick
      test_delay_objective_not_slower;
    qcheck_flow_random_fsms;
    Alcotest.test_case "golden synthesis hashes" `Quick
      test_golden_synthesis_hashes;
    Alcotest.test_case "golden retiming hashes" `Quick
      test_golden_retiming_hashes;
  ]
