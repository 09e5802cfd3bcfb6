(* Conflict-driven structural learning (Atpg.Learn): clause derivation
   from implication states, cross-fault and cross-frame reuse, failed-cube
   generalization, and the two global guarantees — learn-off stays
   bit-identical to the seed engine, and learn-on never contradicts a
   resolved learn-off verdict. *)

(* stem = Buf(a) feeding And(stem, b) -> PO: with b = 0 the AND is a
   determinate-equal wall one hop from the fault site, so the minimal
   blocking clause is exactly [(And, frame 0, 0)]. *)
let wall_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let bi = Netlist.Build.add_pi b "b" in
  let stem = Netlist.Build.add_gate b Netlist.Node.Buf "stem" [| a |] in
  let g = Netlist.Build.add_gate b Netlist.Node.And "g" [| stem; bi |] in
  Netlist.Build.add_po b "out" g;
  (Netlist.Build.finalize b, stem, g)

(* stem = Buf(a) -> DFF -> And(dff, b) -> PO: the only wall sits one
   frame later than the fault site, so the derived clause carries a
   relative-frame-1 literal. *)
let cross_frame_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let bi = Netlist.Build.add_pi b "b" in
  let q = Netlist.Build.add_dff b "q" in
  let stem = Netlist.Build.add_gate b Netlist.Node.Buf "stem" [| a |] in
  let g = Netlist.Build.add_gate b Netlist.Node.And "g" [| q; bi |] in
  Netlist.Build.connect_dff b q stem;
  Netlist.Build.add_po b "out" g;
  (Netlist.Build.finalize b, stem, g)

let sa0 id = { Fsim.Fault.site = Fsim.Fault.Stem id; stuck = false }
let sa1 id = { Fsim.Fault.site = Fsim.Fault.Stem id; stuck = true }

let pi_index c name =
  let id = Netlist.Node.find_by_name c name in
  let r = ref (-1) in
  Array.iteri (fun i pid -> if pid = id then r := i) c.Netlist.Node.pis;
  !r

let test_minimal_clause () =
  let c, stem, g = wall_circuit () in
  let fault = sa0 stem in
  let stats = Atpg.Types.new_stats () in
  let tape = Sim.Tape.compile c in
  let fr = Atpg.Frames.create ~fault tape ~frames:1 ~stats in
  fr.Atpg.Frames.pi.(0).(pi_index c "b") <- Sim.Value3.Zero;
  Atpg.Frames.imply fr;
  let t = Atpg.Learn.create tape in
  let site = Atpg.Learn.anchor fault in
  match Atpg.Learn.analyze t ~site ~stats fr with
  | None -> Alcotest.fail "expected a clause"
  | Some clause ->
    Alcotest.(check int) "one literal" 1 (Array.length clause);
    let l = clause.(0) in
    Alcotest.(check int) "wall is the AND" (Atpg.Learn.key_of_node t g)
      l.Atpg.Learn.key;
    Alcotest.(check int) "frame 0" 0 l.Atpg.Learn.frame;
    Alcotest.(check bool) "value 0" false l.Atpg.Learn.value;
    Alcotest.(check int) "conflict counted" 1 stats.Atpg.Types.learn_conflicts

let test_analyze_refuses_open_cone () =
  (* with b unassigned the potential-D cone runs straight into the PO:
     no sound clause exists and analyze must say so *)
  let c, stem, _ = wall_circuit () in
  let fault = sa0 stem in
  let stats = Atpg.Types.new_stats () in
  let tape = Sim.Tape.compile c in
  let fr = Atpg.Frames.create ~fault tape ~frames:1 ~stats in
  Atpg.Frames.imply fr;
  let t = Atpg.Learn.create tape in
  Alcotest.(check bool) "no clause" true
    (Atpg.Learn.analyze t ~site:(Atpg.Learn.anchor fault) ~stats fr = None);
  Alcotest.(check bool) "store empty, nothing blocked" false
    (Atpg.Learn.blocked t ~site:(Atpg.Learn.anchor fault) ~stats fr)

let test_cross_frame_clause_and_reuse () =
  let c, stem, g = cross_frame_circuit () in
  let fault = sa0 stem in
  let stats = Atpg.Types.new_stats () in
  let tape = Sim.Tape.compile c in
  let fr = Atpg.Frames.create ~fault tape ~frames:2 ~stats in
  fr.Atpg.Frames.pi.(1).(pi_index c "b") <- Sim.Value3.Zero;
  Atpg.Frames.imply fr;
  let t = Atpg.Learn.create tape in
  let site = Atpg.Learn.anchor fault in
  (match Atpg.Learn.analyze t ~site ~stats fr with
   | None -> Alcotest.fail "expected a clause"
   | Some clause ->
     Alcotest.(check int) "one literal" 1 (Array.length clause);
     Alcotest.(check int) "literal in frame 1" 1 clause.(0).Atpg.Learn.frame;
     Alcotest.(check int) "wall is the AND" (Atpg.Learn.key_of_node t g)
       clause.(0).Atpg.Learn.key);
  (* the store is consulted by anchor node: the opposite-polarity fault
     of the same equivalence class reuses the clause verbatim *)
  Alcotest.(check bool) "same-site reuse (sa0)" true
    (Atpg.Learn.blocked t ~site ~stats fr);
  Alcotest.(check bool) "cross-fault reuse (sa1)" true
    (Atpg.Learn.blocked t ~site:(Atpg.Learn.anchor (sa1 stem)) ~stats fr);
  Alcotest.(check bool) "hits counted" true (stats.Atpg.Types.learn_hits >= 2);
  (* a state where the wall is gone must not match *)
  fr.Atpg.Frames.pi.(1).(pi_index c "b") <- Sim.Value3.X;
  Atpg.Frames.imply fr;
  Alcotest.(check bool) "open state not blocked" false
    (Atpg.Learn.blocked t ~site ~stats fr)

let test_failed_cube_generalization () =
  let c, _, _ = wall_circuit () in
  let t = Atpg.Learn.create (Sim.Tape.compile c) in
  let stats = Atpg.Types.new_stats () in
  let x = Sim.Value3.X and z = Sim.Value3.Zero and o = Sim.Value3.One in
  (* complete refutation that only ever read bit 0: generalizes to (0,-) *)
  Atpg.Learn.note_failed_cube t ~complete:true ~read:[| true; false |] ~stats
    [| z; o |];
  Alcotest.(check bool) "refined cube pruned" true
    (Atpg.Learn.cube_blocked t ~stats [| z; z |]);
  Alcotest.(check bool) "unread bit ignored" true
    (Atpg.Learn.cube_blocked t ~stats [| z; o |]);
  Alcotest.(check bool) "conflicting bit not pruned" false
    (Atpg.Learn.cube_blocked t ~stats [| o; o |]);
  (* incomplete refutations record the exact signature only *)
  Atpg.Learn.note_failed_cube t ~complete:false ~read:[| true; true |] ~stats
    [| o; x |];
  Alcotest.(check bool) "exact signature recorded incomplete" true
    (Atpg.Learn.failed_exact t "1x" = Some false);
  Alcotest.(check bool) "incomplete cube does not generalize" false
    (Atpg.Learn.cube_blocked t ~stats [| o; z |]);
  let clauses, _, cubes = Atpg.Learn.sizes t in
  Alcotest.(check int) "no phase-A clauses" 0 clauses;
  Alcotest.(check int) "one generalized cube" 1 cubes

(* Budget of the CI table runs (SATPG_BUDGET=0.05), spelled explicitly so
   the test pins machine-independent numbers whatever the environment. *)
let ci_config =
  {
    Atpg.Types.default_config with
    Atpg.Types.backtrack_limit = 40;
    work_limit = 60_000;
    total_work_limit = 12_500_000;
  }

let study_pairs =
  [ ("dk16", Synth.Assign.Input_dominant, Synth.Flow.Delay);
    ("pma", Synth.Assign.Output_dominant, Synth.Flow.Delay);
    ("s510", Synth.Assign.Combined, Synth.Flow.Delay);
    ("s820", Synth.Assign.Combined, Synth.Flow.Rugged);
    ("s832", Synth.Assign.Output_dominant, Synth.Flow.Rugged);
    ("scf", Synth.Assign.Input_dominant, Synth.Flow.Delay) ]

let test_learn_off_bit_identity () =
  (* learn-off must be bit-identical to the seed engine on every study
     pair, under both the sequential and the parallel driver.  The
     anchor: dk16.ji.sd retimed at this budget has produced exactly
     these numbers since the engine was seeded. *)
  let with_jobs n f =
    Exec.Pool.set_jobs n;
    Fun.protect ~finally:Exec.Pool.reset_jobs f
  in
  List.iter
    (fun (name, alg, script) ->
      let p = Core.Flow.pair name alg script in
      List.iter
        (fun (label, circuit) ->
          let cfg = { ci_config with Atpg.Types.struct_learn = false } in
          let r1 = with_jobs 1 (fun () -> Atpg.Run.generate ~config:cfg circuit) in
          let r4 = with_jobs 4 (fun () -> Atpg.Run.generate ~config:cfg circuit) in
          Alcotest.(check bool)
            (label ^ " status j1=j4") true
            (r1.Atpg.Types.status = r4.Atpg.Types.status);
          Alcotest.(check int)
            (label ^ " work j1=j4")
            (Atpg.Types.work_units r1.Atpg.Types.stats)
            (Atpg.Types.work_units r4.Atpg.Types.stats);
          Alcotest.(check (float 0.0))
            (label ^ " coverage j1=j4")
            r1.Atpg.Types.fault_coverage r4.Atpg.Types.fault_coverage;
          if label = "dk16.ji.sd.re" then begin
            Alcotest.(check int) "seed-engine work units" 6_661_226
              (Atpg.Types.work_units r1.Atpg.Types.stats);
            Alcotest.(check (float 1e-9)) "seed-engine coverage"
              94.77088948787062 r1.Atpg.Types.fault_coverage
          end)
        [ (p.Core.Flow.name, p.Core.Flow.original);
          (p.Core.Flow.name ^ ".re", p.Core.Flow.retimed) ])
    study_pairs

let test_learn_race_detection_equality () =
  (* 30-circuit seeded sweep: learn-on may flip aborted <-> resolved
     (that budget effect is the point of learning) but two resolved
     verdicts must never contradict, and a redundancy claim must never
     cover a fault the random fault simulation detects. *)
  let fuzz_cfg struct_learn =
    { Atpg.Types.default_config with Atpg.Types.learn = false; struct_learn }
  in
  for seed = 7000 to 7014 do
    let r =
      Synth.Flow.synthesize ~reset_line:false ~algorithm:Synth.Assign.Combined
        ~script:Synth.Flow.Rugged
        (Fsm.Generate.generate
           {
             Fsm.Generate.default_spec with
             Fsm.Generate.name = Printf.sprintf "learnfuzz%d" seed;
             num_inputs = 2 + (seed mod 2);
             num_outputs = 1 + (seed mod 2);
             num_states = 4 + (seed mod 4);
             cubes_per_state = 3;
             seed;
           })
    in
    let c = r.Synth.Flow.circuit in
    let re, _ = Retime.Apply.retime_min_period c in
    List.iter
      (fun (label, circuit) ->
        let off =
          Atpg.Run.generate ~config:(fuzz_cfg false) ~seed circuit
        in
        let on = Atpg.Run.generate ~config:(fuzz_cfg true) ~seed circuit in
        Array.iteri
          (fun i s ->
            let s' = on.Atpg.Types.status.(i) in
            if s <> s' && s <> Fsim.Fault.Aborted && s' <> Fsim.Fault.Aborted
            then
              Alcotest.failf "seed %d %s fault %d: off=%s on=%s" seed label i
                (Fsim.Fault.status_to_string s)
                (Fsim.Fault.status_to_string s'))
          off.Atpg.Types.status;
        let faults = Fsim.Collapse.list circuit in
        let rng = Random.State.make [| seed; 0xf5 |] in
        let vectors =
          Sim.Vectors.random_sequence rng
            ~width:(Netlist.Node.num_pis circuit)
            ~length:32
        in
        let sim = Fsim.Engine.simulate circuit faults vectors in
        Array.iteri
          (fun i d ->
            if
              d
              && (off.Atpg.Types.status.(i) = Fsim.Fault.Redundant
                  || on.Atpg.Types.status.(i) = Fsim.Fault.Redundant)
            then
              Alcotest.failf
                "seed %d %s fault %d: redundant but simulation-detected" seed
                label i)
          sim.Fsim.Engine.detected)
      [ ("original", c); ("retimed", re) ]
  done

let suite =
  [
    Alcotest.test_case "minimal blocking clause" `Quick test_minimal_clause;
    Alcotest.test_case "analyze refuses open cone" `Quick
      test_analyze_refuses_open_cone;
    Alcotest.test_case "cross-frame clause, cross-fault reuse" `Quick
      test_cross_frame_clause_and_reuse;
    Alcotest.test_case "failed-cube generalization" `Quick
      test_failed_cube_generalization;
    Alcotest.test_case "learn-off bit-identity (6 pairs, j1/j4)" `Slow
      test_learn_off_bit_identity;
    Alcotest.test_case "learn-on/off detection equality (30 circuits)" `Slow
      test_learn_race_detection_equality;
  ]
