(* ATPG engines: frames model, PODEM phases, justification, drivers.
   Everything runs on small synthesized circuits with tight budgets. *)

let small_circuit ?(seed = 55) ?(reset_line = false) () =
  (Helpers.synthesize_small ~alg:Synth.Assign.Combined
     ~script:Synth.Flow.Rugged ~reset_line ~seed ~states:6 ())
    .Synth.Flow.circuit

let tiny_config =
  {
    Atpg.Types.default_config with
    Atpg.Types.backtrack_limit = 200;
    work_limit = 300_000;
    total_work_limit = 60_000_000;
  }

let test_frames_good_matches_scalar () =
  (* with fully assigned inputs and state, the frames' good machine must
     equal the scalar simulator cycle by cycle *)
  let c = Helpers.toy_circuit () in
  let stats = Atpg.Types.new_stats () in
  let fr = Atpg.Frames.create (Sim.Tape.compile c) ~frames:3 ~stats in
  let rng = Random.State.make [| 9 |] in
  let vectors = List.init 3 (fun _ -> Sim.Vectors.random_vector rng 2) in
  List.iteri
    (fun t v ->
      Array.iteri (fun i b -> fr.Atpg.Frames.pi.(t).(i) <- Sim.Value3.of_bool b) v)
    vectors;
  Array.iteri (fun j _ -> fr.Atpg.Frames.ps0.(j) <- Sim.Value3.Zero)
    fr.Atpg.Frames.ps0;
  Atpg.Frames.imply fr;
  let sim = Sim.Scalar.create c in
  Sim.Scalar.reset sim;
  List.iteri
    (fun t v ->
      let out = Sim.Scalar.step sim (Sim.Vectors.to_v3 v) in
      Array.iteri
        (fun k (_, id) ->
          Alcotest.check Helpers.v3
            (Printf.sprintf "frame %d po %d" t k)
            out.(k)
            fr.Atpg.Frames.good.(t).(id))
        (Array.mapi (fun k po -> (k, snd po)) c.Netlist.Node.pos
         |> Array.map (fun (k, id) -> (k, id))))
    vectors

let test_frames_fault_injection () =
  let c = Helpers.toy_circuit () in
  let n3 = Netlist.Node.find_by_name c "n3" in
  let f = { Fsim.Fault.site = Fsim.Fault.Stem n3; stuck = true } in
  let stats = Atpg.Types.new_stats () in
  let fr =
    Atpg.Frames.create ~fault:f (Sim.Tape.compile c) ~frames:1 ~stats
  in
  Array.iteri (fun i _ -> fr.Atpg.Frames.pi.(0).(i) <- Sim.Value3.Zero)
    fr.Atpg.Frames.pi.(0);
  Array.iteri (fun j _ -> fr.Atpg.Frames.ps0.(j) <- Sim.Value3.Zero)
    fr.Atpg.Frames.ps0;
  Atpg.Frames.imply fr;
  (* out = q0 xor q1 = 0 in good, forced 1 in faulty: a D' *)
  Alcotest.check Helpers.v3 "good 0" Sim.Value3.Zero fr.Atpg.Frames.good.(0).(n3);
  Alcotest.check Helpers.v3 "faulty 1" Sim.Value3.One fr.Atpg.Frames.faulty.(0).(n3);
  Alcotest.(check bool) "detected" true (Atpg.Frames.detected fr)

let test_phase_a_finds_easy_fault () =
  let c = small_circuit () in
  let faults = Fsim.Collapse.list c in
  (* pick a PO-adjacent stem fault: should be found without backtracking
     storms *)
  let stats = Atpg.Types.new_stats () in
  let f = faults.(0) in
  let fr =
    Atpg.Frames.create ~fault:f (Sim.Tape.compile c) ~frames:4 ~stats
  in
  match Atpg.Podem.phase_a fr f tiny_config stats with
  | Atpg.Podem.Detected -> ()
  | Atpg.Podem.Exhausted _ ->
    (* acceptable only if the fault is genuinely undetectable within the
       window; verify with brute-force random simulation *)
    let rng = Random.State.make [| 1 |] in
    let vectors =
      List.init 500 (fun _ ->
          Sim.Vectors.random_vector rng (Netlist.Node.num_pis c))
    in
    Alcotest.(check bool) "exhaustion only for undetectable" false
      (Fsim.Engine.detects c f vectors)

let test_justify_reset_compatible () =
  let c = small_circuit () in
  let stats = Atpg.Types.new_stats () in
  let nbits = Netlist.Node.num_dffs c in
  (* the power-up state itself must justify with an empty prefix *)
  let required = Array.make nbits Sim.Value3.X in
  Array.iteri
    (fun j id ->
      if j = 0 then
        required.(j) <- Sim.Value3.of_bool (Netlist.Node.dff_init c id))
    c.Netlist.Node.dffs;
  match
    Atpg.Podem.justify (Sim.Tape.compile c) ~required ~cfg:tiny_config ~stats
      ~learn:None
  with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "expected empty prefix"
  | None -> Alcotest.fail "power-up state must justify"

let test_justify_unreachable_fails () =
  (* a 1-DFF circuit whose state can never become 1: q' = q AND a, init 0 *)
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let q = Netlist.Build.add_dff b "q" in
  let g = Netlist.Build.add_gate b Netlist.Node.And "g" [| q; a |] in
  Netlist.Build.connect_dff b q g;
  Netlist.Build.add_po b "z" g;
  let c = Netlist.Build.finalize b in
  let stats = Atpg.Types.new_stats () in
  let required = [| Sim.Value3.One |] in
  Alcotest.(check bool) "unreachable state not justified" true
    (Atpg.Podem.justify (Sim.Tape.compile c) ~required ~cfg:tiny_config
       ~stats ~learn:None
    = None)

let test_generated_tests_validated () =
  let c = small_circuit ~seed:58 () in
  let r = Atpg.Run.generate ~config:tiny_config ~seed:2 c in
  (* every Detected fault must actually be detected by some test sequence,
     each applied from power-up (ground truth re-check) *)
  let detected = Array.make (Array.length r.Atpg.Types.faults) false in
  List.iter
    (fun seq ->
      let run = Fsim.Engine.simulate ~skip:detected c r.Atpg.Types.faults seq in
      Array.iteri
        (fun i d -> if d then detected.(i) <- true)
        run.Fsim.Engine.detected)
    r.Atpg.Types.test_sets;
  Array.iteri
    (fun i st ->
      if st = Fsim.Fault.Detected then
        Alcotest.(check bool)
          (Printf.sprintf "fault %d truly detected" i)
          true detected.(i))
    r.Atpg.Types.status

let test_redundant_faults_sound () =
  let c = small_circuit ~seed:59 () in
  let r = Atpg.Run.generate ~config:tiny_config ~seed:3 c in
  (* redundancy claims are checked against heavy random simulation *)
  let rng = Random.State.make [| 77 |] in
  let vectors =
    List.init 2000 (fun _ ->
        Sim.Vectors.random_vector rng (Netlist.Node.num_pis c))
  in
  Array.iteri
    (fun i st ->
      if st = Fsim.Fault.Redundant then
        Alcotest.(check bool) "redundant fault not detectable" false
          (Fsim.Engine.detects c r.Atpg.Types.faults.(i) vectors))
    r.Atpg.Types.status

let test_high_coverage_on_small () =
  let c = small_circuit ~seed:60 ~reset_line:true () in
  let r = Atpg.Run.generate ~config:tiny_config ~seed:4 c in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.1f >= 95" r.Atpg.Types.fault_coverage)
    true
    (r.Atpg.Types.fault_coverage >= 95.0)

let test_attest_engine () =
  let c = small_circuit ~seed:61 () in
  let r = Atpg.Attest.generate ~config:tiny_config c in
  Alcotest.(check bool)
    (Printf.sprintf "attest coverage %.1f >= 80" r.Atpg.Types.fault_coverage)
    true
    (r.Atpg.Types.fault_coverage >= 80.0);
  (* the Attest engine never claims redundancy: FE = FC *)
  Alcotest.(check (float 0.001)) "FE = FC" r.Atpg.Types.fault_coverage
    r.Atpg.Types.fault_efficiency

let test_sest_learning_helps_or_equal () =
  let c = small_circuit ~seed:62 () in
  let base = { tiny_config with Atpg.Types.learn = false } in
  let learn = { tiny_config with Atpg.Types.learn = true } in
  let r0 = Atpg.Run.generate ~config:base ~seed:5 c in
  let r1 = Atpg.Run.generate ~config:learn ~seed:5 c in
  Alcotest.(check bool) "learning does not reduce coverage" true
    (r1.Atpg.Types.fault_coverage >= r0.Atpg.Types.fault_coverage -. 2.0)

let test_trajectory_monotone () =
  let c = small_circuit ~seed:63 () in
  let r = Atpg.Run.generate ~config:tiny_config ~seed:6 c in
  let rec mono = function
    | (w1, e1) :: ((w2, e2) :: _ as rest) ->
      w1 <= w2 && e1 <= e2 +. 1e-9 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "work and FE nondecreasing" true
    (mono r.Atpg.Types.trajectory)

let test_budget_scaling_env () =
  let base = Atpg.Types.default_config in
  Unix.putenv "SATPG_BUDGET" "2.0";
  let scaled = Atpg.Types.scaled_config ~base () in
  Unix.putenv "SATPG_BUDGET" "";
  Alcotest.(check int) "backtracks doubled" (2 * base.Atpg.Types.backtrack_limit)
    scaled.Atpg.Types.backtrack_limit;
  Alcotest.(check int) "work doubled" (2 * base.Atpg.Types.work_limit)
    scaled.Atpg.Types.work_limit

let with_budget v f =
  Unix.putenv "SATPG_BUDGET" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "SATPG_BUDGET" "") f

(* An unparsable scale warns and leaves the budgets alone; a scale that
   would zero or negate the budgets is rejected outright. *)
let test_budget_env_validation () =
  let base = Atpg.Types.default_config in
  with_budget "not-a-number" (fun () ->
      Alcotest.(check int) "typo leaves budgets unscaled"
        base.Atpg.Types.backtrack_limit
        (Atpg.Types.scaled_config ~base ()).Atpg.Types.backtrack_limit);
  List.iter
    (fun bad ->
      with_budget bad (fun () ->
          match Atpg.Types.scaled_config ~base () with
          | _ -> Alcotest.fail ("accepted SATPG_BUDGET=" ^ bad)
          | exception Invalid_argument _ -> ()))
    [ "0"; "-2"; "inf"; "nan" ]

(* --- event-driven implication vs a full-sweep reference -----------------

   The reference re-evaluates every node of every frame from [from] on,
   walking the netlist's node records in topological order, and lists
   each frame's D-frontier in that order: the sweep [Frames.imply] ran
   before it became event-driven.  Both share the pseudo-inputs of the
   frames under test and keep their own values. *)

type reference = {
  rgood : Sim.Value3.t array array;
  rfaulty : Sim.Value3.t array array;
  rfrontier : int list array;
}

let reference_imply (fr : Atpg.Frames.t) r ~from =
  let c = fr.Atpg.Frames.circuit in
  let stem, pin_site, stuck =
    match fr.Atpg.Frames.fault with
    | Some { Fsim.Fault.site = Fsim.Fault.Stem s; stuck } ->
      (s, None, Sim.Value3.of_bool stuck)
    | Some { Fsim.Fault.site = Fsim.Fault.Pin { gate; pin }; stuck } ->
      (-1, Some (gate, pin), Sim.Value3.of_bool stuck)
    | None -> (-1, None, Sim.Value3.X)
  in
  let faulty_pin frame gate p src =
    if pin_site = Some (gate, p) then stuck else r.rfaulty.(frame).(src)
  in
  for frame = from to fr.Atpg.Frames.k - 1 do
    let g = r.rgood.(frame) and f = r.rfaulty.(frame) in
    Array.iteri
      (fun i id ->
        g.(id) <- fr.Atpg.Frames.pi.(frame).(i);
        f.(id) <- (if id = stem then stuck else g.(id)))
      c.Netlist.Node.pis;
    Array.iteri
      (fun j id ->
        let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
        g.(id) <-
          (if frame = 0 then fr.Atpg.Frames.ps0.(j)
           else r.rgood.(frame - 1).(data));
        f.(id) <-
          (if id = stem then stuck
           else if frame = 0 then fr.Atpg.Frames.ps0.(j)
           else faulty_pin (frame - 1) id 0 data))
      c.Netlist.Node.dffs;
    let front = ref [] in
    Array.iter
      (fun id ->
        let nd = Netlist.Node.node c id in
        match nd.Netlist.Node.kind with
        | Netlist.Node.Gate fn ->
          let fanins = nd.Netlist.Node.fanins in
          let gin = Array.map (fun s -> g.(s)) fanins in
          let fin = Array.mapi (fun p s -> faulty_pin frame id p s) fanins in
          g.(id) <- Sim.Value3.eval_gate fn gin;
          f.(id) <- (if id = stem then stuck else Sim.Value3.eval_gate fn fin);
          if (g.(id) = Sim.Value3.X || f.(id) = Sim.Value3.X)
             && Array.exists2 Atpg.Frames.is_d gin fin
          then front := id :: !front
        | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
      c.Netlist.Node.order;
    r.rfrontier.(frame) <- !front
  done

(* The five fault kinds: stem on a PI, a DFF and a gate; a gate pin; a
   DFF pin.  [None] when the circuit has no site of the kind. *)
let fault_of_kind c rng kind =
  let gates = Array.to_list c.Netlist.Node.order in
  let pick = function
    | [] -> None
    | l -> Some (List.nth l (Random.State.int rng (List.length l)))
  in
  let stuck = Random.State.bool rng in
  let stem id = { Fsim.Fault.site = Fsim.Fault.Stem id; stuck } in
  let pin gate pin =
    { Fsim.Fault.site = Fsim.Fault.Pin { gate; pin }; stuck }
  in
  match kind with
  | 0 -> Option.map stem (pick (Array.to_list c.Netlist.Node.pis))
  | 1 -> Option.map stem (pick (Array.to_list c.Netlist.Node.dffs))
  | 2 -> Option.map stem (pick gates)
  | 3 ->
    Option.map
      (fun g ->
        pin g
          (Random.State.int rng
             (Array.length (Netlist.Node.node c g).Netlist.Node.fanins)))
      (pick gates)
  | _ ->
    Option.map (fun q -> pin q 0) (pick (Array.to_list c.Netlist.Node.dffs))

let random_v3 rng =
  match Random.State.int rng 3 with
  | 0 -> Sim.Value3.Zero
  | 1 -> Sim.Value3.One
  | _ -> Sim.Value3.X

let qcheck_event_driven_imply =
  Helpers.qcheck_case ~count:300
    "event-driven imply ~from = full-sweep reference"
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 1 6) (int_range 0 4))
    (fun (seed, k, kind) ->
      let rng = Random.State.make [| seed; 0xF5 |] in
      let c = Helpers.random_circuit rng in
      match fault_of_kind c rng kind with
      | None -> true
      | Some fault ->
        let stats = Atpg.Types.new_stats () in
        let tape = Sim.Tape.compile c in
        let fr = Atpg.Frames.create ~fault tape ~frames:k ~stats in
        let n = Netlist.Node.num_nodes c in
        let r =
          {
            rgood = Array.init k (fun _ -> Array.make n Sim.Value3.X);
            rfaulty = Array.init k (fun _ -> Array.make n Sim.Value3.X);
            rfrontier = Array.make k [];
          }
        in
        let npi = Netlist.Node.num_pis c and ndff = Netlist.Node.num_dffs c in
        let agree () =
          List.for_all
            (fun t ->
              fr.Atpg.Frames.good.(t) = r.rgood.(t)
              && fr.Atpg.Frames.faulty.(t) = r.rfaulty.(t)
              && fr.Atpg.Frames.frontier.(t) = r.rfrontier.(t))
            (List.init k Fun.id)
        in
        let step () =
          (* assign or unassign one pseudo-input, then imply from its
             frame or, one step in four, from a random one *)
          let frame =
            if Random.State.int rng (npi * k + ndff) < ndff then begin
              let j = Random.State.int rng ndff in
              fr.Atpg.Frames.ps0.(j) <- random_v3 rng;
              0
            end
            else begin
              let t = Random.State.int rng k in
              fr.Atpg.Frames.pi.(t).(Random.State.int rng npi) <- random_v3 rng;
              t
            end
          in
          let from =
            if Random.State.int rng 4 = 0 then Random.State.int rng k
            else frame
          in
          let work = stats.Atpg.Types.work in
          Atpg.Frames.imply ~from fr;
          reference_imply fr r ~from;
          stats.Atpg.Types.work - work = (k - from) * Netlist.Node.num_gates c
          && agree ()
        in
        Atpg.Frames.imply fr;
        reference_imply fr r ~from:0;
        agree () && List.for_all (fun _ -> step ()) (List.init 40 Fun.id))

(* PODEM pinned to digests taken before implication became event-driven:
   per-fault statuses, work units, backtracks, decisions, frames and test
   sequences of a HITEC run on two Table-2 pairs, with structural learning
   off and on.  Any change to what the search does, or to what it is
   charged, fails here. *)
let podem_digest (r : Atpg.Types.result) =
  let b = Buffer.create 1024 in
  Array.iter
    (fun st -> Printf.bprintf b "%s\n" (Fsim.Fault.status_to_string st))
    r.Atpg.Types.status;
  let s = r.Atpg.Types.stats in
  Printf.bprintf b "work_units=%d backtracks=%d decisions=%d frames=%d\n"
    (Atpg.Types.work_units s) s.Atpg.Types.backtracks s.Atpg.Types.decisions
    s.Atpg.Types.frames;
  List.iter
    (fun seq ->
      List.iter
        (fun v ->
          Array.iter (fun x -> Buffer.add_char b (if x then '1' else '0')) v;
          Buffer.add_char b ' ')
        seq;
      Buffer.add_char b '\n')
    r.Atpg.Types.test_sets;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_podem_digests () =
  List.iter
    (fun (fsm, algorithm, script, retimed, struct_learn, want) ->
      let p = Core.Flow.pair fsm algorithm script in
      let name, c = Core.Flow.circuit p ~retimed in
      let config =
        {
          Atpg.Types.default_config with
          Atpg.Types.learn = false;
          struct_learn;
        }
      in
      Alcotest.(check string)
        (Printf.sprintf "%s struct_learn=%b" name struct_learn)
        want
        (podem_digest (Atpg.Hitec.generate ~config c)))
    Synth.Assign.
      [
        ("dk16", Combined, Synth.Flow.Delay, false, false,
         "9fdd97a7235366da45056a56cb15d258");
        ("dk16", Combined, Synth.Flow.Delay, false, true,
         "1888f19156ff479c2644aca5b0ed9183");
        ("dk16", Combined, Synth.Flow.Delay, true, false,
         "3b7e6f95cce8b7a4823a79a02a057405");
        ("dk16", Combined, Synth.Flow.Delay, true, true,
         "bf1aebf9b47c58b5fe2cb1d9910347a1");
        ("pma", Input_dominant, Synth.Flow.Delay, true, false,
         "36d440c77b85f2dbf912fe1edc22dd68");
        ("pma", Input_dominant, Synth.Flow.Delay, true, true,
         "0a5a9188b57547084485e7300d376f01");
      ]

let suite =
  [
    Alcotest.test_case "frames good machine = scalar sim" `Quick
      test_frames_good_matches_scalar;
    Alcotest.test_case "frames fault injection" `Quick
      test_frames_fault_injection;
    Alcotest.test_case "phase A finds easy fault" `Quick
      test_phase_a_finds_easy_fault;
    Alcotest.test_case "justify power-up state" `Quick
      test_justify_reset_compatible;
    Alcotest.test_case "justify unreachable fails" `Quick
      test_justify_unreachable_fails;
    Alcotest.test_case "generated tests validated" `Quick
      test_generated_tests_validated;
    Alcotest.test_case "redundancy claims sound" `Quick
      test_redundant_faults_sound;
    Alcotest.test_case "high coverage on small circuit" `Quick
      test_high_coverage_on_small;
    Alcotest.test_case "attest engine" `Quick test_attest_engine;
    Alcotest.test_case "sest learning" `Quick test_sest_learning_helps_or_equal;
    Alcotest.test_case "trajectory monotone" `Quick test_trajectory_monotone;
    Alcotest.test_case "budget env scaling" `Quick test_budget_scaling_env;
    Alcotest.test_case "budget env validation" `Quick
      test_budget_env_validation;
    qcheck_event_driven_imply;
    Alcotest.test_case "golden PODEM digests" `Quick
      test_golden_podem_digests;
  ]
