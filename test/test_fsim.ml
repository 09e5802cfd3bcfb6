(* Fault model, collapsing and the parallel fault simulator. *)

let test_collapse_list_sane () =
  let c = Helpers.toy_circuit () in
  let faults = Fsim.Collapse.list c in
  Alcotest.(check bool) "non-empty" true (Array.length faults > 0);
  (* no duplicates *)
  let keyed = Array.map (fun f -> Fsim.Fault.to_string c f) faults in
  let distinct = List.sort_uniq compare (Array.to_list keyed) in
  Alcotest.(check int) "distinct" (Array.length faults) (List.length distinct)

let test_collapse_drops_equivalents () =
  (* AND-gate input sa0 on a fanout branch is equivalent to output sa0 and
     must not appear *)
  let c = Helpers.toy_circuit () in
  let faults = Fsim.Collapse.list c in
  let n0 = Netlist.Node.find_by_name c "n0" in
  Array.iter
    (fun (f : Fsim.Fault.t) ->
      match f.Fsim.Fault.site with
      | Fsim.Fault.Pin { gate; _ } when gate = n0 ->
        Alcotest.(check bool) "AND pin fault must be sa1" true f.Fsim.Fault.stuck
      | Fsim.Fault.Pin _ | Fsim.Fault.Stem _ -> ())
    faults

let test_detects_known_fault () =
  (* out = q0 xor q1, both init 0.  PO stem sa1 is detected by any vector. *)
  let c = Helpers.toy_circuit () in
  let n3 = Netlist.Node.find_by_name c "n3" in
  let f = { Fsim.Fault.site = Fsim.Fault.Stem n3; stuck = true } in
  Alcotest.(check bool) "detected" true
    (Fsim.Engine.detects c f [ [| false; false |] ])

let test_undetectable_without_excitation () =
  (* q0 stuck-at-0 with q0 init 0 and inputs held 0: q0' = a&q1 stays 0, so
     the fault never shows.  With a=1 pumping, q1 becomes 1 then q0'=1 and
     the fault is visible at out = q0 xor q1. *)
  let c = Helpers.toy_circuit () in
  let q0 = Netlist.Node.find_by_name c "q0" in
  let f = { Fsim.Fault.site = Fsim.Fault.Stem q0; stuck = false } in
  let zeros = List.init 6 (fun _ -> [| false; false |]) in
  Alcotest.(check bool) "quiet vectors do not detect" false
    (Fsim.Engine.detects c f zeros);
  let pump = List.init 6 (fun _ -> [| true; false |]) in
  Alcotest.(check bool) "pumping detects" true (Fsim.Engine.detects c f pump)

let qcheck_parallel_matches_serial =
  Helpers.qcheck_case ~count:25 "parallel fault sim = one-at-a-time"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let r = Helpers.synthesize_small ~seed:((seed mod 7) + 50) ~states:5 () in
      let c = r.Synth.Flow.circuit in
      let faults = Fsim.Collapse.list c in
      let rng = Random.State.make [| seed |] in
      let vectors =
        List.init 25 (fun _ ->
            Sim.Vectors.random_vector rng (Netlist.Node.num_pis c))
      in
      let run = Fsim.Engine.simulate c faults vectors in
      (* check a deterministic sample of 15 faults serially *)
      let step = max 1 (Array.length faults / 15) in
      let ok = ref true in
      Array.iteri
        (fun i f ->
          if i mod step = 0 then
            if Fsim.Engine.detects c f vectors <> run.Fsim.Engine.detected.(i)
            then ok := false)
        faults;
      !ok)

let test_good_states_tracked () =
  let c = Helpers.toy_circuit () in
  let faults = Fsim.Collapse.list c in
  let vectors =
    [ [| true; false |]; [| true; true |]; [| false; true |]; [| true; false |] ]
  in
  let run = Fsim.Engine.simulate c faults vectors in
  Alcotest.(check bool) "visited >= 2 states" true
    (List.length run.Fsim.Engine.good_states >= 2);
  (* states are distinct *)
  let d = List.sort_uniq compare run.Fsim.Engine.good_states in
  Alcotest.(check int) "distinct" (List.length run.Fsim.Engine.good_states)
    (List.length d)

let test_detect_time_recorded () =
  let c = Helpers.toy_circuit () in
  let n3 = Netlist.Node.find_by_name c "n3" in
  let faults = [| { Fsim.Fault.site = Fsim.Fault.Stem n3; stuck = true } |] in
  let run = Fsim.Engine.simulate c faults [ [| false; false |] ] in
  Alcotest.(check int) "first cycle" 0 run.Fsim.Engine.detect_time.(0)

let test_skip_respected () =
  let c = Helpers.toy_circuit () in
  let faults = Fsim.Collapse.list c in
  let skip = Array.make (Array.length faults) true in
  let run =
    Fsim.Engine.simulate ~skip c faults [ [| true; true |]; [| false; true |] ]
  in
  Alcotest.(check bool) "nothing simulated" true
    (Array.for_all not run.Fsim.Engine.detected)

(* The vector walk stops early once every lane in a batch has detected;
   detection results and times must be bit-identical to a run where the
   whole sequence is scanned (here: one fault per batch, so the early
   exit triggers as soon as that fault is seen). *)
let test_early_exit_identical () =
  let c = Helpers.toy_circuit () in
  let faults = Fsim.Collapse.list c in
  let rng = Random.State.make [| 42 |] in
  let vectors =
    List.init 400 (fun _ ->
        Sim.Vectors.random_vector rng (Netlist.Node.num_pis c))
  in
  let batched = Fsim.Engine.simulate c faults vectors in
  Array.iteri
    (fun i _ ->
      let solo = Fsim.Engine.simulate ~indices:[ i ] c faults vectors in
      Alcotest.(check bool)
        (Printf.sprintf "fault %d detected agrees" i)
        solo.Fsim.Engine.detected.(i)
        batched.Fsim.Engine.detected.(i);
      Alcotest.(check int)
        (Printf.sprintf "fault %d detect time agrees" i)
        solo.Fsim.Engine.detect_time.(i)
        batched.Fsim.Engine.detect_time.(i))
    faults

(* --- regrouping vs fixed batches -------------------------------------------- *)

(* The fixed-batch engine the regrouping one replaced, kept here only as
   the oracle: worklist order cut into 62-fault words once, each word
   simulated until all its lanes detect.  Metrics are left out. *)
let reference_simulate ?indices ?skip ?backend c (faults : Fsim.Fault.t array)
    vectors =
  let all =
    match indices with
    | Some l -> l
    | None -> List.init (Array.length faults) (fun i -> i)
  in
  let todo =
    match skip with
    | None -> all
    | Some s -> List.filter (fun i -> not s.(i)) all
  in
  let detected = Array.make (Array.length faults) false in
  let detect_time = Array.make (Array.length faults) (-1) in
  if todo = [] then
    {
      Fsim.Engine.detected; detect_time; good_states = []; cycles = 0;
      sim_cycles = 0;
    }
  else begin
    let tape = Sim.Tape.compile c in
    let good = Sim.Parallel.create_on ?backend tape in
    Sim.Parallel.reset good;
    let good_states = ref [] in
    let seen = Hashtbl.create 97 in
    let note () =
      let key =
        Sim.Statekey.of_lane_words (Sim.Parallel.get_state_words good) ~lane:0
      in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        good_states := key :: !good_states
      end
    in
    note ();
    let good_po =
      List.map
        (fun v ->
          let words = Sim.Parallel.step_broadcast good v in
          note ();
          Array.map (fun w -> w land 1) words)
        vectors
    in
    let width = Sim.Parallel.word_bits in
    let n_po = Netlist.Node.num_pos c in
    let rec split acc = function
      | [] -> Array.of_list (List.rev acc)
      | rest ->
        let rec take k lacc l =
          if k = 0 then (List.rev lacc, l)
          else
            match l with
            | [] -> (List.rev lacc, [])
            | x :: xs -> take (k - 1) (x :: lacc) xs
        in
        let batch, rest = take width [] rest in
        split (batch :: acc) rest
    in
    let run_batch batch =
      let faulty = Sim.Parallel.create_on ?backend tape in
      List.iteri (fun lane i -> Fsim.Fault.inject faulty faults.(i) ~lane) batch;
      Sim.Parallel.reset faulty;
      let batch_arr = Array.of_list batch in
      let nlanes = Array.length batch_arr in
      let lane_done = Array.make nlanes false in
      let lanes_done = ref 0 in
      let t = ref 0 in
      let rec cycle vs gs =
        match vs, gs with
        | [], _ | _, [] -> ()
        | _ when !lanes_done >= nlanes -> ()
        | v :: vs, gpo :: gs ->
          Sim.Parallel.set_input_broadcast faulty v;
          Sim.Parallel.eval_comb faulty;
          for k = 0 to n_po - 1 do
            let _, po_id = c.Netlist.Node.pos.(k) in
            let fw = Sim.Parallel.node_word faulty po_id in
            let diff = fw lxor (if gpo.(k) = 1 then -1 else 0) in
            if diff <> 0 then
              Array.iteri
                (fun lane fi ->
                  if (not lane_done.(lane)) && (diff lsr lane) land 1 = 1
                  then begin
                    detected.(fi) <- true;
                    detect_time.(fi) <- !t;
                    lane_done.(lane) <- true;
                    incr lanes_done
                  end)
                batch_arr
          done;
          Sim.Parallel.tick faulty;
          incr t;
          cycle vs gs
      in
      cycle vectors good_po;
      !t
    in
    let batch_cycles = Exec.Pool.map_array run_batch (split [] todo) in
    {
      Fsim.Engine.detected;
      detect_time;
      good_states = List.rev !good_states;
      cycles = List.length vectors;
      sim_cycles = Array.fold_left ( + ) 0 batch_cycles;
    }
  end

(* Every single stuck-at fault of [c], uncollapsed: both values on every
   node's stem, every gate pin and every DFF data pin. *)
let all_faults c =
  let sites = ref [] in
  for id = Netlist.Node.num_nodes c - 1 downto 0 do
    let nd = Netlist.Node.node c id in
    (match nd.Netlist.Node.kind with
    | Netlist.Node.Gate _ | Netlist.Node.Dff _ ->
      Array.iteri
        (fun pin _ -> sites := Fsim.Fault.Pin { gate = id; pin } :: !sites)
        nd.Netlist.Node.fanins
    | Netlist.Node.Pi _ -> ());
    sites := Fsim.Fault.Stem id :: !sites
  done;
  Array.of_list
    (List.concat_map
       (fun site ->
         [ { Fsim.Fault.site; stuck = false }; { Fsim.Fault.site; stuck = true } ])
       !sites)

let with_jobs n f =
  Exec.Pool.set_jobs n;
  Fun.protect ~finally:Exec.Pool.reset_jobs f

(* Regrouping survivors between windows must not change what is
   detected, when, or the good trajectory, and never costs more
   word-cycles than fixed batches. *)
let qcheck_regrouping_matches_fixed =
  Helpers.qcheck_case ~count:100 "regrouping = fixed batches (oracle)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x5e9 |] in
      let c = Helpers.random_circuit ~scale:4 rng in
      let faults = all_faults c in
      let n = Array.length faults in
      let vectors =
        Sim.Vectors.random_sequence rng ~width:(Netlist.Node.num_pis c)
          ~length:(20 + Random.State.int rng 81)
      in
      let skip =
        if Random.State.bool rng then None
        else Some (Array.init n (fun _ -> Random.State.int rng 4 = 0))
      in
      let indices =
        if Random.State.int rng 3 > 0 then None
        else
          Some
            (List.filter
               (fun _ -> Random.State.int rng 5 > 0)
               (List.sort
                  (fun (a, _) (b, _) -> compare a b)
                  (List.init n (fun i -> (Random.State.bits rng, i)))
               |> List.map snd))
      in
      let backend = if Random.State.int rng 4 = 0 then `Nodes else `Tape in
      let want = reference_simulate ?indices ?skip ~backend c faults vectors in
      List.for_all
        (fun jobs ->
          let got =
            with_jobs jobs (fun () ->
                Fsim.Engine.simulate ?indices ?skip ~backend c faults vectors)
          in
          got.Fsim.Engine.detected = want.Fsim.Engine.detected
          && got.Fsim.Engine.detect_time = want.Fsim.Engine.detect_time
          && got.Fsim.Engine.good_states = want.Fsim.Engine.good_states
          && got.Fsim.Engine.cycles = want.Fsim.Engine.cycles
          && got.Fsim.Engine.sim_cycles <= want.Fsim.Engine.sim_cycles)
        [ 1; 4 ])

(* Not vacuous: on a study circuit most words finish early, so
   regrouping simulates far fewer word-cycles than fixed batches. *)
let test_regrouping_saves_cycles () =
  let p =
    Core.Flow.pair "dk16" Synth.Assign.Input_dominant Synth.Flow.Delay
  in
  let c = p.Core.Flow.original in
  let faults = Fsim.Collapse.list c in
  let rng = Random.State.make [| 0xf51; 7 |] in
  let vectors =
    Sim.Vectors.random_sequence rng ~width:(Netlist.Node.num_pis c)
      ~length:192
  in
  let want = reference_simulate c faults vectors in
  let got = Fsim.Engine.simulate c faults vectors in
  Alcotest.(check (list int))
    "detect times" (Array.to_list want.Fsim.Engine.detect_time)
    (Array.to_list got.Fsim.Engine.detect_time);
  Alcotest.(check bool)
    (Printf.sprintf "sim_cycles %d < 3/4 of %d" got.Fsim.Engine.sim_cycles
       want.Fsim.Engine.sim_cycles)
    true
    (4 * got.Fsim.Engine.sim_cycles < 3 * want.Fsim.Engine.sim_cycles)

let suite =
  [
    Alcotest.test_case "collapsed list sane" `Quick test_collapse_list_sane;
    Alcotest.test_case "equivalents dropped" `Quick
      test_collapse_drops_equivalents;
    Alcotest.test_case "detects known fault" `Quick test_detects_known_fault;
    Alcotest.test_case "excitation needed" `Quick
      test_undetectable_without_excitation;
    qcheck_parallel_matches_serial;
    Alcotest.test_case "good states tracked" `Quick test_good_states_tracked;
    Alcotest.test_case "detect time recorded" `Quick test_detect_time_recorded;
    Alcotest.test_case "skip respected" `Quick test_skip_respected;
    Alcotest.test_case "early exit preserves results" `Quick
      test_early_exit_identical;
    qcheck_regrouping_matches_fixed;
    Alcotest.test_case "regrouping saves word-cycles" `Quick
      test_regrouping_saves_cycles;
  ]
