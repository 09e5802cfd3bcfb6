(* The flat levelized instruction tape (Sim.Tape) and the overflow-safe
   packed state keys (Sim.Statekey).

   The tape rewrite of the simulators promises bit-identical results; the
   differential tests here hold it to that promise against the scalar
   reference and the legacy [`Nodes] node-record walk, on the benchmark
   pairs and on fuzzed circuits, at 1 and 4 jobs.  The Statekey tests pin
   the >62-DFF aliasing fix: the historical int packing of DFF vectors
   silently collapsed states beyond bit 61. *)

let with_jobs n f =
  Exec.Pool.set_jobs n;
  Fun.protect ~finally:Exec.Pool.reset_jobs f

(* A [length]-DFF shift register: PI -> q0 -> q1 -> ... -> PO.  65 stages
   put live state bits beyond the 62 lanes of an int, which is exactly
   where the old int state codes aliased. *)
let shift_register length =
  let b = Netlist.Build.create () in
  let pi = Netlist.Build.add_pi b "si" in
  let qs =
    Array.init length (fun i ->
        Netlist.Build.add_dff b ~init:false (Printf.sprintf "q%d" i))
  in
  Array.iteri
    (fun i q ->
      let d = if i = 0 then pi else qs.(i - 1) in
      (* a Buf keeps at least one gate on the path so the tape is
         non-empty in every level *)
      let g =
        Netlist.Build.add_gate b Netlist.Node.Buf
          (Printf.sprintf "b%d" i) [| d |]
      in
      Netlist.Build.connect_dff b q g)
    qs;
  Netlist.Build.add_po b "so" qs.(length - 1);
  Netlist.Build.finalize b

(* The six study pairs exercised by the differential engine tests. *)
let pairs =
  lazy
    (let ji = Synth.Assign.Input_dominant
     and jo = Synth.Assign.Output_dominant
     and jc = Synth.Assign.Combined in
     let sd = Synth.Flow.Delay and sr = Synth.Flow.Rugged in
     List.map
       (fun (n, a, s) -> Core.Flow.pair n a s)
       [
         ("dk16", ji, sd); ("pma", jo, sd); ("s510", jc, sd);
         ("s820", jc, sr); ("s832", jo, sr); ("scf", ji, sd);
       ])

(* --- statekey ---------------------------------------------------------------- *)

let test_statekey_roundtrip () =
  let rng = Random.State.make [| 0x7a9e; 1 |] in
  for n = 1 to 70 do
    let bits = Array.init n (fun _ -> Random.State.bool rng) in
    let k = Sim.Statekey.of_bools bits in
    Array.iteri
      (fun i b ->
        Alcotest.(check bool)
          (Printf.sprintf "n=%d bit %d" n i)
          b (Sim.Statekey.bit k i))
      bits;
    Alcotest.(check bool)
      (Printf.sprintf "n=%d capacity covers width" n)
      true
      (Sim.Statekey.capacity k >= n);
    (* bits past the packed width read as 0 *)
    Alcotest.(check bool)
      (Printf.sprintf "n=%d bit beyond end" n)
      false
      (Sim.Statekey.bit k (Sim.Statekey.capacity k + 5));
    (* hex codec round-trips exactly *)
    Alcotest.(check string)
      (Printf.sprintf "n=%d hex roundtrip" n)
      k
      (Sim.Statekey.of_hex (Sim.Statekey.to_hex k));
    (* lane extraction agrees with the bool packing *)
    let lane = Random.State.int rng Sim.Parallel.word_bits in
    let words =
      Array.map (fun b -> if b then 1 lsl lane else 0) bits
    in
    Alcotest.(check string)
      (Printf.sprintf "n=%d of_lane_words" n)
      k
      (Sim.Statekey.of_lane_words words ~lane)
  done;
  Alcotest.check_raises "odd hex length"
    (Invalid_argument "Statekey.of_hex: odd length") (fun () ->
      ignore (Sim.Statekey.of_hex "abc"));
  Alcotest.check_raises "bad hex digit"
    (Invalid_argument "Statekey.of_hex: non-hex digit") (fun () ->
      ignore (Sim.Statekey.of_hex "zz"))

let test_statekey_beyond_62 () =
  (* the regression the int packing failed: one-hot states at positions
     62..64 must be distinct from each other and from all-zero *)
  let one_hot n i = Array.init n (fun j -> j = i) in
  let n = 65 in
  let keys = List.map (fun i -> Sim.Statekey.of_bools (one_hot n i)) in
  let ks = keys [ 61; 62; 63; 64 ] in
  let zero = Sim.Statekey.of_bools (Array.make n false) in
  List.iteri
    (fun a ka ->
      Alcotest.(check bool)
        (Printf.sprintf "one-hot %d <> zero" a)
        true (ka <> zero);
      List.iteri
        (fun b kb ->
          if a <> b then
            Alcotest.(check bool)
              (Printf.sprintf "one-hot %d <> one-hot %d" a b)
              true (ka <> kb))
        ks)
    ks

(* --- tape vs scalar / nodes backend ------------------------------------------ *)

let run_scalar c vectors =
  let sim = Sim.Scalar.create c in
  Sim.Scalar.reset sim;
  List.map (fun v -> Sim.Scalar.step sim (Sim.Vectors.to_v3 v)) vectors

let run_parallel ~backend c vectors =
  let sim = Sim.Parallel.create ~backend c in
  Sim.Parallel.reset sim;
  List.map (fun v -> Sim.Parallel.step_broadcast sim v) vectors

let test_tape_matches_scalar_fuzz () =
  let rng = Random.State.make [| 0x7a9e; 2 |] in
  for trial = 1 to 30 do
    let c = Helpers.random_circuit rng in
    let vectors =
      Sim.Vectors.random_sequence rng ~width:(Netlist.Node.num_pis c)
        ~length:50
    in
    let so = run_scalar c vectors in
    let po = run_parallel ~backend:`Tape c vectors in
    List.iteri
      (fun t (sv, pw) ->
        Array.iteri
          (fun k v ->
            Alcotest.check Helpers.v3
              (Printf.sprintf "trial %d cycle %d po %d" trial t k)
              v
              (Sim.Value3.of_bool (pw.(k) land 1 = 1)))
          sv)
      (List.combine so po)
  done

(* The fanout index is the transpose of the fanin slices: node [id]'s
   consumers are exactly the slots reading it, ascending, a slot listed
   once per pin that reads [id]. *)
let test_fanout_index_fuzz () =
  let rng = Random.State.make [| 0x7a9e; 5 |] in
  for trial = 1 to 30 do
    let c = Helpers.random_circuit rng in
    let tp = Sim.Tape.compile c in
    for id = 0 to tp.Sim.Tape.num_nodes - 1 do
      let want =
        List.concat_map
          (fun s ->
            List.filter_map
              (fun p -> if tp.Sim.Tape.fanin.(p) = id then Some s else None)
              (List.init
                 (tp.Sim.Tape.fanin_base.(s + 1) - tp.Sim.Tape.fanin_base.(s))
                 (fun i -> tp.Sim.Tape.fanin_base.(s) + i)))
          (List.init tp.Sim.Tape.num_gates Fun.id)
      in
      let b = tp.Sim.Tape.fanout_base.(id)
      and e = tp.Sim.Tape.fanout_base.(id + 1) in
      let got = Array.to_list (Array.sub tp.Sim.Tape.fanout b (e - b)) in
      Alcotest.(check (list int))
        (Printf.sprintf "trial %d node %d consumers" trial id)
        want got
    done
  done

let test_tape_matches_nodes_fuzz () =
  let rng = Random.State.make [| 0x7a9e; 3 |] in
  for trial = 1 to 30 do
    let c = Helpers.random_circuit rng in
    let st = Sim.Parallel.create ~backend:`Tape c in
    let sn = Sim.Parallel.create ~backend:`Nodes c in
    Sim.Parallel.reset st;
    Sim.Parallel.reset sn;
    for cycle = 1 to 40 do
      let words =
        Array.init (Netlist.Node.num_pis c) (fun _ ->
            Random.State.bits rng
            lor (Random.State.bits rng lsl 30)
            lor ((Random.State.bits rng land 3) lsl 60))
      in
      Sim.Parallel.set_input_words st words;
      Sim.Parallel.set_input_words sn words;
      Sim.Parallel.eval_comb st;
      Sim.Parallel.eval_comb sn;
      Array.iteri
        (fun i id ->
          Alcotest.(check int)
            (Printf.sprintf "trial %d cycle %d node %d" trial cycle id)
            (Sim.Parallel.node_word sn id)
            (Sim.Parallel.node_word st id);
          ignore i)
        c.Netlist.Node.order;
      Sim.Parallel.tick st;
      Sim.Parallel.tick sn;
      Alcotest.(check (list int))
        (Printf.sprintf "trial %d cycle %d state" trial cycle)
        (Array.to_list (Sim.Parallel.get_state_words sn))
        (Array.to_list (Sim.Parallel.get_state_words st))
    done
  done

(* --- engine backends, benchmark pairs ---------------------------------------- *)

let check_runs_identical label (a : Fsim.Engine.run) (b : Fsim.Engine.run) =
  Alcotest.(check (list bool))
    (label ^ " detected")
    (Array.to_list a.Fsim.Engine.detected)
    (Array.to_list b.Fsim.Engine.detected);
  Alcotest.(check (list int))
    (label ^ " detect_time")
    (Array.to_list a.Fsim.Engine.detect_time)
    (Array.to_list b.Fsim.Engine.detect_time);
  Alcotest.(check (list string))
    (label ^ " good_states") a.Fsim.Engine.good_states
    b.Fsim.Engine.good_states;
  Alcotest.(check int) (label ^ " cycles") a.Fsim.Engine.cycles
    b.Fsim.Engine.cycles;
  Alcotest.(check int)
    (label ^ " sim_cycles") a.Fsim.Engine.sim_cycles
    b.Fsim.Engine.sim_cycles

let engine_backend_check c name =
  let faults = Fsim.Collapse.list c in
  let rng = Random.State.make [| 0x7a9e; 4 |] in
  let vectors =
    Sim.Vectors.random_sequence rng ~width:(Netlist.Node.num_pis c)
      ~length:60
  in
  let tape1 =
    with_jobs 1 (fun () ->
        Fsim.Engine.simulate ~backend:`Tape c faults vectors)
  in
  List.iter
    (fun (jobs, backend, label) ->
      let r =
        with_jobs jobs (fun () ->
            Fsim.Engine.simulate ~backend c faults vectors)
      in
      check_runs_identical (Printf.sprintf "%s %s" name label) tape1 r)
    [
      (1, `Nodes, "nodes j1"); (4, `Tape, "tape j4"); (4, `Nodes, "nodes j4");
    ]

let test_engine_backends_pairs () =
  List.iter
    (fun (p : Core.Flow.pair) ->
      engine_backend_check p.Core.Flow.original (p.Core.Flow.name ^ " orig");
      engine_backend_check p.Core.Flow.retimed (p.Core.Flow.name ^ " ret"))
    (Lazy.force pairs)

let test_engine_backends_fuzz () =
  let rng = Random.State.make [| 0x7a9e; 5 |] in
  for trial = 1 to 30 do
    let c = Helpers.random_circuit rng in
    engine_backend_check c (Printf.sprintf "fuzz %d" trial)
  done

(* --- >62-DFF aliasing regression --------------------------------------------- *)

let test_65dff_states_distinct () =
  let n = 65 in
  let c = shift_register n in
  (* march a single 1 through all 65 stages: every visited state is
     distinct until the pulse falls off the end *)
  let vectors = List.init (n + 1) (fun t -> [| t = 0 |]) in
  let sim = Sim.Parallel.create c in
  Sim.Parallel.reset sim;
  let seen = Hashtbl.create 128 in
  List.iter
    (fun v ->
      ignore (Sim.Parallel.step_broadcast sim v);
      let k =
        Sim.Statekey.of_lane_words (Sim.Parallel.get_state_words sim) ~lane:0
      in
      Hashtbl.replace seen k ())
    vectors;
  (* 65 one-hot states plus the all-zero state after the pulse exits *)
  Alcotest.(check int) "distinct states" (n + 1) (Hashtbl.length seen);
  (* the engine's good-state collection agrees (this is where the old int
     packing collapsed the deep states) *)
  let fault = { Fsim.Fault.site = Fsim.Fault.Stem 0; stuck = false } in
  let run = Fsim.Engine.simulate c [| fault |] vectors in
  let distinct = List.sort_uniq compare run.Fsim.Engine.good_states in
  Alcotest.(check int) "engine good_states distinct" (n + 1)
    (List.length distinct);
  (* ... and the 65-deep fault is detected when the pulse reaches the PO *)
  Alcotest.(check bool) "sa0 at si detected" true
    run.Fsim.Engine.detected.(0);
  Alcotest.(check int) "detected on the last cycle" n
    run.Fsim.Engine.detect_time.(0)

let test_scan_beyond_62 () =
  let n = 65 in
  let c = shift_register n in
  let chain = Dft.Scan.insert c in
  Alcotest.(check int) "full chain" n chain.Dft.Scan.length;
  (* load a state with live bits on both sides of the 62-bit frontier *)
  let bits = Array.make n false in
  bits.(3) <- true;
  bits.(62) <- true;
  bits.(64) <- true;
  let code = Sim.Statekey.of_bools bits in
  let sim = Sim.Scalar.create chain.Dft.Scan.circuit in
  Sim.Scalar.reset sim;
  List.iter
    (fun v -> ignore (Sim.Scalar.step sim (Sim.Vectors.to_v3 v)))
    (Dft.Scan.load_sequence chain code);
  let state = Sim.Scalar.get_state sim in
  Array.iteri
    (fun pos v ->
      Alcotest.check Helpers.v3
        (Printf.sprintf "dff %d" pos)
        (Sim.Value3.of_bool bits.(pos))
        v)
    state

(* --- guards on the remaining int packings ------------------------------------ *)

let test_lane_guards () =
  let c = Helpers.toy_circuit () in
  let sim = Sim.Parallel.create c in
  let gate = c.Netlist.Node.order.(Array.length c.Netlist.Node.order - 1) in
  List.iter
    (fun lane ->
      Alcotest.(check bool)
        (Printf.sprintf "inject_stem lane %d rejected" lane)
        true
        (match
           Sim.Parallel.inject_stem sim ~node:gate ~lane ~value:true
         with
        | () -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check bool)
        (Printf.sprintf "inject_pin lane %d rejected" lane)
        true
        (match
           Sim.Parallel.inject_pin sim ~gate ~pin:0 ~lane ~value:true
         with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ -1; Sim.Parallel.word_bits; 100 ]

let test_reach_pack_guard () =
  Alcotest.(check bool)
    "pack_bools beyond cap rejected" true
    (match Analysis.Reach.pack_bools (Array.make 61 true) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_machine_input_code_guard () =
  Alcotest.(check bool)
    "input_code beyond 62 bits rejected" true
    (match Fsm.Machine.input_code (Array.make 63 true) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cycles_beyond_62 () =
  (* two distinct 2-cycles {q0,q63} and {q0,q64}: an int bitmask key
     cannot tell their vertex sets apart (1 lsl 63/64 alias), the packed
     key can *)
  let n = 65 in
  let b = Netlist.Build.create () in
  let pi = Netlist.Build.add_pi b "x" in
  let qs =
    Array.init n (fun i ->
        Netlist.Build.add_dff b ~init:false (Printf.sprintf "q%d" i))
  in
  let fb =
    Netlist.Build.add_gate b Netlist.Node.Or "fb" [| qs.(63); qs.(64) |]
  in
  Netlist.Build.connect_dff b qs.(0) fb;
  Netlist.Build.connect_dff b qs.(63) qs.(0);
  Netlist.Build.connect_dff b qs.(64) qs.(0);
  for i = 1 to n - 1 do
    if i <> 63 && i <> 64 then Netlist.Build.connect_dff b qs.(i) pi
  done;
  Netlist.Build.add_po b "z" qs.(64);
  let c = Netlist.Build.finalize b in
  let g = Analysis.Dffgraph.build c in
  let r = Analysis.Cycles.count g in
  Alcotest.(check bool) "exact" true r.Analysis.Cycles.exact;
  Alcotest.(check int) "two distinct cycles" 2 r.Analysis.Cycles.num_cycles;
  Alcotest.(check int) "both length 2" 2 r.Analysis.Cycles.max_length

let suite =
  [
    Alcotest.test_case "statekey roundtrip + codec" `Quick
      test_statekey_roundtrip;
    Alcotest.test_case "statekey distinct beyond 62 bits" `Quick
      test_statekey_beyond_62;
    Alcotest.test_case "tape matches scalar (fuzz)" `Quick
      test_tape_matches_scalar_fuzz;
    Alcotest.test_case "tape matches nodes backend (fuzz, all words)" `Quick
      test_tape_matches_nodes_fuzz;
    Alcotest.test_case "engine backends identical on benchmark pairs" `Slow
      test_engine_backends_pairs;
    Alcotest.test_case "engine backends identical (fuzz, jobs 1/4)" `Quick
      test_engine_backends_fuzz;
    Alcotest.test_case "65-DFF shift register: no state aliasing" `Quick
      test_65dff_states_distinct;
    Alcotest.test_case "scan load beyond 62 DFFs" `Quick test_scan_beyond_62;
    Alcotest.test_case "lane range guards" `Quick test_lane_guards;
    Alcotest.test_case "reach pack_bools width guard" `Quick
      test_reach_pack_guard;
    Alcotest.test_case "machine input_code width guard" `Quick
      test_machine_input_code_guard;
    Alcotest.test_case "cycle sets distinct beyond 62 DFFs" `Quick
      test_cycles_beyond_62;
    Alcotest.test_case "fanout index is the fanin transpose (fuzz)" `Quick
      test_fanout_index_fuzz;
  ]
