(* Retiming: legality, behaviour preservation (Theorem 1's constructive
   form), register growth, and the structural invariants of Theorems 2-4. *)

let synth ?(seed = 61) ?(reset_line = false) () =
  Helpers.synthesize_small ~alg:Synth.Assign.Output_dominant
    ~script:Synth.Flow.Rugged ~reset_line ~seed ~states:8 ()

(* retimed-from-power-up must equal original-after-prefix on all outputs *)
let equivalent_modulo_prefix c re ~prefix_input ~prefix_len ~seed ~runs ~len =
  let rng = Random.State.make [| seed |] in
  let npi = Netlist.Node.num_pis c in
  let s1 = Sim.Scalar.create c and s2 = Sim.Scalar.create re in
  let ok = ref true in
  for _ = 1 to runs do
    Sim.Scalar.reset s1;
    Sim.Scalar.reset s2;
    let pv =
      match prefix_input with
      | Some v -> Sim.Vectors.to_v3 v
      | None -> Array.make npi Sim.Value3.Zero
    in
    for _ = 1 to prefix_len do
      ignore (Sim.Scalar.step s1 pv)
    done;
    for _ = 1 to len do
      let v = Sim.Vectors.to_v3 (Sim.Vectors.random_vector rng npi) in
      if Sim.Scalar.step s1 v <> Sim.Scalar.step s2 v then ok := false
    done
  done;
  !ok

let test_min_period_not_slower () =
  let r = synth () in
  let c = r.Synth.Flow.circuit in
  let re, period = Retime.Apply.retime_min_period c in
  Netlist.Check.assert_ok re;
  Alcotest.(check bool) "period <= original" true
    (period <= Netlist.Node.critical_path c +. 1e-9)

let qcheck_equivalence =
  Helpers.qcheck_case ~count:10 "retimed == original modulo prefix"
    QCheck2.Gen.(pair (int_range 100 120) bool)
    (fun (seed, reset_line) ->
      let r = synth ~seed ~reset_line () in
      let c = r.Synth.Flow.circuit in
      let prefix_input =
        if reset_line then begin
          let npi = Netlist.Node.num_pis c in
          let v = Array.make npi false in
          v.(npi - 1) <- true;
          Some v
        end
        else None
      in
      let re, _, plen =
        Retime.Apply.retime_aggressive ?prefix_input ~period_slack:0.15 c
      in
      Netlist.Check.is_well_formed re
      && equivalent_modulo_prefix c re ~prefix_input ~prefix_len:plen
           ~seed:(seed * 3) ~runs:4 ~len:50)

let test_aggressive_adds_registers () =
  (* across several seeds, deepening must add registers somewhere *)
  let grew = ref false in
  for seed = 70 to 78 do
    let r = synth ~seed () in
    let c = r.Synth.Flow.circuit in
    let re, _, _ = Retime.Apply.retime_aggressive ~period_slack:0.15 c in
    if Netlist.Node.num_dffs re > Netlist.Node.num_dffs c then grew := true
  done;
  Alcotest.(check bool) "register growth observed" true !grew

let test_theorems_2_3_4 () =
  (* the gate-canonical structural measurement must agree exactly between
     original and retimed circuits on depth and max cycle length, and never
     count fewer cycles on the retimed circuit *)
  for seed = 80 to 84 do
    let r = synth ~seed () in
    let c = r.Synth.Flow.circuit in
    let re, _, _ = Retime.Apply.retime_aggressive ~period_slack:0.15 c in
    let so = Analysis.Structural.analyze c in
    let sr = Analysis.Structural.analyze re in
    Alcotest.(check int)
      (Printf.sprintf "seq depth invariant (seed %d)" seed)
      so.Analysis.Structural.seq_depth sr.Analysis.Structural.seq_depth;
    Alcotest.(check int)
      (Printf.sprintf "max cycle length invariant (seed %d)" seed)
      so.Analysis.Structural.max_cycle_length
      sr.Analysis.Structural.max_cycle_length;
    Alcotest.(check bool)
      (Printf.sprintf "counted cycles grow (seed %d)" seed)
      true
      (sr.Analysis.Structural.num_cycles >= so.Analysis.Structural.num_cycles)
  done

let test_theorem1_testability_preserved () =
  (* Theorem 1, constructive form: a test set for the original, prefixed by
     P, detects the corresponding faults in the retimed circuit.  We check
     the aggregate consequence: fault coverage of (P-prefixed) original
     random vectors on the retimed circuit is at least as high as random
     vectors of the same length would suggest, and every original-circuit
     stem fault on a surviving gate has a counterpart detected. *)
  let r = synth ~seed:91 () in
  let c = r.Synth.Flow.circuit in
  let re, _, plen = Retime.Apply.retime_aggressive ~period_slack:0.15 c in
  let rng = Random.State.make [| 7 |] in
  let npi = Netlist.Node.num_pis c in
  let vectors =
    List.init 400 (fun _ -> Sim.Vectors.random_vector rng npi)
  in
  let prefix = List.init plen (fun _ -> Array.make npi false) in
  let faults_orig = Fsim.Collapse.list c in
  let faults_re = Fsim.Collapse.list re in
  let run_orig = Fsim.Engine.simulate c faults_orig vectors in
  let run_re = Fsim.Engine.simulate re faults_re (prefix @ vectors) in
  let cov faults (run : Fsim.Engine.run) =
    let d =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 run.Fsim.Engine.detected
    in
    100.0 *. float_of_int d /. float_of_int (Array.length faults)
  in
  let co = cov faults_orig run_orig and cr = cov faults_re run_re in
  Alcotest.(check bool)
    (Printf.sprintf "retimed coverage %.1f within 12%% of original %.1f" cr co)
    true
    (cr >= co -. 12.0)

let test_retime_idempotent_when_zero () =
  (* retiming with the identity lags must preserve the circuit's behaviour
     and never increase registers (chains are shared) *)
  let r = synth ~seed:95 () in
  let c = r.Synth.Flow.circuit in
  let g = Retime.Graph.of_netlist c in
  let zero = Array.make (Retime.Graph.num_gates g) 0 in
  let re = Retime.Apply.materialize g zero in
  Alcotest.(check int) "same registers" (Netlist.Node.num_dffs c)
    (Netlist.Node.num_dffs re);
  Alcotest.(check bool) "equivalent" true
    (equivalent_modulo_prefix c re ~prefix_input:None
       ~prefix_len:(Retime.Apply.prefix_length g zero)
       ~seed:5 ~runs:4 ~len:60)

let test_illegal_lags_rejected () =
  let r = synth ~seed:96 () in
  let g = Retime.Graph.of_netlist r.Synth.Flow.circuit in
  let bad = Array.make (Retime.Graph.num_gates g) 0 in
  (* find a gate with a zero-weight outgoing edge and force its lag down *)
  bad.(0) <- -1;
  if not (Retime.Graph.legal g bad) then
    Alcotest.check_raises "rejected"
      (Invalid_argument "Apply.materialize: illegal lags")
      (fun () -> ignore (Retime.Apply.materialize g bad))

let test_feas_infeasible_period () =
  let r = synth ~seed:97 () in
  let g = Retime.Graph.of_netlist r.Synth.Flow.circuit in
  let relaxations = Obs.Metrics.counter "retime.feas.relaxations" in
  let before = Obs.Metrics.count relaxations in
  Alcotest.(check bool) "absurd period infeasible" true
    (Retime.Solve.feas g ~period:0.1 = None);
  (* every gate misses 0.1, so the first round lifts a gate that drives a
     PO with no register between: refuted after one round, not |V| - 1 *)
  Alcotest.(check int) "refuted in one round" 1
    (Obs.Metrics.count relaxations - before)

(* --- early-exit FEAS and incremental deepening against full loops -------

   Random sequential netlists: gates over earlier gates, PIs and DFFs;
   DFFs fed by gates, PIs or other DFFs (register chains, so edges carry
   several registers), sometimes a constant generator.  Every DFF loop
   passes through a gate or is a constant, so the circuit is well formed. *)
let random_circuit seed =
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let b = Netlist.Build.create () in
  let pis = Array.init (1 + Random.State.int rng 3) (fun i ->
      Netlist.Build.add_pi b (Printf.sprintf "i%d" i)) in
  let dffs = Array.init (1 + Random.State.int rng 6) (fun i ->
      Netlist.Build.add_dff b (Printf.sprintf "q%d" i)) in
  let consts =
    if Random.State.bool rng then [| Netlist.Build.add_const b "k" true |]
    else [||]
  in
  let sources = ref (Array.concat [ pis; dffs; consts ]) in
  let gates = Array.init (3 + Random.State.int rng 20) (fun i ->
      let fn, arity =
        pick Netlist.Node.[| (And, 2); (Or, 2); (Nand, 3); (Nor, 2); (Xor, 2);
                             (Not, 1); (Buf, 1); (And, 1) |]
      in
      let g =
        Netlist.Build.add_gate b fn (Printf.sprintf "g%d" i)
          (Array.init arity (fun _ -> pick !sources))
      in
      sources := Array.append !sources [| g |];
      g)
  in
  Array.iteri
    (fun k d ->
      let from =
        match Random.State.int rng 4 with
        | 0 -> pick pis
        | 1 when k > 0 -> dffs.(Random.State.int rng k)
        | _ -> pick gates
      in
      Netlist.Build.connect_dff b d from)
    dffs;
  for k = 0 to Random.State.int rng 3 do
    Netlist.Build.add_po b (Printf.sprintf "o%d" k) (pick gates)
  done;
  Netlist.Build.finalize b

(* Each edge's dense endpoints stand for the node kinds they replace:
   gates have a vertex, PIs, constants and POs do not. *)
let endpoints_match_kinds (g : Retime.Graph.t) =
  let vertex id =
    if id < 0 then -1
    else
      match (Netlist.Node.node g.Retime.Graph.circuit id).Netlist.Node.kind with
      | Netlist.Node.Gate _ -> g.Retime.Graph.vertex_of_gate.(id)
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> -1
  in
  Array.for_all
    (fun (e : Retime.Graph.edge) ->
      e.Retime.Graph.src_vertex = vertex e.Retime.Graph.src_node
      && e.Retime.Graph.dst_vertex = vertex e.Retime.Graph.dst_node)
    g.Retime.Graph.edges

(* FEAS as it ran before early refutation: all |V| - 1 rounds. *)
let feas_full g ~period:p =
  let n = Retime.Graph.num_gates g in
  let r = Array.make n 0 in
  let rec loop i =
    match Retime.Solve.arrivals g r with
    | None -> None
    | Some delta ->
      if Array.fold_left max 0.0 delta <= p +. 1e-9 then
        if Retime.Graph.legal g r then Some (Array.copy r) else None
      else if i >= n then None
      else begin
        Array.iteri (fun v d -> if d > p +. 1e-9 then r.(v) <- r.(v) + 1) delta;
        loop (i + 1)
      end
  in
  loop 0

(* Deepening as it ran before incremental bookkeeping: every trial move
   rescans legality, the period and a per-source Hashtbl of chain depths. *)
let deepen_full g r ~period ~max_lag ~max_regs =
  let regs r =
    let best = Hashtbl.create 97 in
    Array.iter
      (fun (e : Retime.Graph.edge) ->
        let w = Retime.Graph.retimed_weight g r e in
        let cur =
          Option.value ~default:0 (Hashtbl.find_opt best e.Retime.Graph.src_node)
        in
        if w > cur then Hashtbl.replace best e.Retime.Graph.src_node w)
      g.Retime.Graph.edges;
    Hashtbl.fold (fun _ w acc -> acc + w) best 0
  in
  let try_move v =
    r.(v) < max_lag
    && begin
      r.(v) <- r.(v) + 1;
      let ok =
        Retime.Graph.legal g r
        && Retime.Solve.period_of g r <= period +. 1e-9
        && regs r <= max_regs
      in
      if not ok then r.(v) <- r.(v) - 1;
      ok
    end
  in
  let improved = ref true and rounds = ref 0 in
  while !improved && !rounds < max_lag do
    improved := false;
    incr rounds;
    for v = 0 to Retime.Graph.num_gates g - 1 do
      if try_move v then improved := true
    done
  done

(* Periods from below the largest gate delay (always infeasible) up to the
   unretimed period (always feasible, by r = 0). *)
let probe_periods g =
  let lo = Array.fold_left max 0.0 g.Retime.Graph.delays in
  let hi = Retime.Solve.period_of g (Array.make (Retime.Graph.num_gates g) 0) in
  (lo *. 0.5) :: List.init 9 (fun k -> lo +. ((hi -. lo) *. float_of_int k /. 8.0))

let qcheck_feas_early_exit =
  Helpers.qcheck_case ~count:150 "early-exit FEAS = full |V|-1 loop"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = Retime.Graph.of_netlist (random_circuit seed) in
      endpoints_match_kinds g
      && List.for_all
           (fun p -> Retime.Solve.feas g ~period:p = feas_full g ~period:p)
           (probe_periods g))

let qcheck_deepen_incremental =
  Helpers.qcheck_case ~count:100 "incremental deepen = rescanning deepen"
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 1 4) (int_range 1 4))
    (fun (seed, max_lag, factor) ->
      let g = Retime.Graph.of_netlist (random_circuit seed) in
      let zero = Array.make (Retime.Graph.num_gates g) 0 in
      let period = Retime.Solve.period_of g zero in
      let max_regs = factor * max 1 (Retime.Graph.total_registers_shared g zero) in
      List.for_all
        (fun p ->
          match Retime.Solve.feas g ~period:p with
          | None -> true
          | Some r ->
            let r' = Array.copy r in
            Retime.Solve.deepen g r ~period ~max_lag ~max_regs;
            deepen_full g r' ~period ~max_lag ~max_regs;
            r = r')
        (probe_periods g))

let suite =
  [
    Alcotest.test_case "min-period not slower" `Quick test_min_period_not_slower;
    qcheck_equivalence;
    Alcotest.test_case "aggressive retime adds registers" `Quick
      test_aggressive_adds_registers;
    Alcotest.test_case "Theorems 2/3/4 invariants" `Slow test_theorems_2_3_4;
    Alcotest.test_case "Theorem 1 testability preserved" `Quick
      test_theorem1_testability_preserved;
    Alcotest.test_case "identity retiming" `Quick
      test_retime_idempotent_when_zero;
    Alcotest.test_case "illegal lags rejected" `Quick test_illegal_lags_rejected;
    Alcotest.test_case "infeasible period" `Quick test_feas_infeasible_period;
    qcheck_feas_early_exit;
    qcheck_deepen_incremental;
  ]
