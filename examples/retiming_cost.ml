(* The paper's headline experiment on a single benchmark: synthesize an FSM,
   retime it, and watch structural test generation get harder even though
   the circuit computes exactly the same function.

     dune exec examples/retiming_cost.exe -- [fsm]
*)

let () =
  let fsm = if Array.length Sys.argv > 1 then Sys.argv.(1) else "dk16" in
  let p = Core.Flow.pair fsm Synth.Assign.Input_dominant Synth.Flow.Delay in

  Fmt.pr "=== %s: original vs retimed ===@." p.Core.Flow.name;
  Fmt.pr "original: %a@." Netlist.Node.pp_summary p.Core.Flow.original;
  Fmt.pr "retimed : %a@." Netlist.Node.pp_summary p.Core.Flow.retimed;

  (* the two circuits are behaviourally identical (modulo the equivalence
     prefix): demonstrate on a random run *)
  let c = p.Core.Flow.original and re = p.Core.Flow.retimed in
  let npi = Netlist.Node.num_pis c in
  let rng = Random.State.make [| 11 |] in
  let s1 = Sim.Scalar.create c and s2 = Sim.Scalar.create re in
  Sim.Scalar.reset s1;
  Sim.Scalar.reset s2;
  let prefix =
    match Core.Flow.reset_prefix_input p.Core.Flow.synth with
    | Some v -> Sim.Vectors.to_v3 v
    | None -> Array.make npi Sim.Value3.Zero
  in
  for _ = 1 to p.Core.Flow.prefix_length do
    ignore (Sim.Scalar.step s1 prefix)
  done;
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to 200 do
    let v = Sim.Vectors.to_v3 (Sim.Vectors.random_vector rng npi) in
    incr total;
    if Sim.Scalar.step s1 v = Sim.Scalar.step s2 v then incr agree
  done;
  Fmt.pr "behavioural agreement: %d/%d cycles@." !agree !total;

  (* structural attributes: what the paper shows does NOT change *)
  let so = Core.Cache.structural ~name:p.Core.Flow.name c in
  let sr = Core.Cache.structural ~name:(p.Core.Flow.name ^ ".re") re in
  Fmt.pr "sequential depth : %d -> %d (invariant)@."
    so.Analysis.Structural.seq_depth sr.Analysis.Structural.seq_depth;
  Fmt.pr "max cycle length : %d -> %d (invariant)@."
    so.Analysis.Structural.max_cycle_length
    sr.Analysis.Structural.max_cycle_length;
  Fmt.pr "counted cycles   : %d -> %d (counting artifact)@."
    so.Analysis.Structural.num_cycles sr.Analysis.Structural.num_cycles;

  (* what DOES change: the density of encoding *)
  let ro = Core.Cache.reach ~name:p.Core.Flow.name c in
  let rr = Core.Cache.reach ~name:(p.Core.Flow.name ^ ".re") re in
  Fmt.pr "density of encoding: %.2e -> %.2e@."
    (Analysis.Reach.density ro) (Analysis.Reach.density rr);

  (* and the ATPG cost *)
  let config =
    Core.Cache.atpg_config Core.Cache.Hitec ~budget:None ~learn:None
  in
  let ao = Core.Cache.atpg ~config Core.Cache.Hitec ~name:p.Core.Flow.name c in
  let ar =
    Core.Cache.atpg ~config Core.Cache.Hitec ~name:(p.Core.Flow.name ^ ".re") re
  in
  let w r = Atpg.Types.work_units r.Atpg.Types.stats in
  Fmt.pr "ATPG original: FC %.1f%%, FE %.1f%%, %d work units@."
    ao.Atpg.Types.fault_coverage ao.Atpg.Types.fault_efficiency (w ao);
  Fmt.pr "ATPG retimed : FC %.1f%%, FE %.1f%%, %d work units@."
    ar.Atpg.Types.fault_coverage ar.Atpg.Types.fault_efficiency (w ar);
  Fmt.pr "CPU ratio (retimed / original): %.1f@."
    (float_of_int (w ar) /. float_of_int (max 1 (w ao)))
