(* Density-of-encoding sensitivity (the paper's Table 7 / Figure 3 study):
   one circuit, several progressively deeper retimings, each with the same
   function, depth and cycle structure — but ever sparser state encodings.

     dune exec examples/density_sweep.exe
*)

let () =
  Fmt.pr "Building s510.jo.sr and four retimed versions...@.";
  let versions = Core.Flow.sensitivity_versions () in
  let config =
    Core.Cache.atpg_config Core.Cache.Hitec ~budget:None ~learn:None
  in
  Fmt.pr "%-18s %6s %5s %8s %10s %12s %8s %6s@." "circuit" "delay" "dff"
    "#valid" "density" "ATPG-work" "FC%" "FE%";
  List.iter
    (fun (name, c, period) ->
      let reach = Core.Cache.reach ~name c in
      let atpg = Core.Cache.atpg ~config Core.Cache.Hitec ~name c in
      Fmt.pr "%-18s %6.2f %5d %8d %10.2e %12d %8.1f %6.1f@." name period
        (Netlist.Node.num_dffs c)
        reach.Analysis.Reach.valid_states
        (Analysis.Reach.density reach)
        (Atpg.Types.work_units atpg.Atpg.Types.stats)
        atpg.Atpg.Types.fault_coverage atpg.Atpg.Types.fault_efficiency)
    versions;
  Fmt.pr "@.The lower the density of encoding, the more work any given@.";
  Fmt.pr "fault-efficiency level costs (the paper's Figure 3):@.";
  Core.Figure3.pp Fmt.stdout (Core.Figure3.compute ())
