(* Reproduction of every table in the paper's evaluation.  Each [compute]
   runs (memoized) synthesis / retiming / ATPG / analysis and returns typed
   rows; each [pp] prints the table in the paper's layout.

   The per-cell work (one benchmark under one engine/analysis) shards
   across domains via [Exec.Pool]: circuit pairs are prebuilt sequentially
   (so synthesis traces, lint gates and the Flow memo behave exactly as
   before), then the independent cells fan out.  The pool's deterministic
   merge returns rows in selection order with metrics/events applied in
   the same order, so every table is byte-identical at any job count. *)

let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* A HITEC run at the environment's budget, through the result cache. *)
let hitec ~name c =
  Cache.atpg
    ~config:(Cache.atpg_config Cache.Hitec ~budget:None ~learn:None)
    Cache.Hitec ~name c

(* ------------------------------------------------------------------ T1 - *)

module T1 = struct
  type row = {
    fsm : string;
    paper_pi : int;
    paper_po : int;
    built_pi : int;
    built_po : int;
    states : int;
  }

  let compute () =
    List.map
      (fun (e : Fsm.Benchmarks.entry) ->
        let m = Fsm.Benchmarks.machine e in
        {
          fsm = e.Fsm.Benchmarks.name;
          paper_pi = e.Fsm.Benchmarks.paper_pi;
          paper_po = e.Fsm.Benchmarks.paper_po;
          built_pi = m.Fsm.Machine.num_inputs;
          built_po = m.Fsm.Machine.num_outputs;
          states = Fsm.Machine.num_states m;
        })
      Fsm.Benchmarks.all

  let pp ppf rows =
    Fmt.pf ppf "Table 1: finite state machines (paper PI/PO -> built PI/PO)@.";
    Fmt.pf ppf "%-6s %6s %6s %9s %9s %7s@." "FSM" "PI" "PO" "built-PI"
      "built-PO" "states";
    List.iter
      (fun r ->
        Fmt.pf ppf "%-6s %6d %6d %9d %9d %7d@." r.fsm r.paper_pi r.paper_po
          r.built_pi r.built_po r.states)
      rows
end

(* ------------------------------------------------------------- T2/T3/T4 - *)

module Atpg_pair = struct
  type row = {
    circuit : string;
    dff_orig : int;
    dff_re : int;
    fc_orig : float;
    fe_orig : float;
    fc_re : float;
    fe_re : float;
    pu_orig : int;  (* statically proved untestable (0 unless pruning ran) *)
    pu_re : int;
    work_orig : int;
    work_re : int;
    cpu_ratio : float;
  }

  let proved_count (r : Atpg.Types.result) =
    Array.fold_left
      (fun a s -> if s = Fsim.Fault.Proved_untestable then a + 1 else a)
      0 r.Atpg.Types.status

  let compute ?prove_untestable kind (p : Flow.pair) =
    let config = Cache.atpg_config kind ~budget:None ~learn:None in
    let o =
      Cache.atpg ?prove_untestable ~config kind ~name:p.Flow.name
        p.Flow.original
    in
    let r =
      Cache.atpg ?prove_untestable ~config kind ~name:(p.Flow.name ^ ".re")
        p.Flow.retimed
    in
    let wo = Atpg.Types.work_units o.Atpg.Types.stats in
    let wr = Atpg.Types.work_units r.Atpg.Types.stats in
    {
      circuit = p.Flow.name;
      dff_orig = Netlist.Node.num_dffs p.Flow.original;
      dff_re = Netlist.Node.num_dffs p.Flow.retimed;
      fc_orig = o.Atpg.Types.fault_coverage;
      fe_orig = o.Atpg.Types.fault_efficiency;
      fc_re = r.Atpg.Types.fault_coverage;
      fe_re = r.Atpg.Types.fault_efficiency;
      pu_orig = proved_count o;
      pu_re = proved_count r;
      work_orig = wo;
      work_re = wr;
      cpu_ratio = ratio wr wo;
    }

  let pp title ppf rows =
    Fmt.pf ppf "%s@." title;
    Fmt.pf ppf "%-12s %4s %6s %6s %4s %11s | %4s %6s %6s %4s %11s | %9s@."
      "circuit" "dff" "%FC" "%FE" "PU" "work" "dff" "%FC" "%FE" "PU" "work"
      "CPU-ratio";
    List.iter
      (fun r ->
        Fmt.pf ppf
          "%-12s %4d %6.1f %6.1f %4d %11d | %4d %6.1f %6.1f %4d %11d | %9.1f@."
          r.circuit r.dff_orig r.fc_orig r.fe_orig r.pu_orig r.work_orig
          r.dff_re r.fc_re r.fe_re r.pu_re r.work_re r.cpu_ratio)
      rows
end

module T2 = struct
  let compute () =
    Exec.Pool.map_list (Atpg_pair.compute Cache.Hitec) (Flow.table2_pairs ())

  let pp = Atpg_pair.pp "Table 2: HITEC-style ATPG, original vs retimed"
end

module T3 = struct
  let compute () =
    Exec.Pool.map_list
      (Atpg_pair.compute Cache.Attest)
      (Flow.confirmation_pairs ())

  let pp = Atpg_pair.pp "Table 3: Attest-style (simulation-based) ATPG"
end

module T4 = struct
  let selection =
    let ji = Synth.Assign.Input_dominant
    and jo = Synth.Assign.Output_dominant
    and jc = Synth.Assign.Combined in
    let sd = Synth.Flow.Delay and sr = Synth.Flow.Rugged in
    [
      ("dk16", ji, sd);
      ("pma", jo, sd);
      ("s510", jc, sd);
      ("s510", ji, sd);
      ("s510", jo, sr);
    ]

  let compute () =
    let pairs = List.map (fun (f, a, s) -> Flow.pair f a s) selection in
    Exec.Pool.map_list (Atpg_pair.compute Cache.Sest) pairs

  let pp = Atpg_pair.pp "Table 4: SEST-style (state-learning) ATPG"
end

(* ------------------------------------------------------------------ T5 - *)

module T5 = struct
  type row = {
    circuit : string;
    depth_orig : int;
    max_cycle_orig : int;
    cycles_orig : int;
    depth_re : int;
    max_cycle_re : int;
    cycles_re : int;
  }

  let compute () =
    Exec.Pool.map_list
      (fun (p : Flow.pair) ->
        let o = Cache.structural ~name:p.Flow.name p.Flow.original in
        let r =
          Cache.structural ~name:(p.Flow.name ^ ".re") p.Flow.retimed
        in
        {
          circuit = p.Flow.name;
          depth_orig = o.Analysis.Structural.seq_depth;
          max_cycle_orig = o.Analysis.Structural.max_cycle_length;
          cycles_orig = o.Analysis.Structural.num_cycles;
          depth_re = r.Analysis.Structural.seq_depth;
          max_cycle_re = r.Analysis.Structural.max_cycle_length;
          cycles_re = r.Analysis.Structural.num_cycles;
        })
      (Flow.table2_pairs ())

  let pp ppf rows =
    Fmt.pf ppf "Table 5: structural attributes (orig | retimed)@.";
    Fmt.pf ppf "%-12s %6s %7s %7s | %6s %7s %7s@." "circuit" "depth" "maxcyc"
      "#cyc" "depth" "maxcyc" "#cyc";
    List.iter
      (fun r ->
        Fmt.pf ppf "%-12s %6d %7d %7d | %6d %7d %7d@." r.circuit r.depth_orig
          r.max_cycle_orig r.cycles_orig r.depth_re r.max_cycle_re r.cycles_re)
      rows
end

(* ------------------------------------------------------------------ T6 - *)

module T6 = struct
  type row = {
    circuit : string;
    states_trav : int;
    valid_states : float;
    pct_valid_trav : float;
    total_states : float;
    density : float;
    source : string;  (* "explicit" | "symbolic" *)
  }

  let one name circuit =
    let atpg = hitec ~name circuit in
    let d = Cache.density ~name circuit in
    (* count only traversed states that are valid (the ATPG's fault-sim path
       never leaves the valid set; justification cubes may) *)
    let trav = Hashtbl.length atpg.Atpg.Types.stats.Atpg.Types.states in
    {
      circuit = name;
      states_trav = trav;
      valid_states = d.Cache.valid;
      pct_valid_trav = 100.0 *. float_of_int trav /. max 1.0 d.Cache.valid;
      total_states = d.Cache.total;
      density = d.Cache.density;
      source = Cache.density_source_name d.Cache.source;
    }

  let compute () =
    let cells =
      List.concat_map
        (fun (p : Flow.pair) ->
          [
            (p.Flow.name, p.Flow.original);
            (p.Flow.name ^ ".re", p.Flow.retimed);
          ])
        (Flow.table2_pairs ())
    in
    Exec.Pool.map_list (fun (name, c) -> one name c) cells

  let pp ppf rows =
    Fmt.pf ppf "Table 6: HITEC state-traversal and density of encoding@.";
    Fmt.pf ppf "%-16s %7s %7s %8s %10s %10s %9s@." "circuit" "#trav" "#valid"
      "%trav" "total" "density" "source";
    List.iter
      (fun r ->
        Fmt.pf ppf "%-16s %7d %7.0f %8.0f %10.3g %10.2e %9s@." r.circuit
          r.states_trav r.valid_states r.pct_valid_trav r.total_states
          r.density r.source)
      rows
end

(* ------------------------------------------------------------------ T7 - *)

module T7 = struct
  type row = {
    circuit : string;
    delay : float;
    dff : int;
    valid_states : float;
    total_states : float;
    density : float;
    source : string;
  }

  let compute () =
    Exec.Pool.map_list
      (fun (name, c, period) ->
        let d = Cache.density ~name c in
        {
          circuit = name;
          delay = period;
          dff = Netlist.Node.num_dffs c;
          valid_states = d.Cache.valid;
          total_states = d.Cache.total;
          density = d.Cache.density;
          source = Cache.density_source_name d.Cache.source;
        })
      (Flow.sensitivity_versions ())

  let pp ppf rows =
    Fmt.pf ppf "Table 7: density-of-encoding sensitivity (s510.jo.sr)@.";
    Fmt.pf ppf "%-18s %8s %5s %7s %10s %10s %9s@." "circuit" "delay" "dff"
      "#valid" "total" "density" "source";
    List.iter
      (fun r ->
        Fmt.pf ppf "%-18s %8.2f %5d %7.0f %10.3g %10.2e %9s@." r.circuit
          r.delay r.dff r.valid_states r.total_states r.density r.source)
      rows
end

(* ------------------------------------------------------------------ T8 - *)

module T8 = struct
  type row = {
    circuit : string;
    fc : float;
    fe : float;
    states_trav : int;
    valid_states : float;
    valid_source : string;
    states_orig_set : int;
    fc_orig_set : float;
  }

  (* The retimed circuits for which the HITEC-style run attained the lowest
     coverage. *)
  let worst_retimed ?(count = 4) () =
    let rows = T2.compute () in
    List.sort
      (fun (a : Atpg_pair.row) b -> compare a.Atpg_pair.fc_re b.Atpg_pair.fc_re)
      rows
    |> List.filteri (fun i _ -> i < count)
    |> List.map (fun (r : Atpg_pair.row) -> r.Atpg_pair.circuit)

  let compute ?count () =
    let names = worst_retimed ?count () in
    Exec.Pool.map_list
      (fun name ->
        let f, a, s =
          List.find
            (fun (f, a, s) ->
              let p = Flow.pair f a s in
              String.equal p.Flow.name name)
            Flow.table2_selection
        in
        let p = Flow.pair f a s in
        let re_name = p.Flow.name ^ ".re" in
        let atpg_re = hitec ~name:re_name p.Flow.retimed in
        let atpg_orig = hitec ~name:p.Flow.name p.Flow.original in
        let d_re = Cache.density ~name:re_name p.Flow.retimed in
        (* fault simulate the original circuit's test set on the retimed
           circuit (the paper's PROOFS experiment) *)
        let orig_vectors = List.concat atpg_orig.Atpg.Types.test_sets in
        let faults_re = Fsim.Collapse.list p.Flow.retimed in
        let run = Fsim.Engine.simulate p.Flow.retimed faults_re orig_vectors in
        let det =
          Array.fold_left (fun a b -> if b then a + 1 else a) 0
            run.Fsim.Engine.detected
        in
        {
          circuit = re_name;
          fc = atpg_re.Atpg.Types.fault_coverage;
          fe = atpg_re.Atpg.Types.fault_efficiency;
          states_trav =
            Hashtbl.length atpg_re.Atpg.Types.stats.Atpg.Types.states;
          valid_states = d_re.Cache.valid;
          valid_source = Cache.density_source_name d_re.Cache.source;
          states_orig_set = List.length run.Fsim.Engine.good_states;
          fc_orig_set =
            Fsim.Engine.coverage ~detected:det
              ~total:(Array.length faults_re);
        })
      names

  let pp ppf rows =
    Fmt.pf ppf
      "Table 8: states needed for high coverage (orig test set on retimed)@.";
    Fmt.pf ppf "%-18s %6s %6s %7s %7s %10s %10s %9s@." "circuit" "%FC" "%FE"
      "#trav" "#valid" "#trav-orig" "%FC-orig" "source";
    List.iter
      (fun r ->
        Fmt.pf ppf "%-18s %6.1f %6.1f %7d %7.0f %10d %10.1f %9s@." r.circuit
          r.fc r.fe r.states_trav r.valid_states r.states_orig_set
          r.fc_orig_set r.valid_source)
      rows
end
