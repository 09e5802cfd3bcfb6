(* Attest/TDX-style engine: simulation-based directed search (the CONTEST
   family).  No branch-and-bound at all: starting from the power-up state,
   candidate vectors are scored by simulating the good and faulty machines
   side by side, and the vector that moves the fault effect closest to a
   primary output is appended.  Detection is exact (it is simulation);
   undetected faults are simply given up on, so fault efficiency tracks
   fault coverage (as in the paper's Table 3). *)

(* distance (in register hops) from each DFF to a primary output *)
let dff_distance_to_po c =
  let ndffs = Netlist.Node.num_dffs c in
  let dff_index = Array.make (Netlist.Node.num_nodes c) (-1) in
  Array.iteri (fun i id -> dff_index.(id) <- i) c.Netlist.Node.dffs;
  let po_set = Hashtbl.create 17 in
  Array.iter (fun (_, id) -> Hashtbl.replace po_set id ()) c.Netlist.Node.pos;
  (* per DFF: which DFFs and whether POs are combinationally reachable *)
  let succs = Array.make ndffs [] in
  let feeds_po = Array.make ndffs false in
  Array.iteri
    (fun i id ->
      let cone = Netlist.Stats.comb_fanout_cone c id in
      List.iter
        (fun nid ->
          if Hashtbl.mem po_set nid then feeds_po.(i) <- true;
          let j = dff_index.(nid) in
          if j >= 0 && j <> i then succs.(i) <- j :: succs.(i))
        cone)
    c.Netlist.Node.dffs;
  let dist = Array.make ndffs max_int in
  let queue = Queue.create () in
  Array.iteri
    (fun i fp ->
      if fp then begin
        dist.(i) <- 0;
        Queue.add i queue
      end)
    feeds_po;
  (* reverse BFS *)
  let preds = Array.make ndffs [] in
  Array.iteri (fun i l -> List.iter (fun j -> preds.(j) <- i :: preds.(j)) l) succs;
  while not (Queue.is_empty queue) do
    let j = Queue.pop queue in
    List.iter
      (fun i ->
        if dist.(i) > dist.(j) + 1 then begin
          dist.(i) <- dist.(j) + 1;
          Queue.add i queue
        end)
      preds.(j)
  done;
  dist

type search_state = {
  good : Sim.Parallel.t;
  faulty : Sim.Parallel.t;
}

let snapshot s =
  (Sim.Parallel.get_state_words s.good, Sim.Parallel.get_state_words s.faulty)

let restore s (g, f) =
  Sim.Parallel.set_state_words s.good g;
  Sim.Parallel.set_state_words s.faulty f

(* Apply one vector (eval only); returns (po_diff, cost). *)
let score c dist s v =
  Sim.Parallel.set_input_broadcast s.good v;
  Sim.Parallel.set_input_broadcast s.faulty v;
  Sim.Parallel.eval_comb s.good;
  Sim.Parallel.eval_comb s.faulty;
  let po_diff = ref false in
  Array.iter
    (fun (_, id) ->
      if (Sim.Parallel.node_word s.good id land 1)
         <> (Sim.Parallel.node_word s.faulty id land 1)
      then po_diff := true)
    c.Netlist.Node.pos;
  if !po_diff then (true, -1000)
  else begin
    (* corrupted next-state bits *)
    Sim.Parallel.tick s.good;
    Sim.Parallel.tick s.faulty;
    let best = ref max_int in
    let corrupted = ref 0 in
    Array.iteri
      (fun j id ->
        if (Sim.Parallel.node_word s.good id land 1)
           <> (Sim.Parallel.node_word s.faulty id land 1)
        then begin
          incr corrupted;
          if dist.(j) < !best then best := dist.(j)
        end)
      c.Netlist.Node.dffs;
    if !corrupted > 0 then (false, (10 * !best) - !corrupted)
    else begin
      (* not excited: reward internal divergence *)
      let diverging = ref 0 in
      Array.iter
        (fun id ->
          let nd = Netlist.Node.node c id in
          match nd.Netlist.Node.kind with
          | Netlist.Node.Gate _ ->
            if (Sim.Parallel.node_word s.good id land 1)
               <> (Sim.Parallel.node_word s.faulty id land 1)
            then incr diverging
          | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
        c.Netlist.Node.order;
      (false, 100_000 - !diverging)
    end
  end

let search_fault tape dist fault ~rng ~max_steps ~candidates_per_step ~stats =
  let c = tape.Sim.Tape.circuit in
  let s =
    { good = Sim.Parallel.create_on tape; faulty = Sim.Parallel.create_on tape }
  in
  Fsim.Fault.inject s.faulty fault ~lane:0;
  Sim.Parallel.reset s.good;
  Sim.Parallel.reset s.faulty;
  let npi = Netlist.Node.num_pis c in
  let reset_pi = Run.find_reset_pi c in
  let seq = ref [] in
  let prev = ref (Array.make npi false) in
  let detected = ref false in
  let steps = ref 0 in
  while (not !detected) && !steps < max_steps do
    incr steps;
    let saved = snapshot s in
    let best_v = ref None and best_cost = ref max_int in
    for cand = 0 to candidates_per_step - 1 do
      let v =
        if cand = 0 then Array.copy !prev
        else if cand <= 2 then begin
          let v = Array.copy !prev in
          let bit = Random.State.int rng npi in
          v.(bit) <- not v.(bit);
          v
        end
        else if cand = 3 && reset_pi <> None then begin
          let v = Array.make npi false in
          (match reset_pi with Some i -> v.(i) <- true | None -> ());
          v
        end
        else Sim.Vectors.random_vector rng npi
      in
      restore s saved;
      let po_diff, cost = score c dist s v in
      stats.Types.work <- stats.Types.work + (2 * Netlist.Node.num_gates c);
      let cost = if po_diff then -1000 else cost in
      if cost < !best_cost then begin
        best_cost := cost;
        best_v := Some v
      end
    done;
    match !best_v with
    | None -> steps := max_steps
    | Some v ->
      restore s saved;
      let po_diff, _ = score c dist s v in
      stats.Types.work <- stats.Types.work + (2 * Netlist.Node.num_gates c);
      (* note: score already ticked when not detected *)
      seq := v :: !seq;
      prev := v;
      if po_diff then detected := true
  done;
  if !detected then Some (List.rev !seq) else None

let generate ?(config = Types.scaled_config ()) ?(seed = 3) ?prune c =
  (* directed simulation has no decision tree, so structural learning
     (DESIGN §12) cannot apply; drop the flag here so the run is
     self-evidently identical whichever way the caller inherited it *)
  let cfg = { config with Types.struct_learn = false } in
  let faults = Fsim.Collapse.list c in
  let n = Array.length faults in
  let status = Array.make n Fsim.Fault.Untested in
  let detected = Array.make n false in
  let stats = Types.new_stats () in
  let test_sets = ref [] in
  let rng = Random.State.make [| seed; 0x44 |] in
  let dist = dff_distance_to_po c in
  let resolved = ref 0 in
  Run.apply_prune ?prune c ~engine:"attest" ~faults ~status ~detected ~stats
    ~resolved;
  (* one tape per run: every fault's search and every fault simulation *)
  let tape = Sim.Tape.compile c in
  let apply_fault_sim ~phase seq =
    let run = Fsim.Engine.simulate ~skip:detected ~tape c faults seq in
    let work = List.length seq * Netlist.Node.num_gates c in
    stats.Types.work <- stats.Types.work + work;
    Run.note_run_states stats run;
    let dropped = ref [] in
    Array.iteri
      (fun i d ->
        if d && not detected.(i) then begin
          detected.(i) <- true;
          status.(i) <- Fsim.Fault.Detected;
          incr resolved;
          dropped := i :: !dropped
        end)
      run.Fsim.Engine.detected;
    let dropped = List.rev !dropped in
    Obs.Trace.set_time (Types.work_units stats);
    Run.emit_fault_sim_event ~engine:"attest" ~phase ~stats
      ~resolved:!resolved ~vectors:(List.length seq)
      ~sim_cycles:run.Fsim.Engine.sim_cycles ~work dropped;
    dropped
  in
  Obs.Trace.span "atpg.random_phase" (fun () ->
      List.iter
        (fun seq ->
          if apply_fault_sim ~phase:"random" seq <> [] then
            test_sets := seq :: !test_sets)
        (Run.random_sequences c ~seed ~count:3 ~length:120));
  let max_steps = max 20 (cfg.Types.backtrack_limit / 4) in
  let attempt_one i fault =
    (* per-fault stats so the event carries this fault's exact cost; the
       directed search has no backtracking, only simulation work *)
    let fstats = Types.new_stats () in
    let outcome, drop_credit =
      match
        search_fault tape dist fault ~rng ~max_steps ~candidates_per_step:8
          ~stats:fstats
      with
      | Some seq ->
        Run.merge_stats ~into:stats fstats;
        Obs.Trace.set_time (Types.work_units stats);
        let dropped = apply_fault_sim ~phase:"validate" seq in
        if dropped <> [] then test_sets := seq :: !test_sets;
        if not detected.(i) then status.(i) <- Fsim.Fault.Aborted;
        ( Types.Tested seq,
          List.length dropped - (if List.mem i dropped then 1 else 0) )
      | None ->
        Run.merge_stats ~into:stats fstats;
        Obs.Trace.set_time (Types.work_units stats);
        status.(i) <- Fsim.Fault.Aborted;
        (Types.Gave_up, 0)
    in
    Run.emit_fault_event c ~engine:"attest" ~index:i ~fault ~fstats
      ~outcome:(Run.outcome_string outcome) ~status:status.(i) ~drop_credit
      ~stats ~resolved:!resolved
  in
  Obs.Trace.span "atpg.deterministic_phase" (fun () ->
      try
        Array.iteri
          (fun i fault ->
            if status.(i) = Fsim.Fault.Untested then begin
              if Types.work_units stats > cfg.Types.total_work_limit then
                raise Exit;
              if Obs.Trace.enabled () then
                Obs.Trace.span
                  ~args:
                    [ ("fault", Obs.Json.String (Fsim.Fault.to_string c fault)) ]
                  "atpg.fault"
                  (fun () -> attempt_one i fault)
              else attempt_one i fault
            end)
          faults
      with Exit -> ());
  Array.iteri
    (fun i s -> if s = Fsim.Fault.Untested then status.(i) <- Fsim.Fault.Aborted)
    status;
  Types.summarize faults status (List.rev !test_sets) stats
