(* Scan-mode ATPG: what makes scan pay off.

   On a scanned circuit, a sequential engine still treats the chain as
   ordinary logic and pays the full justification price (plus the mux
   overhead).  A scan-aware flow instead:

     1. finds excitation + propagation with the state treated as a free
        pseudo-input (PODEM phase A, exactly as the sequential engines);
     2. replaces state justification with a shift-in sequence — any state
        is reachable in [chain.length] cycles by construction;
     3. applies the forward vectors in functional mode and lets the fault
        simulator (ground truth) confirm detection, dropping other faults.

   Density of encoding becomes irrelevant: step 2 never fails. *)

let state_code_of_cube cube =
  Sim.Statekey.of_bools (Array.map (fun v -> v = Sim.Value3.One) cube)

(* Test sequence for a phase-A solution: shift in the required state, then
   play the forward frames' vectors (scan_enable deasserted by X-default). *)
let assemble_test (chain : Scan.chain) fr =
  let code = state_code_of_cube fr.Atpg.Frames.ps0 in
  let forward =
    List.init fr.Atpg.Frames.k (fun t ->
        Array.map
          (fun v ->
            match Sim.Value3.to_bool_opt v with Some b -> b | None -> false)
          fr.Atpg.Frames.pi.(t))
  in
  Scan.load_sequence chain code @ forward

let generate ?(config = Atpg.Types.scaled_config ()) ?(seed = 1)
    (chain : Scan.chain) =
  let cfg = config in
  let c = chain.Scan.circuit in
  let faults = Fsim.Collapse.list c in
  let n = Array.length faults in
  let status = Array.make n Fsim.Fault.Untested in
  let detected = Array.make n false in
  let stats = Atpg.Types.new_stats () in
  let test_sets = ref [] in
  let tape = Sim.Tape.compile c in
  let apply_fault_sim seq =
    let run = Fsim.Engine.simulate ~skip:detected c faults seq in
    stats.Atpg.Types.work <-
      stats.Atpg.Types.work + (List.length seq * Netlist.Node.num_gates c);
    Atpg.Run.note_run_states stats run;
    let newly = ref 0 in
    Array.iteri
      (fun i d ->
        if d && not detected.(i) then begin
          detected.(i) <- true;
          status.(i) <- Fsim.Fault.Detected;
          incr newly
        end)
      run.Fsim.Engine.detected;
    !newly
  in
  (* random phase: functional vectors with occasional shift bursts *)
  List.iter
    (fun seq -> if apply_fault_sim seq > 0 then test_sets := seq :: !test_sets)
    (Atpg.Run.random_sequences c ~seed ~count:2 ~length:120);
  (try
     Array.iteri
       (fun i fault ->
         if status.(i) = Fsim.Fault.Untested then begin
           if Atpg.Types.work_units stats > cfg.Atpg.Types.total_work_limit
           then raise Exit;
           let fstats = Atpg.Types.new_stats () in
           let fr =
             Atpg.Frames.create ~fault tape
               ~frames:cfg.Atpg.Types.max_frames_fwd ~stats:fstats
           in
           let outcome =
             try
               match Atpg.Podem.phase_a fr fault cfg fstats with
               | Atpg.Podem.Detected -> Some (assemble_test chain fr)
               | Atpg.Podem.Exhausted { escape_seen = false } ->
                 status.(i) <- Fsim.Fault.Redundant;
                 None
               | Atpg.Podem.Exhausted { escape_seen = true } ->
                 status.(i) <- Fsim.Fault.Aborted;
                 None
             with Atpg.Podem.Out_of_budget ->
               status.(i) <- Fsim.Fault.Aborted;
               None
           in
           Atpg.Run.merge_stats ~into:stats fstats;
           (match outcome with
            | Some seq ->
              if apply_fault_sim seq > 0 then test_sets := seq :: !test_sets;
              if not detected.(i) then status.(i) <- Fsim.Fault.Aborted
            | None -> ())
         end)
       faults
   with Exit -> ());
  Array.iteri
    (fun i s ->
      if s = Fsim.Fault.Untested then status.(i) <- Fsim.Fault.Aborted)
    status;
  Atpg.Types.summarize faults status (List.rev !test_sets) stats
