(* Per-circuit ATPG driver shared by the HITEC- and SEST-style engines:

   1. random phase: a few random sequences are fault-simulated with fault
      dropping (every era's sequential ATPGs did this before deterministic
      search);
   2. deterministic phase: PODEM phase A + backward justification per
      remaining fault, each produced test validated by fault simulation
      (ground truth) and used to drop other faults.

   The driver records distinct good-machine states traversed (Table 6's
   instrumentation) and deterministic work units standing in for CPU time. *)

let find_reset_pi c =
  let r = ref None in
  Array.iteri
    (fun i id ->
      if String.equal (Netlist.Node.node c id).Netlist.Node.name "reset" then
        r := Some i)
    c.Netlist.Node.pis;
  !r

let random_sequences c ~seed ~count ~length =
  let rng = Random.State.make [| seed; 0xA7 |] in
  let npi = Netlist.Node.num_pis c in
  let reset = find_reset_pi c in
  List.init count (fun _ ->
      List.init length (fun _ ->
          let v = Sim.Vectors.random_vector rng npi in
          (match reset with
           | Some i -> v.(i) <- Random.State.int rng 24 = 0
           | None -> ());
          v))

let merge_stats ~into:(g : Types.stats) (f : Types.stats) =
  g.Types.work <- g.Types.work + f.Types.work;
  g.Types.backtracks <- g.Types.backtracks + f.Types.backtracks;
  g.Types.decisions <- g.Types.decisions + f.Types.decisions;
  g.Types.frames <- g.Types.frames + f.Types.frames;
  g.Types.learn_conflicts <- g.Types.learn_conflicts + f.Types.learn_conflicts;
  g.Types.learn_clauses <- g.Types.learn_clauses + f.Types.learn_clauses;
  g.Types.learn_literals <- g.Types.learn_literals + f.Types.learn_literals;
  g.Types.learn_hits <- g.Types.learn_hits + f.Types.learn_hits;
  g.Types.learn_cube_hits <- g.Types.learn_cube_hits + f.Types.learn_cube_hits;
  Hashtbl.iter
    (fun k () -> Hashtbl.replace g.Types.state_cubes k ())
    f.Types.state_cubes

let note_run_states stats (run : Fsim.Engine.run) =
  List.iter (fun code -> Types.note_state stats code) run.Fsim.Engine.good_states

(* Record the good-machine states visited by a sequence, each with the
   input prefix that reaches it — the justification directory. *)
let state_directory c seqs =
  let sim = Sim.Parallel.create c in
  let seen = Hashtbl.create 256 in
  let dir = ref [] in
  let note code prefix =
    if not (Hashtbl.mem seen code) then begin
      Hashtbl.add seen code ();
      dir := (code, prefix) :: !dir
    end
  in
  List.iter
    (fun seq ->
      Sim.Parallel.reset sim;
      let rec loop t past = function
        | [] -> ()
        | v :: rest ->
          ignore (Sim.Parallel.step_broadcast sim v);
          let code =
            Sim.Statekey.of_lane_words (Sim.Parallel.get_state_words sim)
              ~lane:0
          in
          let past = v :: past in
          note code (List.rev past);
          loop (t + 1) past rest
      in
      loop 0 [] seq)
    seqs;
  List.rev !dir

(* --- observability (shared with the Attest engine) ------------------------
   Event records are emitted only when a sink is installed; they carry the
   exact per-fault work/backtrack accounting, so summing the events of a run
   reproduces its aggregate work units to the unit (tested in test_obs). *)

let outcome_string = function
  | Types.Tested _ -> "tested"
  | Types.Proved_redundant -> "redundant"
  | Types.Gave_up -> "aborted"

let emit_fault_sim_event ~engine ~phase ~(stats : Types.stats) ~resolved
    ~vectors ~sim_cycles ~work dropped =
  if Obs.Events.enabled () then
    Obs.Events.emit
      [
        ("ev", Obs.Json.String "fault_sim");
        ("engine", Obs.Json.String engine);
        ("phase", Obs.Json.String phase);
        ("vectors", Obs.Json.Int vectors);
        ("sim_cycles", Obs.Json.Int sim_cycles);
        ("work", Obs.Json.Int work);
        ("backtracks", Obs.Json.Int 0);
        ("dropped", Obs.Json.List (List.map (fun i -> Obs.Json.Int i) dropped));
        ("work_units_after", Obs.Json.Int (Types.work_units stats));
        ("resolved_after", Obs.Json.Int resolved);
      ]

let emit_fault_event c ~engine ~index ~(fault : Fsim.Fault.t)
    ~(fstats : Types.stats) ~outcome ~status ~drop_credit
    ~(stats : Types.stats) ~resolved =
  if Obs.Events.enabled () then
    Obs.Events.emit
      [
        ("ev", Obs.Json.String "fault");
        ("engine", Obs.Json.String engine);
        ("index", Obs.Json.Int index);
        ("fault", Obs.Json.String (Fsim.Fault.to_string c fault));
        ("site", Obs.Json.Int (Fsim.Fault.site_node fault.Fsim.Fault.site));
        ("stuck", Obs.Json.Bool fault.Fsim.Fault.stuck);
        ("outcome", Obs.Json.String outcome);
        ("status", Obs.Json.String (Fsim.Fault.status_to_string status));
        ("work", Obs.Json.Int fstats.Types.work);
        ("backtracks", Obs.Json.Int fstats.Types.backtracks);
        ("decisions", Obs.Json.Int fstats.Types.decisions);
        ("frames", Obs.Json.Int fstats.Types.frames);
        ("state_cubes", Obs.Json.Int (Hashtbl.length fstats.Types.state_cubes));
        ("learn_conflicts", Obs.Json.Int fstats.Types.learn_conflicts);
        ("learn_clauses", Obs.Json.Int fstats.Types.learn_clauses);
        ("learn_literals", Obs.Json.Int fstats.Types.learn_literals);
        ("learn_hits", Obs.Json.Int fstats.Types.learn_hits);
        ("learn_cube_hits", Obs.Json.Int fstats.Types.learn_cube_hits);
        ("drop_credit", Obs.Json.Int drop_credit);
        ("work_units_after", Obs.Json.Int (Types.work_units stats));
        ("resolved_after", Obs.Json.Int resolved);
      ]

(* Pre-engine pruning (shared with the Attest engine): mark every fault
   the static classifier proved untestable as resolved before any budget
   is spent.  [detected] doubles as the fault-sim skip array, the drop
   guard and the validation flag, and the deterministic loops only
   attempt [Untested] faults, so a pruned fault is never simulated,
   never dropped and never attempted — everything downstream behaves as
   if it had been dropped at cost zero.  Each pruned fault still gets a
   "fault" event so an event-stream replay reconstructs every status. *)
let apply_prune ?prune c ~engine ~faults ~status ~detected ~stats ~resolved =
  match prune with
  | None -> ()
  | Some p ->
    Obs.Trace.span "atpg.prune_untestable" (fun () ->
        Array.iteri
          (fun i fault ->
            if p fault then begin
              status.(i) <- Fsim.Fault.Proved_untestable;
              detected.(i) <- true;
              incr resolved;
              emit_fault_event c ~engine ~index:i ~fault
                ~fstats:(Types.new_stats ()) ~outcome:"proved_untestable"
                ~status:status.(i) ~drop_credit:0 ~stats ~resolved:!resolved
            end)
          faults)

(* Attempt one fault deterministically. *)
let attempt_fault ?directory ?guide ?slearn tape fault cfg fstats learn =
  try
    let fr =
      Frames.create ~fault ?guide tape ~frames:cfg.Types.max_frames_fwd
        ~stats:fstats
    in
    match Podem.phase_a ?slearn fr fault cfg fstats with
    | Podem.Detected ->
      let required = Array.copy fr.Frames.ps0 in
      (match
         Podem.justify ?directory ?guide ?slearn tape ~required ~cfg
           ~stats:fstats ~learn
       with
       | Some prefix ->
         let forward =
           List.init fr.Frames.k (fun t ->
               Array.map
                 (fun v ->
                   match Sim.Value3.to_bool_opt v with
                   | Some b -> b
                   | None -> false)
                 fr.Frames.pi.(t))
         in
         Types.Tested (prefix @ forward)
       | None -> Types.Gave_up)
    | Podem.Exhausted { escape_seen = false } -> Types.Proved_redundant
    | Podem.Exhausted { escape_seen = true } -> Types.Gave_up
  with Podem.Out_of_budget -> Types.Gave_up

let generate ?(config = Types.scaled_config ()) ?(seed = 1)
    ?(random_sequences_count = 2) ?(random_sequence_length = 120) ?engine
    ?guide ?prune c =
  let cfg = config in
  let engine =
    match engine with
    | Some e -> e
    | None -> if cfg.Types.learn then "sest" else "hitec"
  in
  let faults = Fsim.Collapse.list c in
  let n = Array.length faults in
  let status = Array.make n Fsim.Fault.Untested in
  let detected = Array.make n false in
  let stats = Types.new_stats () in
  let test_sets = ref [] in
  let trajectory = ref [] in
  let resolved = ref 0 in
  let checkpoint () =
    trajectory :=
      (Types.work_units stats,
       100.0 *. float_of_int !resolved /. float_of_int (max 1 n))
      :: !trajectory
  in
  apply_prune ?prune c ~engine ~faults ~status ~detected ~stats ~resolved;
  if Option.is_some prune then checkpoint ();
  let learn = if cfg.Types.learn then Some (Podem.new_learn_state ()) else None in
  let learn_state =
    match learn with Some l -> l | None -> Podem.new_learn_state ()
  in
  (* one tape (with its fanout index) per run, shared read-only by every
     attempt's frames, on any domain *)
  let tape = Sim.Tape.compile c in
  (* conflict-driven structural learning: one clause store for the whole
     run, shared across faults (phase-A clauses per anchor site, phase-B
     failed-cube clauses globally) *)
  let slearn =
    if cfg.Types.struct_learn then Some (Learn.create tape) else None
  in
  (* Fault-simulate [seq] with dropping; returns the newly dropped fault
     indices (ascending).  Emits one "fault_sim" event per call. *)
  let apply_fault_sim ~phase seq =
    let run = Fsim.Engine.simulate ~skip:detected c faults seq in
    let work = List.length seq * Netlist.Node.num_gates c in
    stats.Types.work <- stats.Types.work + work;
    note_run_states stats run;
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
    emit_fault_sim_event ~engine ~phase ~stats ~resolved:!resolved
      ~vectors:(List.length seq) ~sim_cycles:run.Fsim.Engine.sim_cycles ~work
      dropped;
    dropped
  in
  (* random phase *)
  let random_seqs =
    random_sequences c ~seed ~count:random_sequences_count
      ~length:random_sequence_length
  in
  let directory =
    Obs.Trace.span "atpg.random_phase" (fun () ->
        List.iter
          (fun seq ->
            let dropped = apply_fault_sim ~phase:"random" seq in
            if dropped <> [] then test_sets := seq :: !test_sets;
            checkpoint ())
          random_seqs;
        let directory = state_directory c random_seqs in
        let dir_work =
          List.fold_left (fun a s -> a + List.length s) 0 random_seqs
          * Netlist.Node.num_gates c
        in
        stats.Types.work <- stats.Types.work + dir_work;
        Obs.Trace.set_time (Types.work_units stats);
        if Obs.Events.enabled () then
          Obs.Events.emit
            [
              ("ev", Obs.Json.String "state_directory");
              ("engine", Obs.Json.String engine);
              ("work", Obs.Json.Int dir_work);
              ("backtracks", Obs.Json.Int 0);
              ("work_units_after", Obs.Json.Int (Types.work_units stats));
              ("resolved_after", Obs.Json.Int !resolved);
            ];
        directory)
  in
  (* deterministic phase

     Split per fault into an [attempt] (the PODEM/justification search —
     for [learn = None] a pure function of the fault, so it can run on
     any domain) and a [commit] (everything that reads or writes shared
     driver state: stats merge, validation fault-sim with dropping,
     status/test-set updates, events).  The sequential path runs
     attempt-then-commit per fault; the parallel path speculates a window
     of attempts across domains and commits them in index order,
     re-checking status and budget at commit time — a speculated fault
     that a committed test has meanwhile dropped is discarded delta and
     all, so the driver's output is bit-identical to the sequential
     loop's at any job count. *)
  let total_budget = cfg.Types.total_work_limit in
  let attempt fault =
    let fstats = Types.new_stats () in
    let learn_arg = if cfg.Types.learn then Some learn_state else None in
    let outcome =
      attempt_fault ~directory ?guide ?slearn tape fault cfg fstats learn_arg
    in
    (outcome, fstats)
  in
  let commit_fault i fault (outcome, (fstats : Types.stats)) =
    merge_stats ~into:stats fstats;
    Obs.Trace.set_time (Types.work_units stats);
    let drop_credit = ref 0 in
    (match outcome with
    | Types.Tested seq ->
      if cfg.Types.validate then begin
        let before = detected.(i) in
        let dropped = apply_fault_sim ~phase:"validate" seq in
        drop_credit :=
          List.length dropped - (if List.mem i dropped then 1 else 0);
        if dropped <> [] then test_sets := seq :: !test_sets;
        if (not before) && not detected.(i) then
          (* the deterministic engine was fooled by its
             approximations; ground truth says undetected *)
          status.(i) <- Fsim.Fault.Aborted
      end
      else begin
        detected.(i) <- true;
        status.(i) <- Fsim.Fault.Detected;
        test_sets := seq :: !test_sets
      end
    | Types.Proved_redundant ->
      status.(i) <- Fsim.Fault.Redundant;
      incr resolved
    | Types.Gave_up -> status.(i) <- Fsim.Fault.Aborted);
    checkpoint ();
    emit_fault_event c ~engine ~index:i ~fault ~fstats
      ~outcome:(outcome_string outcome) ~status:status.(i)
      ~drop_credit:!drop_credit ~stats ~resolved:!resolved
  in
  let deterministic_sequential () =
    try
      Array.iteri
        (fun i fault ->
          if status.(i) = Fsim.Fault.Untested then begin
            if Types.work_units stats > total_budget then raise Exit;
            if Obs.Trace.enabled () then
              Obs.Trace.span
                ~args:[ ("fault", Obs.Json.String (Fsim.Fault.to_string c fault)) ]
                "atpg.fault"
                (fun () -> commit_fault i fault (attempt fault))
            else commit_fault i fault (attempt fault)
          end)
        faults
    with Exit -> ()
  in
  let deterministic_parallel () =
    let window_size = max 2 (2 * Exec.Pool.jobs ()) in
    let cursor = ref 0 in
    try
      while !cursor < n do
        (* Next window of still-untested faults, in index order. *)
        let window = ref [] in
        let len = ref 0 in
        let j = ref !cursor in
        while !j < n && !len < window_size do
          if status.(!j) = Fsim.Fault.Untested then begin
            window := !j :: !window;
            incr len
          end;
          incr j
        done;
        cursor := !j;
        let window = Array.of_list (List.rev !window) in
        if Array.length window > 0 then begin
          let ds =
            Exec.Pool.run_deferred (Array.length window) (fun k ->
                attempt faults.(window.(k)))
          in
          Array.iteri
            (fun k i ->
              (* Re-check at commit time: an earlier commit in this
                 window may have dropped fault [i] (its deferred is then
                 discarded, side effects and all) or pushed the run over
                 budget — exactly the conditions the sequential loop
                 tests before attempting [i]. *)
              if status.(i) = Fsim.Fault.Untested then begin
                if Types.work_units stats > total_budget then raise Exit;
                commit_fault i faults.(i) (Exec.Pool.commit ds.(k))
              end)
            window
        end
      done
    with Exit -> ()
  in
  Obs.Trace.span "atpg.deterministic_phase" (fun () ->
      (* The SEST engine and the structural-learning store are both one
         shared mutable state threaded through every attempt, and tracing
         wants per-fault spans — all inherently sequential, so speculation
         is for the learn-free, untraced configuration (the Table 2-4
         workhorse). *)
      if Exec.Pool.jobs () > 1 && (not cfg.Types.learn)
         && (not cfg.Types.struct_learn)
         && not (Obs.Trace.enabled ())
      then deterministic_parallel ()
      else deterministic_sequential ());
  (* anything still untested ran out of global budget *)
  Array.iteri
    (fun i s -> if s = Fsim.Fault.Untested then status.(i) <- Fsim.Fault.Aborted)
    status;
  checkpoint ();
  Types.summarize ~trajectory:(List.rev !trajectory) faults status
    (List.rev !test_sets) stats
