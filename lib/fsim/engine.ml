(* PROOFS-style parallel-fault sequential simulator: faults are packed into
   machine-word lanes; every lane sees the same input sequence but carries
   its own faulty circuit (and hence its own diverging DFF state).  The good
   circuit is simulated once; a fault is detected the first cycle a primary
   output differs from the good value.

   Fault dropping with PROOFS regrouping: every [window] cycles the
   undetected faults are repacked into fewer words, their faulty state
   moving with them.  One instruction tape (the caller's, or one compiled
   per call) backs the good pass and every faulty word, and simulators
   are reused across words and windows. *)

type run = {
  detected : bool array;       (* per fault index *)
  detect_time : int array;     (* first differing cycle, -1 if undetected *)
  good_states : Sim.Statekey.t list; (* distinct good states, visit order *)
  cycles : int;                (* good-machine vectors applied *)
  sim_cycles : int;            (* faulty-machine word-cycles actually
                                  simulated, summed over the words of every
                                  window (early exits stop counting),
                                  deterministic at any job count *)
}

(* global counters for `satpg --metrics`.  [fsim.vectors] counts
   faulty-machine word-cycles actually simulated — bumped per word and
   window inside the pool task, so early exits are reflected exactly and
   the captured deltas merge deterministically; [fsim.batches] counts
   those word-window tasks.  [fsim.good_cycles] counts good-pass vector
   applications (skipped entirely on an empty worklist). *)
let m_faults = Obs.Metrics.counter "fsim.faults_simulated"
let m_dropped = Obs.Metrics.counter "fsim.faults_detected"
let m_vectors = Obs.Metrics.counter "fsim.vectors"
let m_good = Obs.Metrics.counter "fsim.good_cycles"
let m_batches = Obs.Metrics.counter "fsim.batches"

(* Regrouping window, in cycles.  Survivors are repacked every
   [window] cycles: shorter windows drop finished lanes sooner but pay
   the repacking and the pool round more often.  Measured with
   `bench fsim` and perfbench atpg_pairs at 8, 16 and 32 (DESIGN §7.1):
   16 simulated the fewest cycles per unit of wall time. *)
let window = 16

(* Lane-0 DFF state as an overflow-safe key: the historical int packing
   ([1 lsl i] over the DFF index) silently aliased distinct states on
   circuits with more than 62 DFFs. *)
let state_key_lane0 sim =
  Sim.Statekey.of_lane_words (Sim.Parallel.get_state_words sim) ~lane:0

(* One clean pass: per cycle, each PO's good value as an all-lanes word
   (0 or -1), and the good state trajectory. *)
let good_pass ?backend tape vectors =
  let sim = Sim.Parallel.create_on ?backend tape in
  Sim.Parallel.reset sim;
  let good_states = ref [] in
  let seen = Hashtbl.create 97 in
  let note key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      good_states := key :: !good_states
    end
  in
  note (state_key_lane0 sim);
  let po_words =
    Array.map
      (fun v ->
        let words = Sim.Parallel.step_broadcast sim v in
        note (state_key_lane0 sim);
        Array.map (fun w -> -(w land 1)) words)
      vectors
  in
  Obs.Metrics.add m_good (Array.length vectors);
  (po_words, List.rev !good_states)

(* Next-fit packing of the live faults into words, in worklist order.
   [live] holds worklist positions, ascending; [group p = p / width] is
   the word position [p] had in the first window.  A group that does not
   fit in the current word starts a new one, unless [splits] allows
   splitting it to fill the word (each split group then spans two
   words).  Returns the start of each word in [live], plus a sentinel. *)
let pack ~width ~splits live =
  let n = Array.length live in
  let starts = ref [ 0 ] in
  let start = ref 0 and k = ref 0 and splits = ref splits in
  while !k < n do
    let g = live.(!k) / width in
    let e = ref (!k + 1) in
    while !e < n && live.(!e) / width = g do incr e done;
    if !e - !start > width then begin
      if !splits > 0 && !start + width > !k then begin
        start := !start + width;
        decr splits
      end
      else start := !k;
      starts := !start :: !starts
    end;
    k := !e
  done;
  Array.of_list (List.rev (n :: !starts))

(* What fixed batches spend in a window: each first-window group with a
   live fault runs until its last live fault detects ([life p] cycles
   for the fault at worklist position [p]). *)
let fixed_cost ~width ~life live =
  let n = Array.length live in
  let total = ref 0 and k = ref 0 in
  while !k < n do
    let g = live.(!k) / width and m = ref 0 in
    while !k < n && live.(!k) / width = g do
      m := max !m (life live.(!k));
      incr k
    done;
    total := !total + !m
  done;
  !total

(* The DFF state words of a new word holding [live.(lo .. hi-1)]: each
   fault's lane moves from its last-window word and lane ([loc] =
   word * width + lane), a run of consecutive lanes at a time. *)
let gather_state ~width ~ndffs ~states ~loc ~lo ~hi =
  let st = Array.make ndffs 0 in
  let k = ref lo in
  while !k < hi do
    let l0 = loc.(!k) in
    let e = ref (!k + 1) in
    while !e < hi && loc.(!e) = loc.(!e - 1) + 1 && loc.(!e) / width = l0 / width
    do incr e done;
    let src = states.(l0 / width) and shift = l0 mod width in
    let mask = (1 lsl (!e - !k)) - 1 and dst = !k - lo in
    for d = 0 to ndffs - 1 do
      st.(d) <- st.(d) lor (((src.(d) lsr shift) land mask) lsl dst)
    done;
    k := !e
  done;
  st

(* Simulate [faults] (restricted to [indices] when given) over [vectors].
   Already-detected faults (per [skip]) are excluded from the packing. *)
let simulate ?indices ?skip ?backend ?tape c (faults : Fault.t array) vectors =
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
  let todo = Array.of_list todo in
  let vectors = Array.of_list vectors in
  let detected = Array.make (Array.length faults) false in
  let detect_time = Array.make (Array.length faults) (-1) in
  let body () =
    if Array.length todo = 0 then
      (* nothing to simulate: skip the good pass too, and report zero work *)
      { detected; detect_time; good_states = []; cycles = 0; sim_cycles = 0 }
    else begin
      let tape =
        match tape with
        | None -> Sim.Tape.compile c
        | Some tp ->
          if tp.Sim.Tape.circuit != c then
            invalid_arg "Fsim.Engine.simulate: tape of another circuit";
          tp
      in
      let good_po, good_states = good_pass ?backend tape vectors in
      let width = Sim.Parallel.word_bits in
      let len = Array.length vectors in
      let ndffs = Array.length tape.Sim.Tape.dffs in
      let pos = Array.map snd c.Netlist.Node.pos in
      (* Simulators are reused across batches and windows: a task takes
         one from the free list, clears and re-injects its faults. *)
      let free = ref [] and lock = Mutex.create () in
      let acquire () =
        match Mutex.protect lock (fun () ->
                  match !free with
                  | s :: rest -> free := rest; Some s
                  | [] -> None)
        with
        | Some s -> Sim.Parallel.clear_faults s; s
        | None -> Sim.Parallel.create_on ?backend tape
      in
      let release s = Mutex.protect lock (fun () -> free := s :: !free) in
      (* One word of faults [fs] over cycles [t0 .. t1-1], starting from
         the power-up state at [t0 = 0] and from [state] after.  Returns
         the cycles simulated (the walk stops once every lane has
         detected), the lanes still undetected, and their state. *)
      let run_batch ~t0 ~t1 fs state =
        Obs.Metrics.incr m_batches;
        let sim = acquire () in
        Array.iteri (fun lane i -> Fault.inject sim faults.(i) ~lane) fs;
        (match state with
        | None -> Sim.Parallel.reset sim
        | Some st -> Sim.Parallel.set_state_words sim st);
        let alive = ref ((1 lsl Array.length fs) - 1) in
        let t = ref t0 in
        while !t < t1 && !alive <> 0 do
          Sim.Parallel.set_input_broadcast sim vectors.(!t);
          Sim.Parallel.eval_comb sim;
          let gpo = good_po.(!t) in
          let diff = ref 0 in
          for k = 0 to Array.length pos - 1 do
            diff :=
              !diff lor (Sim.Parallel.node_word sim pos.(k) lxor gpo.(k))
          done;
          let hit = !diff land !alive in
          if hit <> 0 then begin
            for lane = 0 to Array.length fs - 1 do
              if (hit lsr lane) land 1 = 1 then begin
                detected.(fs.(lane)) <- true;
                detect_time.(fs.(lane)) <- !t
              end
            done;
            alive := !alive land lnot hit
          end;
          Sim.Parallel.tick sim;
          incr t
        done;
        let out =
          if !alive = 0 then [||] else Sim.Parallel.get_state_words sim
        in
        release sim;
        Obs.Metrics.add m_vectors (!t - t0);
        (!t - t0, !alive, out)
      in
      (* PROOFS regrouping.  Each window packs the live faults (worklist
         positions, ascending) into words; a word is an independent pool
         task writing disjoint [detected]/[detect_time] slots, and the
         captured metric deltas merge in submission order, so results and
         metrics are identical at any job count.  Lane state moves with
         its fault between windows; a lane's machine depends only on its
         fault, the inputs and its own state, so detections and detect
         times are those of fixed batches.  [slack] is the word-cycles
         saved against fixed batches so far; each group split spends at
         most one window of it, so [sim_cycles] never exceeds theirs. *)
      let life ~t0 ~wlen p =
        let f = todo.(p) in
        if detected.(f) then detect_time.(f) - t0 + 1 else wlen
      in
      let sim_cycles = ref 0 and slack = ref 0 in
      let live = ref (Array.init (Array.length todo) Fun.id) in
      let loc = ref [||] and states = ref [||] in
      let t0 = ref 0 in
      while !t0 < len && Array.length !live > 0 do
        let t0v = !t0 and t1 = min len (!t0 + window) in
        let live_a = !live and loc_a = !loc and states_a = !states in
        let wlen = t1 - t0v in
        let starts = pack ~width ~splits:(!slack / wlen) live_a in
        let nb = Array.length starts - 1 in
        let results =
          Exec.Pool.run nb (fun j ->
              let lo = starts.(j) and hi = starts.(j + 1) in
              let fs = Array.init (hi - lo) (fun k -> todo.(live_a.(lo + k))) in
              let state =
                if t0v = 0 then None
                else
                  Some
                    (gather_state ~width ~ndffs ~states:states_a ~loc:loc_a
                       ~lo ~hi)
              in
              run_batch ~t0:t0v ~t1 fs state)
        in
        let next_live = Array.make (Array.length live_a) 0
        and next_loc = Array.make (Array.length live_a) 0
        and m = ref 0 in
        Array.iteri
          (fun j (_, alive, _) ->
            for lane = 0 to starts.(j + 1) - starts.(j) - 1 do
              if (alive lsr lane) land 1 = 1 then begin
                next_live.(!m) <- live_a.(starts.(j) + lane);
                next_loc.(!m) <- (j * width) + lane;
                incr m
              end
            done)
          results;
        let ours = Array.fold_left (fun a (cyc, _, _) -> a + cyc) 0 results in
        sim_cycles := !sim_cycles + ours;
        slack :=
          !slack + fixed_cost ~width ~life:(life ~t0:t0v ~wlen) live_a - ours;
        live := Array.sub next_live 0 !m;
        loc := Array.sub next_loc 0 !m;
        states := Array.map (fun (_, _, st) -> st) results;
        t0 := t1
      done;
      Obs.Metrics.add m_faults (Array.length todo);
      Obs.Metrics.add m_dropped
        (Array.fold_left (fun a d -> if d then a + 1 else a) 0 detected);
      { detected; detect_time; good_states; cycles = len;
        sim_cycles = !sim_cycles }
    end
  in
  if Obs.Trace.enabled () then
    Obs.Trace.span "fsim.simulate" body
      ~args:
        [
          ("faults", Obs.Json.Int (Array.length todo));
          ("vectors", Obs.Json.Int (Array.length vectors));
        ]
  else body ()

(* Convenience: does [vectors] detect the single fault [f]? *)
let detects c f vectors =
  let faults = [| f |] in
  let r = simulate c faults vectors in
  r.detected.(0)

(* Fault coverage bookkeeping. *)
let coverage ~detected ~total =
  100.0 *. float_of_int detected /. float_of_int (max 1 total)
