(* Shared machinery of the benchmark workloads: statistics, timed rounds,
   exactness digests, the result line, and the span tree rebuilt from an
   Obs.Trace sink (or recorded directly by the serve client). *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------ statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of nothing"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile of nothing"
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let safe_div a b = if b = 0.0 then 0.0 else a /. b

let ratio num den = safe_div (float_of_int num) (float_of_int den)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------ the process *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

let counter name = Obs.Metrics.count (Obs.Metrics.counter name)

let counters names = List.map (fun n -> (n, counter n)) names

(* Per-name difference of two [counters] snapshots. *)
let delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------- exactness *)

let digest parts =
  Netlist.Structhash.to_hex
    (List.fold_left Netlist.Structhash.string Netlist.Structhash.empty parts)

(* Exact per-item digests must repeat across runs of one build.  The
   first run of a build records them under [out]; later runs compare.
   Returns the items whose digest differs from the recorded one. *)
let cross_run_check ~out ~workload (items : (string * string) list) =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let file =
    Filename.concat out (Printf.sprintf "exact-%s-%s.json" workload exe)
  in
  let fresh = Obs.Json.Obj (List.map (fun (k, d) -> (k, Obs.Json.String d)) items) in
  if Sys.file_exists file then begin
    let recorded = Obs.Json.parse (read_file file) in
    List.filter
      (fun (k, d) ->
        Option.bind (Obs.Json.member k recorded) Obs.Json.to_string_opt
        <> Some d)
      items
    |> List.map fst
  end
  else begin
    Obs.Fileio.write_string_atomic file (Obs.Json.to_string fresh ^ "\n");
    []
  end

(* ---------------------------------------------------------------- result *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  let metric x =
    ( x.name,
      Obs.Json.Obj
        [ ("value", Obs.Json.Float x.value); ("unit", Obs.Json.String x.unit_) ]
    )
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj (List.map metric metrics));
          ]))

(* ----------------------------------------------------------------- rounds *)

(* What one round measured: its time and the latency of every call (or
   request) in it. *)
type clock = { mutable spent : float; mutable calls : float list }

let clock () = { spent = 0.0; calls = [] }

(* Run [round r] for r = 0, 1, ... until [seconds] have passed and at
   least [min_rounds] ran, calling [between ()] after each round; with
   [measured], only the rounds' own measured time counts towards
   [seconds].  The clocks of all rounds, in order. *)
let rounds ?(between = ignore) ?(measured = false) ~seconds ~min_rounds round =
  let t0 = now () in
  let rec go r acc total =
    let elapsed = if measured then total else now () -. t0 in
    if r >= min_rounds && elapsed >= seconds then List.rev acc
    else begin
      let c = round r in
      log "round %d: %.4f s" r c.spent;
      between ();
      go (r + 1) (c :: acc) (total +. c.spent)
    end
  in
  go 0 [] 0.0

(* One timed call into a layer.  Every call starts from a compacted
   heap, as a fresh process would, so its time does not depend on what
   the previous call left behind; the compaction is not timed. *)
let timed c f =
  Gc.compact ();
  let r, dt = time f in
  c.spent <- c.spent +. dt;
  c.calls <- dt :: c.calls;
  r

(* One repetition of a workload's set-up, from scratch and from a
   compacted heap.  A workload repeats its set-up several times — the
   batch workloads once more after every round, so the repetitions
   sample the host over the whole run as the rounds do — and reports
   the median duration as [setup_s ()]. *)
let setup_times = ref []

let setup_rep f =
  Gc.compact ();
  let r, dt = time f in
  setup_times := dt :: !setup_times;
  r

let setup_s () = median !setup_times

(* ------------------------------------------------------------------ spans *)

type span = {
  s_name : string;
  s_id : string;      (* circuit or request id, inherited from ancestors *)
  start : float;      (* seconds *)
  stop : float;
  parent : int;       (* index into the span array, -1 at top level *)
}

let duration s = s.stop -. s.start

(* Rebuild spans from a Chrome trace of an Obs.Trace sink installed with a
   wall clock.  Spans this benchmark opens carry an "id" argument; the
   library's own spans inherit the id of their nearest ancestor.  Fails
   on an unbalanced trace. *)
let spans_of_chrome trace =
  let events =
    match Obs.Json.member "traceEvents" trace with
    | Some (Obs.Json.List l) -> l
    | _ -> failwith "trace has no traceEvents"
  in
  let opened = ref [] and stops = Hashtbl.create 256 and n = ref 0 in
  let stack = ref [] in
  let str k e = Option.bind (Obs.Json.member k e) Obs.Json.to_string_opt in
  let arg k e = Option.bind (Obs.Json.member "args" e) (Obs.Json.member k) in
  List.iter
    (fun e ->
      let name = Option.value ~default:"" (str "name" e) in
      let wall () =
        match Option.bind (arg "wall_us" e) Obs.Json.to_int_opt with
        | Some us -> float_of_int us /. 1e6
        | None -> failwith "trace event without wall_us"
      in
      match str "ph" e with
      | Some "B" ->
        let parent, parent_id =
          match !stack with (_, idx, id) :: _ -> (idx, id) | [] -> (-1, "")
        in
        let id =
          Option.value ~default:parent_id
            (Option.bind (arg "id" e) Obs.Json.to_string_opt)
        in
        opened :=
          { s_name = name; s_id = id; start = wall (); stop = nan; parent }
          :: !opened;
        stack := (name, !n, id) :: !stack;
        incr n
      | Some "E" -> (
        match !stack with
        | (bname, idx, _) :: rest when bname = name ->
          Hashtbl.replace stops idx (wall ());
          stack := rest
        | _ -> failwith ("unbalanced trace at the end of " ^ name))
      | _ -> ())
    events;
  if !stack <> [] then failwith "unbalanced trace: spans left open";
  Array.mapi
    (fun i s -> { s with stop = Hashtbl.find stops i })
    (Array.of_list (List.rev !opened))

(* Self time: duration minus the time covered by direct children.  The
   spans of one thread nest, so the children never overlap. *)
let self_times spans =
  let child = Array.make (Array.length spans) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s)
    spans;
  Array.mapi (fun i s -> duration s -. child.(i)) spans

(* The top-level ancestor of every span. *)
let roots spans =
  let r = Array.make (Array.length spans) 0 in
  Array.iteri (fun i s -> r.(i) <- (if s.parent < 0 then i else r.(s.parent))) spans;
  r

(* The benchmark's round spans, one per traced round. *)
let round_roots spans =
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun i s -> if s.s_name = "bench.round" then Some i else None)
          spans))

(* Per round, the summed duration (or self time) of the spans named
   [name]; the median over [rounds]. *)
let per_round_median ?(self = false) spans ~rounds name =
  let root = roots spans in
  let time = if self then self_times spans else Array.map duration spans in
  let sums = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace sums r 0.0) rounds;
  Array.iteri
    (fun i s ->
      if s.s_name = name then
        match Hashtbl.find_opt sums root.(i) with
        | Some t -> Hashtbl.replace sums root.(i) (t +. time.(i))
        | None -> ())
    spans;
  median (Hashtbl.fold (fun _ t acc -> t :: acc) sums [])

(* Write the spans as a Chrome trace (complete events, microseconds) and
   a per-name summary of count, total and self seconds. *)
let write_trace ~file spans =
  let self = self_times spans in
  let t0 = Array.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let ev i s =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String s.s_name);
        ("ph", Obs.Json.String "X");
        ("ts", Obs.Json.Float ((s.start -. t0) *. 1e6));
        ("dur", Obs.Json.Float (duration s *. 1e6));
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int 1);
        ( "args",
          Obs.Json.Obj
            [
              ("id", Obs.Json.String s.s_id);
              ("span", Obs.Json.Int i);
              ("parent", Obs.Json.Int s.parent);
              ("self_us", Obs.Json.Float (self.(i) *. 1e6));
            ] );
      ]
  in
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let c, t, st =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.s_name)
      in
      Hashtbl.replace by_name s.s_name (c + 1, t +. duration s, st +. self.(i)))
    spans;
  let summary =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
    |> List.map (fun (k, (c, t, st)) ->
           ( k,
             Obs.Json.Obj
               [
                 ("count", Obs.Json.Int c);
                 ("total_s", Obs.Json.Float t);
                 ("self_s", Obs.Json.Float st);
               ] ))
  in
  Obs.Fileio.write_string_atomic file
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("traceEvents", Obs.Json.List (Array.to_list (Array.mapi ev spans)));
            ("displayTimeUnit", Obs.Json.String "ms");
            ("selfSummary", Obs.Json.Obj summary);
          ])
    ^ "\n")

(* Run [f] with an Obs.Trace sink installed when [traced]; the sink
   collects every traced call of the run. *)
let sink = lazy (Obs.Trace.create ~wallclock:now ())

let traced_if traced f =
  if not traced then f ()
  else begin
    Obs.Trace.install (Lazy.force sink);
    Fun.protect ~finally:Obs.Trace.uninstall f
  end

(* A benchmark span around a call into a layer. *)
let span ?id name f =
  let args = match id with Some i -> [ ("id", Obs.Json.String i) ] | None -> [] in
  Obs.Trace.span ~args name f

let sink_spans () = spans_of_chrome (Obs.Trace.to_chrome (Lazy.force sink))

(* Tracing overhead: median traced round over median untraced round
   (the odd rounds are traced). *)
let overhead_pct clocks =
  let walls = List.map (fun c -> c.spent) clocks in
  let untraced = List.filteri (fun i _ -> i mod 2 = 0) walls
  and traced = List.filteri (fun i _ -> i mod 2 = 1) walls in
  (median traced -. median untraced) /. median untraced *. 100.0

(* -------------------------------------------------------------- metrics *)

(* Every workload prints every metric of BENCHMARK.json, each measured
   the same way on every workload.  A layer a workload does not enter
   reads 0: no span of it opens, no counter of it moves, and there is no
   result of it to sum. *)

(* The end-to-end metrics of untraced [rounds].  A call's latency is the
   time of one call into a layer (batch workloads) or of one request
   (serve_replay); p50 and p99 are nearest-rank within a round, and
   every figure is a median over the rounds. *)
let end_to_end ~rounds ~peak_rss ~ok_pct =
  let over f = median (List.map f rounds) in
  let q p = 1000.0 *. over (fun c -> percentile c.calls p) in
  [
    m "setup_s" "s" (setup_s ());
    m "wall_s" "s" (over (fun c -> c.spent));
    m "p50_ms" "ms" (q 0.50);
    m "p99_ms" "ms" (q 0.99);
    m "peak_rss_mb" "MB" peak_rss;
    m "ok_pct" "%" ok_pct;
  ]

(* Obs.Metrics counters the per-layer metrics read, as deltas over one
   round.  They are exact, so every round must give the same deltas. *)
let layer_counters =
  [
    "retime.feas.calls"; "retime.feas.relaxations"; "retime.search.probes";
    "bdd.cache_hits"; "bdd.cache_lookups"; "symreach.iterations";
    "untest.proved"; "fsim.vectors"; "fsim.faults_detected";
    "fsim.faults_simulated";
  ]

(* Peak of the live BDD node gauge, sampled after every call. *)
let nodes_peak = ref 0.0

let sample_nodes () =
  nodes_peak := Float.max !nodes_peak (Obs.Metrics.value (Obs.Metrics.gauge "bdd.nodes"))

(* Classification and ATPG of one circuit. *)
type outcome = { untest : Analysis.Untest.t; atpg : Atpg.Types.result }

let test_vectors (r : Atpg.Types.result) =
  List.fold_left (fun a s -> a + List.length s) 0 r.Atpg.Types.test_sets

(* What the daemon's answers and /metrics gave, and the layers timed on
   the replay's own request lines and circuits. *)
type requests = {
  decode_us : float;
  blif_parse_ms : float;
  structhash_ms : float;
  read_p50_ms : float;
  read_p99_ms : float;
  write_p50_ms : float;
  write_pct : float;
  hash_read_pct : float;
  batch_mean : float;
  hit_ratio : float;
  disk_writes : float;
  coalesced : float;
  overloaded : float;
  errors : float;
}

(* A workload that sends no request to a daemon. *)
let no_requests =
  {
    decode_us = 0.0; blif_parse_ms = 0.0; structhash_ms = 0.0;
    read_p50_ms = 0.0; read_p99_ms = 0.0; write_p50_ms = 0.0;
    write_pct = 0.0; hash_read_pct = 0.0; batch_mean = 0.0; hit_ratio = 0.0;
    disk_writes = 0.0; coalesced = 0.0; overloaded = 0.0; errors = 0.0;
  }

(* The per-layer metrics of a traced run.  [spans] holds one
   "bench.round" root per traced round; layer times are the median over
   those rounds of the summed span durations (self time for
   untest.per_fault_s).  [counts] are the [layer_counters] deltas of one
   round; [flows] the pairs the run built, [outcomes] the circuits it
   classified and tested (named "<pair>.orig" and "<pair>.re"), each
   once. *)
let per_layer ~spans ~counts ~flows ~outcomes ~requests ~overhead_pct =
  let rounds = round_roots spans in
  let layer name = per_round_median spans ~rounds name in
  let cnt name = float_of_int (List.assoc name counts) in
  let sum f = List.fold_left (fun a (name, o) -> a +. f name o) 0.0 outcomes in
  let stat f = sum (fun _ o -> float_of_int (f o.atpg.Atpg.Types.stats)) in
  let work = stat Atpg.Types.work_units in
  let work_of suffix =
    sum (fun name o ->
        if Filename.check_suffix name suffix then
          float_of_int (Atpg.Types.work_units o.atpg.Atpg.Types.stats)
        else 0.0)
  in
  (* faults a run settles: detected, or proved untestable by the engine
     or by classification *)
  let faults = sum (fun _ o -> float_of_int (Array.length o.atpg.Atpg.Types.faults)) in
  let settled pred =
    sum (fun _ o ->
        let n = ref 0 in
        Array.iteri
          (fun i f ->
            if pred o.atpg.Atpg.Types.status.(i)
                 (Analysis.Untest.lookup o.untest f <> Analysis.Untest.Unknown)
            then incr n)
          o.atpg.Atpg.Types.faults;
        float_of_int !n)
  in
  let detected = settled (fun s _ -> s = Fsim.Fault.Detected) in
  let efficient =
    settled (fun s proved ->
        match s with
        | Fsim.Fault.Detected | Fsim.Fault.Redundant | Fsim.Fault.Proved_untestable -> true
        | Fsim.Fault.Untested | Fsim.Fault.Aborted -> proved)
  in
  let flow f = List.fold_left (fun a p -> a +. f p) 0.0 flows in
  let generate_s = layer "bench.generate" in
  let r = requests in
  [
    m "synth.script_s" "s" (layer "synth.script");
    m "synth.techmap_s" "s" (layer "synth.techmap");
    m "synth.total_s" "s" (layer "flow.synth");
    m "retime.min_period_s" "s" (layer "retime.min_period");
    m "retime.feas_calls" "count" (cnt "retime.feas.calls");
    m "retime.feas_relaxations" "count" (cnt "retime.feas.relaxations");
    m "retime.search_probes" "count" (cnt "retime.search.probes");
    m "flow.circuit_area" "area"
      (flow (fun p -> Netlist.Node.area p.Core.Flow.original +. Netlist.Node.area p.Core.Flow.retimed));
    m "flow.clock_period" "delay" (flow (fun p -> p.Core.Flow.retimed_period));
    m "untest.classify_s" "s" (layer "untest.classify");
    m "untest.symbolic_s" "s" (layer "untest.symbolic");
    m "untest.ternary_s" "s" (layer "untest.ternary");
    m "untest.per_fault_s" "s" (per_round_median ~self:true spans ~rounds "untest.classify");
    m "bdd.cache_hit_ratio" "ratio" (safe_div (cnt "bdd.cache_hits") (cnt "bdd.cache_lookups"));
    m "bdd.nodes_peak" "nodes" !nodes_peak;
    m "symreach.iterations" "count" (cnt "symreach.iterations");
    m "untest.proved" "count" (cnt "untest.proved");
    m "atpg.generate_s" "s" generate_s;
    m "atpg.deterministic_phase_s" "s" (layer "atpg.deterministic_phase");
    m "atpg.random_phase_s" "s" (layer "atpg.random_phase");
    m "atpg.work_units_per_s" "1/s" (safe_div work generate_s);
    m "atpg.work_units" "count" work;
    m "atpg.backtracks" "count" (stat (fun s -> s.Atpg.Types.backtracks));
    m "atpg.decisions" "count" (stat (fun s -> s.Atpg.Types.decisions));
    m "atpg.frames_expanded" "count" (stat (fun s -> s.Atpg.Types.frames));
    m "atpg.test_vectors" "count" (sum (fun _ o -> float_of_int (test_vectors o.atpg)));
    m "atpg.retimed_work_ratio" "ratio" (safe_div (work_of ".re") (work_of ".orig"));
    m "atpg.fault_coverage_pct" "%" (100.0 *. safe_div detected faults);
    m "atpg.fault_efficiency_pct" "%" (100.0 *. safe_div efficient faults);
    m "fsim.vectors" "count" (cnt "fsim.vectors");
    m "fsim.detect_ratio" "ratio"
      (safe_div (cnt "fsim.faults_detected") (cnt "fsim.faults_simulated"));
    m "protocol.decode_us" "us" r.decode_us;
    m "netlist.blif_parse_ms" "ms" r.blif_parse_ms;
    m "netlist.structhash_ms" "ms" r.structhash_ms;
    m "serve.read_p50_ms" "ms" r.read_p50_ms;
    m "serve.read_p99_ms" "ms" r.read_p99_ms;
    m "serve.write_p50_ms" "ms" r.write_p50_ms;
    m "serve.write_pct" "%" r.write_pct;
    m "serve.hash_read_pct" "%" r.hash_read_pct;
    m "serve.batch_mean" "requests" r.batch_mean;
    m "serve.hit_ratio" "ratio" r.hit_ratio;
    m "store.disk_writes" "count" r.disk_writes;
    m "serve.coalesced" "count" r.coalesced;
    m "serve.overloaded" "count" r.overloaded;
    m "serve.errors" "count" r.errors;
    m "trace.overhead_pct" "%" overhead_pct;
  ]

(* The [layer_counters] deltas of the first round, and whether every
   round gave the same ones. *)
let agreed_counts ~workload = function
  | [] -> (List.map (fun n -> (n, 0)) layer_counters, true)
  | first :: rest ->
    let same = List.for_all (fun c -> c = first) rest in
    if not same then log "%s: counter deltas differ between rounds" workload;
    (first, same)
