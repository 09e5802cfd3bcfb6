(* Observability tests: metrics registry semantics, span nesting/balance,
   Chrome-trace JSON round-trips, the JSONL <-> Atpg.Types.stats accounting
   invariant (events alone rebuild a run's aggregate work units and fault
   statuses, so Table-2-style ratios are recoverable offline), and the
   bit-identical-results property with tracing off vs on. *)

module J = Obs.Json

(* Every test must leave the global sinks uninstalled, or instrumentation
   leaks into unrelated suites. *)
let with_sinks f =
  let tsink = Obs.Trace.create () in
  let esink = Obs.Events.create () in
  Obs.Trace.install tsink;
  Obs.Events.install esink;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.uninstall ();
      Obs.Events.uninstall ())
    (fun () -> f tsink esink)

(* A cheap config so the ATPG-backed tests stay fast; the invariant under
   test is exact at any budget. *)
let small_config =
  {
    Atpg.Types.default_config with
    Atpg.Types.backtrack_limit = 50;
    work_limit = 50_000;
    total_work_limit = 2_000_000;
  }

let dk16_pair =
  lazy (Core.Flow.pair "dk16" Synth.Assign.Input_dominant Synth.Flow.Rugged)

(* --- json -------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("i", J.Int (-42));
        ("big", J.Int max_int);
        ("f", J.Float 3.25);
        ("tiny", J.Float 1.0e-17);
        ("s", J.String "quote \" slash \\ newline \n tab \t");
        ("l", J.List [ J.Null; J.Bool true; J.Bool false; J.Int 0 ]);
        ("o", J.Obj [ ("nested", J.List [ J.Float 0.1 ]) ]);
      ]
  in
  Alcotest.(check bool)
    "parse inverts to_string" true
    (J.equal doc (J.parse (J.to_string doc)))

let test_json_float_property () =
  let open QCheck in
  Test.make ~count:500 ~name:"finite floats round-trip bit-exactly" float
    (fun f ->
      assume (Float.is_finite f);
      J.equal (J.Float f) (J.parse (J.to_string (J.Float f))))

let test_json_nonfinite () =
  Alcotest.(check string) "nan renders null" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string)
    "inf renders null" "null"
    (J.to_string (J.Float Float.infinity))

(* --- metrics ----------------------------------------------------------------- *)

let test_registry () =
  let r = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter ~registry:r "a.count" in
  let c2 = Obs.Metrics.counter ~registry:r "a.count" in
  Obs.Metrics.add c1 5;
  Obs.Metrics.incr c2;
  Alcotest.(check int) "same name, same handle" 6 (Obs.Metrics.count c1);
  let g = Obs.Metrics.gauge ~registry:r "a.gauge" in
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge last-write-wins" 2.5 (Obs.Metrics.value g);
  let h = Obs.Metrics.histogram ~registry:r "a.hist" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 100 ];
  Alcotest.(check int) "observations" 5 (Obs.Metrics.observations h);
  Alcotest.(check int) "sum" 106 (Obs.Metrics.sum h);
  Alcotest.(check int) "bucket of 0" 0 (Obs.Metrics.bucket_of 0);
  Alcotest.(check int) "bucket of 1" 1 (Obs.Metrics.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 1 (Obs.Metrics.bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (Obs.Metrics.bucket_of 3);
  (* snapshot parses and holds the expected counter value *)
  let snap = J.parse (J.to_string (Obs.Metrics.snapshot ~registry:r ())) in
  let count =
    Option.bind (J.member "counters" snap) (J.member "a.count")
  in
  Alcotest.(check (option int))
    "snapshot counter" (Some 6)
    (Option.bind count J.to_int_opt);
  (* reset zeroes but keeps the registration (handles stay valid) *)
  Obs.Metrics.reset ~registry:r ();
  Obs.Metrics.incr c1;
  Alcotest.(check int) "reset keeps handles" 1 (Obs.Metrics.count c2)

(* Every cumulative Prometheus bucket must count exactly the raw
   observations <= its [le] bound. *)
let test_prom_buckets () =
  let r = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:r "lat.us" in
  let values = [ 0; 0; 1; 2; 3; 5; 6; 7; 13; 14; 15; 30; 100; 1000 ] in
  List.iter (Obs.Metrics.observe h) values;
  let prefix = "satpg_lat_us_bucket{le=\"" in
  let buckets =
    String.split_on_char '\n' (Obs.Prom.render ~registry:r ())
    |> List.filter_map (fun line ->
           if String.starts_with ~prefix line then
             Scanf.sscanf
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix))
               "%[^\"]\"} %d"
               (fun le n -> Some (le, n))
           else None)
  in
  let le_values = List.map fst buckets in
  Alcotest.(check (list string))
    "bounds 2^(i+1) - 2, then +Inf"
    [ "0"; "2"; "6"; "14"; "30"; "62"; "126"; "254"; "510"; "1022"; "+Inf" ]
    le_values;
  List.iter
    (fun (le, n) ->
      let want =
        if le = "+Inf" then List.length values
        else
          let bound = int_of_string le in
          List.length (List.filter (fun v -> v <= bound) values)
      in
      Alcotest.(check int) ("observations <= " ^ le) want n)
    buckets

(* --- spans ------------------------------------------------------------------- *)

let test_span_balance () =
  with_sinks @@ fun tsink _ ->
  Obs.Trace.set_time 10;
  Obs.Trace.span "outer" (fun () ->
      Obs.Trace.set_time 20;
      Obs.Trace.span "inner" (fun () -> Obs.Trace.set_time 30);
      Obs.Trace.instant "mark");
  (try
     Obs.Trace.span "raising" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "all spans closed" 0 (Obs.Trace.depth tsink);
  (* 2 events per span (x3) + 1 instant *)
  Alcotest.(check int) "event count" 7 (Obs.Trace.num_events tsink);
  let durs = Obs.Trace.durations tsink in
  let find n = List.find (fun (nm, _, _) -> nm = n) durs in
  let _, outer_n, outer_t = find "outer" in
  let _, _, inner_t = find "inner" in
  Alcotest.(check int) "outer count" 1 outer_n;
  Alcotest.(check int) "outer duration" 20 outer_t;
  Alcotest.(check int) "inner duration" 10 inner_t

let test_chrome_roundtrip () =
  let doc =
    with_sinks @@ fun tsink _ ->
    Obs.Trace.span "a" (fun () ->
        Obs.Trace.tick ();
        Obs.Trace.span "b" (fun () -> Obs.Trace.tick ()));
    Obs.Trace.to_chrome tsink
  in
  let parsed = J.parse (J.to_string doc) in
  Alcotest.(check bool) "chrome doc round-trips" true (J.equal doc parsed);
  match J.member "traceEvents" parsed with
  | Some (J.List evs) ->
    let phase e =
      Option.bind (J.member "ph" e) J.to_string_opt |> Option.value ~default:""
    in
    let count p = List.length (List.filter (fun e -> phase e = p) evs) in
    Alcotest.(check int) "begin/end balanced" (count "B") (count "E");
    Alcotest.(check int) "two spans" 2 (count "B");
    (* timestamps are monotone in file order for a single-threaded trace *)
    let ts =
      List.filter_map
        (fun e -> Option.bind (J.member "ts" e) J.to_int_opt)
        evs
    in
    Alcotest.(check bool)
      "timestamps monotone" true
      (fst
         (List.fold_left
            (fun (ok, prev) t -> (ok && t >= prev, t))
            (true, min_int) ts))
  | _ -> Alcotest.fail "traceEvents missing"

(* --- JSONL <-> stats invariant ----------------------------------------------- *)

let field_int name rec_ =
  match Option.bind (J.member name rec_) J.to_int_opt with
  | Some v -> v
  | None -> Alcotest.failf "record lacks int field %s" name

let field_str name rec_ =
  match Option.bind (J.member name rec_) J.to_string_opt with
  | Some v -> v
  | None -> Alcotest.failf "record lacks string field %s" name

(* Run [generate] with sinks installed; return (result, parsed JSONL). *)
let run_with_events generate =
  with_sinks @@ fun _ esink ->
  let r = generate () in
  (r, List.map J.parse (Obs.Events.to_lines esink))

(* Rebuild the aggregate accounting and per-fault statuses from the event
   records alone and compare them to the in-memory result.  When
   [fsim_vectors] (the run's delta of the "fsim.vectors" counter) is
   given, the per-event [sim_cycles] fields must sum to it: the events
   account for every faulty-machine cycle the engine actually ran. *)
let check_events_vs_stats ?fsim_vectors (r : Atpg.Types.result) events =
  let work = ref 0 and backtracks = ref 0 and sim_cycles = ref 0 in
  let n = Array.length r.Atpg.Types.faults in
  let status = Array.make n Fsim.Fault.Untested in
  List.iter
    (fun e ->
      work := !work + field_int "work" e;
      backtracks := !backtracks + field_int "backtracks" e;
      match field_str "ev" e with
      | "fault_sim" ->
        sim_cycles := !sim_cycles + field_int "sim_cycles" e;
        (match J.member "dropped" e with
         | Some (J.List l) ->
           List.iter
             (fun i ->
               match J.to_int_opt i with
               | Some i -> status.(i) <- Fsim.Fault.Detected
               | None -> Alcotest.fail "non-int dropped index")
             l
         | _ -> Alcotest.fail "fault_sim lacks dropped list")
      | "fault" ->
        let i = field_int "index" e in
        status.(i) <-
          (match field_str "status" e with
           | "detected" -> Fsim.Fault.Detected
           | "redundant" -> Fsim.Fault.Redundant
           | "aborted" -> Fsim.Fault.Aborted
           | "untested" -> Fsim.Fault.Untested
           | "proved_untestable" -> Fsim.Fault.Proved_untestable
           | s -> Alcotest.failf "unknown status %s" s)
      | "state_directory" -> ()
      | ev -> Alcotest.failf "unknown event kind %s" ev)
    events;
  (* faults never reached (global budget) are reported aborted *)
  Array.iteri
    (fun i s -> if s = Fsim.Fault.Untested then status.(i) <- Fsim.Fault.Aborted)
    status;
  Alcotest.(check int) "sum of event work" r.Atpg.Types.stats.Atpg.Types.work !work;
  Alcotest.(check int)
    "sum of event backtracks" r.Atpg.Types.stats.Atpg.Types.backtracks
    !backtracks;
  Alcotest.(check int)
    "work + 50*backtracks = work units"
    (Atpg.Types.work_units r.Atpg.Types.stats)
    (!work + (50 * !backtracks));
  Alcotest.(check bool)
    "statuses rebuilt from events" true
    (r.Atpg.Types.status = status);
  (match fsim_vectors with
   | Some delta ->
     Alcotest.(check int) "sum of event sim_cycles" delta !sim_cycles
   | None -> ());
  (* the running total in the last record agrees with the final stats *)
  match List.rev events with
  | last :: _ ->
    Alcotest.(check int)
      "final work_units_after"
      (Atpg.Types.work_units r.Atpg.Types.stats)
      (field_int "work_units_after" last)
  | [] -> Alcotest.fail "no events emitted"

(* Read outside parallel sections only (see Obs.Metrics). *)
let fsim_vectors_count () =
  Obs.Metrics.count (Obs.Metrics.counter "fsim.vectors")

let test_events_invariant_run () =
  let p = Lazy.force dk16_pair in
  let before = fsim_vectors_count () in
  let r, events =
    run_with_events (fun () ->
        Atpg.Run.generate ~config:small_config p.Core.Flow.original)
  in
  check_events_vs_stats ~fsim_vectors:(fsim_vectors_count () - before) r
    events

let test_events_invariant_attest () =
  let p = Lazy.force dk16_pair in
  let before = fsim_vectors_count () in
  let r, events =
    run_with_events (fun () ->
        Atpg.Attest.generate
          ~config:
            {
              small_config with
              Atpg.Types.work_limit = 20_000;
              total_work_limit = 500_000;
            }
          p.Core.Flow.original)
  in
  check_events_vs_stats ~fsim_vectors:(fsim_vectors_count () - before) r
    events

(* Table-2-style check: the retimed/original work-unit ratio of a benchmark
   pair, computed from the JSONL records alone, matches the ratio of the
   engines' own aggregate counters. *)
let test_table2_ratio_from_events () =
  let p = Lazy.force dk16_pair in
  let run circuit =
    run_with_events (fun () ->
        Atpg.Run.generate ~config:small_config circuit)
  in
  let ro, eo = run p.Core.Flow.original in
  let rr, er = run p.Core.Flow.retimed in
  let units events =
    List.fold_left
      (fun a e -> a + field_int "work" e + (50 * field_int "backtracks" e))
      0 events
  in
  let from_events = float_of_int (units er) /. float_of_int (units eo) in
  let from_stats =
    float_of_int (Atpg.Types.work_units rr.Atpg.Types.stats)
    /. float_of_int (Atpg.Types.work_units ro.Atpg.Types.stats)
  in
  Alcotest.(check (float 1e-9)) "ratio rebuilt offline" from_stats from_events

(* --- tracing on/off determinism ---------------------------------------------- *)

let test_instrumentation_is_inert () =
  let p = Lazy.force dk16_pair in
  let bare = Atpg.Run.generate ~config:small_config p.Core.Flow.original in
  let traced, _ =
    run_with_events (fun () ->
        Atpg.Run.generate ~config:small_config p.Core.Flow.original)
  in
  Alcotest.(check int)
    "work units identical"
    (Atpg.Types.work_units bare.Atpg.Types.stats)
    (Atpg.Types.work_units traced.Atpg.Types.stats);
  Alcotest.(check int)
    "decisions identical" bare.Atpg.Types.stats.Atpg.Types.decisions
    traced.Atpg.Types.stats.Atpg.Types.decisions;
  Alcotest.(check bool)
    "statuses identical" true
    (bare.Atpg.Types.status = traced.Atpg.Types.status);
  Alcotest.(check (float 0.0))
    "coverage identical" bare.Atpg.Types.fault_coverage
    traced.Atpg.Types.fault_coverage

(* --- ledger ------------------------------------------------------------------ *)

let sample_manifest ?(work_units = 12345) () =
  Obs.Ledger.make ~tool:"satpg" ~command:"atpg" ~circuit:"dk16.ji.sd"
    ~circuit_hash:"28aa055c2c44e829" ~config_fp:"ff99b63c788b4c2e"
    ~engine:"hitec" ~jobs:2 ~budget:"0.05" ~work_units
    ~metrics:(J.Obj [ ("counters", J.Obj [ ("x", J.Int 1) ]) ])
    ~spans:[ ("atpg.fault", 44, 9000); ("atpg.random_phase", 1, 345) ]
    ~event_lines:[ {|{"ev":"fault"}|}; {|{"ev":"fault_sim"}|} ]
    ()

let test_ledger_roundtrip () =
  let m = sample_manifest () in
  (* content-addressed: an identical run reproduces identical bytes *)
  Alcotest.(check string)
    "byte-identical re-make"
    (Obs.Ledger.to_string m)
    (Obs.Ledger.to_string (sample_manifest ()));
  (* any measured difference changes the id *)
  Alcotest.(check bool)
    "different run, different id" false
    (String.equal (Obs.Ledger.id m)
       (Obs.Ledger.id (sample_manifest ~work_units:12346 ())));
  match Obs.Ledger.of_json (J.parse (J.to_string (Obs.Ledger.to_json m))) with
  | Some m' ->
    Alcotest.(check string)
      "round-trip preserves the encoding"
      (Obs.Ledger.to_string m) (Obs.Ledger.to_string m');
    Alcotest.(check int)
      "round-trip preserves totals" (Obs.Ledger.work_units m)
      (Obs.Ledger.work_units m')
  | None -> Alcotest.fail "manifest does not decode"

let test_ledger_rejects_corruption () =
  let m = sample_manifest () in
  let decode j = Obs.Ledger.of_json j in
  (* a tampered body no longer matches the stored id *)
  let tampered =
    match Obs.Ledger.to_json m with
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | "work_units", J.Int _ -> ("work_units", J.Int 1)
             | f -> f)
           fields)
    | _ -> Alcotest.fail "manifest is not an object"
  in
  Alcotest.(check bool) "tampered body rejected" true (decode tampered = None);
  Alcotest.(check bool)
    "garbage rejected" true
    (decode (J.Obj [ ("satpg_manifest", J.Int 1) ]) = None);
  Alcotest.(check bool)
    "wrong version rejected" true
    (decode
       (match Obs.Ledger.to_json m with
        | J.Obj fields ->
          J.Obj
            (List.map
               (function
                 | "satpg_manifest", _ -> ("satpg_manifest", J.Int 999)
                 | f -> f)
               fields)
        | _ -> J.Null)
    = None)

let test_ledger_digest () =
  (* line boundaries must not alias *)
  Alcotest.(check bool)
    "concatenation cannot alias" false
    (String.equal
       (Obs.Ledger.digest_lines [ "ab"; "c" ])
       (Obs.Ledger.digest_lines [ "a"; "bc" ]));
  Alcotest.(check string)
    "digest of lines = digest of file content"
    (Obs.Ledger.digest_string "x\ny\n")
    (Obs.Ledger.digest_lines [ "x"; "y" ])

(* --- folded-stack export ------------------------------------------------------ *)

let chrome ph name ts =
  J.Obj [ ("ph", J.String ph); ("name", J.String name); ("ts", J.Int ts) ]

let test_fold_self_times () =
  (* a[0,50] contains b[10,30]: a's self time excludes b's 20 units *)
  let folded =
    Obs.Fold.of_events
      [
        chrome "B" "a" 0;
        chrome "B" "b" 10;
        chrome "E" "b" 30;
        chrome "i" "mark" 35;
        chrome "E" "a" 50;
        chrome "E" "unbalanced" 60;
      ]
  in
  Alcotest.(check (list (pair string int)))
    "self times with instants/unbalanced ignored"
    [ ("a", 30); ("a;b", 20) ]
    folded;
  Alcotest.(check (list string))
    "folded lines" [ "a 30"; "a;b 20" ]
    (Obs.Fold.to_lines folded)

let test_fold_recursion () =
  (* recursive spans accumulate per distinct stack path *)
  let folded =
    Obs.Fold.of_events
      [
        chrome "B" "f" 0;
        chrome "B" "f" 5;
        chrome "E" "f" 15;
        chrome "E" "f" 30;
        chrome "B" "f" 40;
        chrome "E" "f" 45;
      ]
  in
  Alcotest.(check (list (pair string int)))
    "recursion and repetition fold together"
    [ ("f", 25); ("f;f", 10) ]
    folded;
  (* weights sum to the root spans' total duration *)
  Alcotest.(check int)
    "self times sum to total" 35
    (List.fold_left (fun a (_, s) -> a + s) 0 folded)

(* --- atomic file IO ----------------------------------------------------------- *)

let test_fileio_atomic () =
  let dir = Filename.temp_file "satpg_obs" "" in
  Sys.remove dir;
  let file = Filename.concat (Filename.concat dir "sub") "out.txt" in
  Obs.Fileio.write_string_atomic file "first\n";
  Alcotest.(check bool) "creates parent dirs" true (Sys.file_exists file);
  Obs.Fileio.write_string_atomic file "second\n";
  let read f = In_channel.with_open_bin f In_channel.input_all in
  Alcotest.(check string) "overwrite replaces content" "second\n" (read file);
  (* a writer that raises must leave the target untouched and no temp *)
  (try
     Obs.Fileio.write_atomic file (fun oc ->
         output_string oc "torn";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "failed write leaves old content" "second\n"
    (read file);
  Alcotest.(check (list string))
    "no temp files left" [ "out.txt" ]
    (Array.to_list (Sys.readdir (Filename.dirname file)));
  Obs.Fileio.append_line file "third";
  Alcotest.(check string) "append appends" "second\nthird\n" (read file)

(* --- spans and events under capture scopes ------------------------------------ *)

(* Trace spans inside a capture scope are suppressed (parallel work
   disappears from the trace rather than corrupting it) but must still
   balance; event records captured in scopes and applied in submission
   order must land in the sink in exactly that order. *)
let test_capture_span_balance_and_ordering () =
  with_sinks @@ fun tsink esink ->
  Obs.Events.emit [ ("seq", J.Int 0) ];
  let before = Obs.Trace.num_events tsink in
  let (), d1 =
    Obs.Capture.scope (fun () ->
        Obs.Trace.span "captured.outer" (fun () ->
            Obs.Trace.span "captured.inner" (fun () -> ());
            (* nested scope: inner delta folds into the outer capture *)
            let (), inner = Obs.Capture.scope (fun () ->
                Obs.Events.emit [ ("seq", J.Int 2) ])
            in
            Obs.Commit.apply inner);
        Obs.Events.emit [ ("seq", J.Int 1) ])
  in
  let (), d2 =
    Obs.Capture.scope (fun () -> Obs.Events.emit [ ("seq", J.Int 3) ])
  in
  Alcotest.(check int)
    "captured spans are suppressed" before
    (Obs.Trace.num_events tsink);
  Alcotest.(check int) "spans balance under capture" 0 (Obs.Trace.depth tsink);
  (* apply in submission order; note seq 2 committed before seq 1 inside
     the first scope, so emission order within the scope is 2, 1 *)
  Obs.Commit.apply d1;
  Obs.Commit.apply d2;
  let seqs =
    List.map
      (fun r ->
        match Option.bind (J.member "seq" r) J.to_int_opt with
        | Some i -> i
        | None -> Alcotest.fail "record lacks seq")
      (Obs.Events.records esink)
  in
  Alcotest.(check (list int)) "deltas apply in order" [ 0; 2; 1; 3 ] seqs

(* 1-vs-N folded-stack bit-identity: the trace (and therefore its folded
   export) must not depend on the configured domain count. *)
let test_folded_export_job_invariant () =
  let p = Lazy.force dk16_pair in
  let folded jobs =
    let saved = Exec.Pool.jobs () in
    Exec.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Exec.Pool.set_jobs saved)
      (fun () ->
        with_sinks @@ fun tsink _ ->
        ignore
          (Atpg.Run.generate ~config:small_config p.Core.Flow.original
            : Atpg.Types.result);
        Alcotest.(check int) "trace balanced" 0 (Obs.Trace.depth tsink);
        String.concat "\n"
          (Obs.Fold.to_lines (Obs.Fold.of_chrome (Obs.Trace.to_chrome tsink))))
  in
  Alcotest.(check string) "folded export identical at 1 vs 4 jobs" (folded 1)
    (folded 4)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest (test_json_float_property ());
    Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite;
    Alcotest.test_case "metrics registry" `Quick test_registry;
    Alcotest.test_case "prometheus buckets match observations" `Quick
      test_prom_buckets;
    Alcotest.test_case "span nesting and balance" `Quick test_span_balance;
    Alcotest.test_case "chrome trace round-trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "events rebuild stats (hitec)" `Quick
      test_events_invariant_run;
    Alcotest.test_case "events rebuild stats (attest)" `Quick
      test_events_invariant_attest;
    Alcotest.test_case "table-2 ratio from JSONL alone" `Quick
      test_table2_ratio_from_events;
    Alcotest.test_case "tracing on/off is bit-identical" `Quick
      test_instrumentation_is_inert;
    Alcotest.test_case "ledger round-trip and byte identity" `Quick
      test_ledger_roundtrip;
    Alcotest.test_case "ledger rejects corruption" `Quick
      test_ledger_rejects_corruption;
    Alcotest.test_case "ledger line digest" `Quick test_ledger_digest;
    Alcotest.test_case "folded-stack self times" `Quick test_fold_self_times;
    Alcotest.test_case "folded-stack recursion" `Quick test_fold_recursion;
    Alcotest.test_case "atomic file IO" `Quick test_fileio_atomic;
    Alcotest.test_case "capture span balance and apply order" `Quick
      test_capture_span_balance_and_ordering;
    Alcotest.test_case "folded export 1-vs-N bit-identical" `Quick
      test_folded_export_job_invariant;
  ]
