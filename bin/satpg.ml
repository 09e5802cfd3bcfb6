(* satpg — command-line front end for the sequential-ATPG complexity study.

   Subcommands:
     synth       synthesize a benchmark FSM and print circuit statistics
     retime      retime a synthesized circuit and compare the pair
     atpg        run one of the three ATPG engines on a circuit
     classify    static untestability prover: per-pair summaries and the
                 Theorem-1 invariance check (--check)
     profile     instrumented engine run on a pair + hot-spot tables
     lint        static analysis: FSM + netlist rules, testability metrics
     analyze     structural attributes + density of encoding
     reach       reachable-state analysis: explicit BFS, symbolic (BDD)
                 fixpoint, or a cross-check of the two
     kiss        dump a benchmark FSM in KISS2 format
     cache       persistent result store: stats / clear / verify
     tables      regenerate the paper's tables (1-8) and Figure 3
     diff        compare two instrumented runs (manifests, event streams,
                 bench files, traces) or walk a bench history

   Expensive results (ATPG runs, reachability, structural analysis) are
   memoized by content — circuit structural hash + configuration
   fingerprint — and persisted across runs when SATPG_STORE=dir is set.

   Observability (off by default, zero overhead when off):
     --trace FILE    Chrome trace-event JSON (Perfetto / chrome://tracing)
     --metrics FILE  JSON snapshot of the global metrics registry
     --events FILE   per-fault JSONL event records
     --manifest FILE content-addressed provenance manifest of the run
*)

open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logging =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* --- observability plumbing ------------------------------------------------- *)

let obs_args =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Write a Chrome trace-event JSON file of the run; load it in \
                Perfetto (ui.perfetto.dev) or chrome://tracing.  Timestamps \
                are deterministic work units; wall-clock microseconds ride \
                along as a per-event argument.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:
               "Write a JSON snapshot of the metrics registry (counters, \
                gauges, histograms) at exit.")
  in
  let events =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE"
             ~doc:
               "Write per-fault JSONL event records (one JSON object per \
                line): outcome, work, backtracks, decisions, frames, \
                drop credit.")
  in
  let manifest =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"FILE"
             ~doc:
               "Write the run's provenance manifest: circuit structural \
                hash, configuration fingerprint, job count, budget, work \
                units, metrics snapshot, span totals and a digest of the \
                event stream.  Content-addressed and free of wall-clock \
                data: the same run reproduces the same bytes.  Feed two of \
                them to $(b,satpg diff).  Implies instrumentation.")
  in
  Term.(const (fun t m e mf -> (t, m, e, mf))
        $ trace $ metrics $ events $ manifest)

(* The sinks of the run in flight, for [finish_manifest]; satpg runs one
   command per process, so module-level slots (not domain-local) are
   right — subagent domains never call [with_obs]. *)
let current_tsink : Obs.Trace.sink option ref = ref None
let current_esink : Obs.Events.sink option ref = ref None
let manifest_slot : Obs.Ledger.t option ref = ref None

let budget_string () = Option.value ~default:"" (Sys.getenv_opt "SATPG_BUDGET")

(* [Exec.Pool.jobs] validates SATPG_JOBS and raises on garbage; commands
   that take -J validate it up front, but manifests are also built on
   commands that never read the pool — degrade, don't crash. *)
let safe_jobs () =
  match Exec.Pool.jobs () with
  | n -> n
  | exception Invalid_argument _ -> 1

(* Snapshot the live sinks into a manifest and persist it (slot for the
   pending [--manifest] write, store under its own id when SATPG_STORE is
   set).  Commands call this *before* printing [--json] payloads so the
   manifest id can ride along as provenance; [with_obs] falls back to a
   data-less manifest for commands that never call it. *)
let finish_manifest ~command ?circuit ?circuit_hash ?config_fp ?engine
    ?(work_units = 0) () =
  let spans =
    match !current_tsink with
    | Some s -> Obs.Trace.durations s
    | None -> []
  in
  let event_lines =
    match !current_esink with
    | Some s -> Obs.Events.to_lines s
    | None -> []
  in
  let m =
    Obs.Ledger.make ~tool:"satpg" ~command ?circuit ?circuit_hash ?config_fp
      ?engine ~jobs:(safe_jobs ()) ~budget:(budget_string ()) ~work_units
      ~metrics:(Obs.Metrics.snapshot ()) ~spans ~event_lines ()
  in
  manifest_slot := Some m;
  Store.Disk.save_manifest
    ~name:(String.concat " " ("satpg" :: command :: Option.to_list circuit))
    m;
  m

(* Install sinks for the given artifact files (or unconditionally with
   [force], as `satpg profile` does), run [f], then write the files.  With
   all flags absent and no force, nothing is installed and the run is
   bit-identical to an uninstrumented one.  [--manifest] implies both
   sinks: a manifest must carry span totals and the event-stream digest. *)
let with_obs ?(force = false) ~command (trace, metrics, events, manifest) f =
  let tsink =
    if force || trace <> None || manifest <> None then
      Some (Obs.Trace.create ~wallclock:Unix.gettimeofday ())
    else None
  in
  let esink =
    if force || events <> None || manifest <> None then
      Some (Obs.Events.create ())
    else None
  in
  (match tsink with Some s -> Obs.Trace.install s | None -> ());
  (match esink with Some s -> Obs.Events.install s | None -> ());
  current_tsink := tsink;
  current_esink := esink;
  manifest_slot := None;
  Fun.protect
    ~finally:(fun () ->
      (* the manifest snapshots the sinks, so write it before tearing
         them down; commands that already called [finish_manifest] pin
         richer provenance (circuit hash, config fingerprint, totals) *)
      (match manifest with
       | Some file ->
         let m =
           match !manifest_slot with
           | Some m -> m
           | None -> finish_manifest ~command ()
         in
         Obs.Ledger.write m file
       | None -> ());
      Obs.Trace.uninstall ();
      Obs.Events.uninstall ();
      current_tsink := None;
      current_esink := None;
      manifest_slot := None;
      (match trace, tsink with
       | Some file, Some s -> Obs.Trace.write s file
       | _ -> ());
      (match events, esink with
       | Some file, Some s -> Obs.Events.write s file
       | _ -> ());
      match metrics with Some file -> Obs.Metrics.write file | None -> ())
    f

(* --- parallelism ------------------------------------------------------------ *)

(* -j is the jedi state-assignment flag on the synthesis-facing commands,
   so the job count is -J/--jobs everywhere. *)
let jobs_arg =
  let doc =
    "Number of domains for parallel fault simulation, ATPG and table \
     cells (default: $(b,SATPG_JOBS) if set, else the machine's core \
     count).  Results are bit-identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "J"; "jobs" ] ~docv:"N" ~doc)

(* Applies --jobs and validates SATPG_JOBS up front, so a bad value is a
   one-line usage error instead of a mid-run exception. *)
let setup_jobs jobs =
  (match jobs with
   | None -> ()
   | Some n when n >= 1 -> Exec.Pool.set_jobs n
   | Some n ->
     Fmt.epr "satpg: --jobs must be a positive domain count, got %d@." n;
     exit 124);
  match Exec.Pool.jobs () with
  | (_ : int) -> ()
  | exception Invalid_argument msg ->
    Fmt.epr "satpg: %s@." msg;
    exit 124

let fsm_arg =
  let doc = "Benchmark FSM name (dk16, pma, s510, s820, s832, scf)." in
  Arg.(value & pos 0 string "dk16" & info [] ~docv:"FSM" ~doc)

let algorithm_arg =
  let doc = "jedi state-assignment algorithm: ji, jo or jc." in
  Arg.(value
       & opt (enum Synth.Assign.algorithms) Synth.Assign.Input_dominant
       & info [ "j"; "jedi" ] ~doc)

let script_arg =
  let doc = "SIS-style synthesis script: sr (rugged/area) or sd (delay)." in
  Arg.(value
       & opt (enum Synth.Flow.scripts) Synth.Flow.Rugged
       & info [ "s"; "script" ] ~doc)

let engine_arg =
  let doc = "ATPG engine: hitec, attest or sest." in
  Arg.(value
       & opt (enum Core.Cache.atpg_kinds) Core.Cache.Hitec
       & info [ "e"; "engine" ] ~doc)

let retimed_flag =
  let doc = "Operate on the retimed version of the circuit." in
  Arg.(value & flag & info [ "r"; "retimed" ] ~doc)

(* --- synth ----------------------------------------------------------------- *)

let synth_cmd =
  let run () obs fsm alg script =
    with_obs ~command:"synth" obs @@ fun () ->
    let r = Core.Flow.synthesize fsm alg script in
    let c = r.Synth.Flow.circuit in
    Fmt.pr "%s: %a@." r.Synth.Flow.name Netlist.Node.pp_summary c;
    Fmt.pr "  %a@." Netlist.Stats.pp (Netlist.Stats.of_circuit c);
    Fmt.pr "  state bits: %d, machine states: %d@." r.Synth.Flow.bits
      (Fsm.Machine.num_states r.Synth.Flow.machine)
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize a benchmark FSM")
    Term.(const run $ logging $ obs_args $ fsm_arg $ algorithm_arg $ script_arg)

(* --- retime ---------------------------------------------------------------- *)

let retime_cmd =
  let run () obs fsm alg script =
    with_obs ~command:"retime" obs @@ fun () ->
    let p = Core.Flow.pair fsm alg script in
    Fmt.pr "original: %a@." Netlist.Node.pp_summary p.Core.Flow.original;
    Fmt.pr "retimed : %a@." Netlist.Node.pp_summary p.Core.Flow.retimed;
    Fmt.pr "periods : %.2f -> %.2f ; equivalence prefix %d cycles@."
      p.Core.Flow.original_period p.Core.Flow.retimed_period
      p.Core.Flow.prefix_length
  in
  Cmd.v (Cmd.info "retime" ~doc:"Retime a synthesized circuit")
    Term.(const run $ logging $ obs_args $ fsm_arg $ algorithm_arg $ script_arg)

(* --- atpg ------------------------------------------------------------------ *)

let atpg_cmd =
  let scoap_flag =
    Arg.(value & flag
         & info [ "scoap" ]
             ~doc:
               "Steer PODEM's backtrace by SCOAP controllability costs \
                (hitec/sest only; bypasses the result cache).")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Print the result summary as one JSON object (coverage, work \
                accounting, per-status fault counts) instead of text.")
  in
  let learn_flag =
    Arg.(value & flag
         & info [ "learn" ]
             ~doc:
               "Enable conflict-driven structural learning (hitec/sest \
                only): blocking clauses derived from propagation conflicts \
                and generalized failed justification cubes prune the search \
                across faults and time frames.  Equivalent to \
                $(b,SATPG_LEARN=1); off, the engines are bit-identical to \
                the unlearned seed.")
  in
  let prove_flag =
    Arg.(value & flag
         & info [ "prove-untestable" ]
             ~doc:
               "Classify faults with the static untestability prover first \
                (see $(b,satpg classify)) and prune proved-untestable faults \
                from the engine's list; they count toward fault efficiency \
                as $(b,proved_untestable).")
  in
  let run () obs jobs fsm alg script engine retimed scoap learn prove json =
    setup_jobs jobs;
    with_obs ~command:"atpg" obs @@ fun () ->
    let name, circuit =
      Core.Flow.circuit (Core.Flow.pair fsm alg script) ~retimed
    in
    let config =
      Core.Cache.atpg_config engine ~budget:None
        ~learn:(if learn then Some true else None)
    in
    let r =
      if scoap then begin
        if prove then
          Fmt.epr "note: --scoap bypasses the cache; --prove-untestable has \
                   no effect@.";
        Core.Cache.note_bypass ();
        let guide = Lint.Scoap.controllability (Lint.Scoap.compute circuit) in
        match engine with
        | Core.Cache.Hitec | Core.Cache.Sest ->
          Atpg.Run.generate ~config
            ~engine:(Core.Cache.atpg_kind_name engine)
            ~guide circuit
        | Core.Cache.Attest ->
          Fmt.epr "note: attest is simulation-based; --scoap has no effect@.";
          Atpg.Attest.generate ~config circuit
      end
      else Core.Cache.atpg ~prove_untestable:prove ~config engine ~name circuit
    in
    let cache = Core.Cache.outcome_string (Core.Cache.last_outcome ()) in
    let m =
      finish_manifest ~command:"atpg" ~circuit:name
        ~circuit_hash:(Netlist.Structhash.circuit circuit)
        ~config_fp:(Store.Key.config_fingerprint config)
        ~engine:(Core.Cache.atpg_kind_name engine)
        ~work_units:(Atpg.Types.work_units r.Atpg.Types.stats) ()
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Atpg.Types.result_to_json
              ~extra:
                [
                  ("circuit", Obs.Json.String name);
                  ( "engine",
                    Obs.Json.String (Core.Cache.atpg_kind_name engine) );
                  ("cache", Obs.Json.String cache);
                  ("manifest", Obs.Json.String (Obs.Ledger.id m));
                  ("config_fp", Obs.Json.String (Obs.Ledger.config_fp m));
                ]
              r))
    else begin
      Fmt.pr "%s on %s:@." (Core.Cache.atpg_kind_name engine) name;
      Fmt.pr "  cache         %s@." cache;
      Fmt.pr "  faults        %d@." (Array.length r.Atpg.Types.faults);
      Fmt.pr "  coverage      %.1f%%@." r.Atpg.Types.fault_coverage;
      Fmt.pr "  efficiency    %.1f%%@." r.Atpg.Types.fault_efficiency;
      if prove then
        Fmt.pr "  proved untestable %d@."
          (Array.fold_left
             (fun a s ->
               if s = Fsim.Fault.Proved_untestable then a + 1 else a)
             0 r.Atpg.Types.status);
      Fmt.pr "  work units    %d@." (Atpg.Types.work_units r.Atpg.Types.stats);
      Fmt.pr "  states seen   %d@."
        (Hashtbl.length r.Atpg.Types.stats.Atpg.Types.states);
      Fmt.pr "  test sequences %d (total %d vectors)@."
        (List.length r.Atpg.Types.test_sets)
        (List.fold_left (fun a s -> a + List.length s) 0 r.Atpg.Types.test_sets)
    end;
    Fmt.epr "%a@." Core.Cache.pp_summary ()
  in
  Cmd.v (Cmd.info "atpg" ~doc:"Run an ATPG engine on a circuit")
    Term.(const run $ logging $ obs_args $ jobs_arg $ fsm_arg $ algorithm_arg
          $ script_arg $ engine_arg $ retimed_flag $ scoap_flag $ learn_flag
          $ prove_flag $ json_flag)

(* --- classify --------------------------------------------------------------- *)

let classify_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the classification summaries as one JSON object.")
  in
  let check_flag =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Theorem-1 gate: classify the retiming-invariant fault \
                universe (every gate/PI stem and gate input pin — sites \
                that survive retiming verbatim) on both circuits of the \
                pair and fail (exit 1) unless the proved-untestable sets \
                are identical.")
  in
  let no_symbolic_flag =
    Arg.(value & flag
         & info [ "no-symbolic" ]
             ~doc:"Skip the BDD reachable-set stages of the cascade.")
  in
  let product_flag =
    Arg.(value & flag
         & info [ "product" ]
             ~doc:
               "Also run the exact product-machine stage (complete for \
                sequential redundancy, most expensive; implies the \
                symbolic stage).")
  in
  let run () obs fsm alg script json check no_symbolic product =
    with_obs ~command:"classify" obs @@ fun () ->
    let p = Core.Flow.pair fsm alg script in
    let symbolic = not no_symbolic in
    let circuits =
      [ Core.Flow.circuit p ~retimed:false; Core.Flow.circuit p ~retimed:true ]
    in
    let classified =
      List.map
        (fun (name, c) ->
          (name, c, Core.Cache.classify ~symbolic ~product ~name c))
        circuits
    in
    let check_result =
      if not check then None
      else begin
        let proved (name, c) =
          let t =
            Core.Cache.classify ~symbolic ~product
              ~universe:Core.Cache.Invariant ~name c
          in
          Analysis.Untest.proved_names c t
        in
        match circuits with
        | [ o; r ] -> Some (proved o, proved r)
        | _ -> assert false
      end
    in
    let m =
      finish_manifest ~command:"classify" ~circuit:p.Core.Flow.name
        ~circuit_hash:
          (Netlist.Structhash.circuit p.Core.Flow.original
          ^ "+"
          ^ Netlist.Structhash.circuit p.Core.Flow.retimed)
        ~config_fp:
          (Core.Cache.classify_fingerprint ~symbolic ~product
             Core.Cache.Collapsed)
        ~work_units:
          (List.fold_left
             (fun a (_, _, t) ->
               a + t.Analysis.Untest.summary.Analysis.Untest.work)
             0 classified)
        ()
    in
    if json then begin
      let fields =
        [ ("benchmark", Obs.Json.String p.Core.Flow.name);
          ("symbolic", Obs.Json.Bool symbolic);
          ("product", Obs.Json.Bool product);
          ("manifest", Obs.Json.String (Obs.Ledger.id m));
          ("config_fp", Obs.Json.String (Obs.Ledger.config_fp m));
          ( "circuits",
            Obs.Json.List
              (List.map
                 (fun (name, _, t) ->
                   Obs.Json.Obj
                     (("circuit", Obs.Json.String name)
                      :: Analysis.Untest.summary_fields
                           t.Analysis.Untest.summary))
                 classified) ) ]
        @
        match check_result with
        | None -> []
        | Some (po, pr) ->
          [ ( "check",
              Obs.Json.Obj
                [ ("universe", Obs.Json.String "invariant");
                  ("proved_original", Obs.Json.Int (List.length po));
                  ("proved_retimed", Obs.Json.Int (List.length pr));
                  ("identical", Obs.Json.Bool (po = pr)) ] ) ]
      in
      print_endline (Obs.Json.to_string (Obs.Json.Obj fields))
    end
    else begin
      List.iter
        (fun (name, _, t) ->
          let s = t.Analysis.Untest.summary in
          Fmt.pr "%s:@." name;
          Fmt.pr "  faults            %d collapsed@." s.Analysis.Untest.total;
          Fmt.pr "  proved untestable %d (structural %d, ternary %d, \
                  symbolic %d)@."
            s.Analysis.Untest.proved s.Analysis.Untest.structural
            s.Analysis.Untest.ternary s.Analysis.Untest.symbolic;
          (if s.Analysis.Untest.symbolic_ran then
             Fmt.pr "  symbolic stage    ran (%d BDD nodes)@."
               s.Analysis.Untest.bdd_nodes
           else Fmt.pr "  symbolic stage    skipped@.");
          Fmt.pr "  work units        %d@." s.Analysis.Untest.work)
        classified;
      match check_result with
      | None -> ()
      | Some (po, pr) ->
        Fmt.pr "theorem-1 check (invariant universe): original %d proved, \
                retimed %d proved — %s@."
          (List.length po) (List.length pr)
          (if po = pr then "identical" else "MISMATCH")
    end;
    Fmt.epr "%a@." Core.Cache.pp_summary ();
    match check_result with
    | Some (po, pr) when po <> pr ->
      let module S = Set.Make (String) in
      let so = S.of_list po and sr = S.of_list pr in
      S.iter (fun f -> Fmt.epr "  only original: %s@." f) (S.diff so sr);
      S.iter (fun f -> Fmt.epr "  only retimed : %s@." f) (S.diff sr so);
      exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Statically classify faults as proved-untestable / unknown")
    Term.(const run $ logging $ obs_args $ fsm_arg $ algorithm_arg
          $ script_arg $ json_flag $ check_flag $ no_symbolic_flag
          $ product_flag)

(* --- profile --------------------------------------------------------------- *)

let profile_cmd =
  let topk_arg =
    Arg.(value & opt int 10
         & info [ "k"; "top" ] ~docv:"K"
             ~doc:"Number of rows in each hot-spot table.")
  in
  let run () jobs fsm alg script engine k =
    setup_jobs jobs;
    let p = Core.Flow.pair fsm alg script in
    let generate circuit =
      match engine with
      | Core.Cache.Hitec -> Atpg.Hitec.generate circuit
      | Core.Cache.Sest -> Atpg.Sest.generate circuit
      | Core.Cache.Attest -> Atpg.Attest.generate circuit
    in
    let profile_one tag circuit =
      (* fresh sinks per run: the work-unit clock restarts with each engine's
         stats, so sharing one sink would flatten the second run's spans *)
      let tsink = Obs.Trace.create () in
      let esink = Obs.Events.create () in
      Obs.Trace.install tsink;
      Obs.Events.install esink;
      let r =
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.uninstall ();
            Obs.Events.uninstall ())
          (fun () -> generate circuit)
      in
      let name = p.Core.Flow.name ^ tag in
      Fmt.pr "%s on %s: coverage %.1f%%, %d work units@."
        (Core.Cache.atpg_kind_name engine) name r.Atpg.Types.fault_coverage
        (Atpg.Types.work_units r.Atpg.Types.stats);
      Fmt.pr "  work by span:@.";
      Fmt.pr "    %-32s %8s %12s@." "span" "count" "work-units";
      List.iteri
        (fun i (nm, count, total) ->
          if i < k then Fmt.pr "    %-32s %8d %12d@." nm count total)
        (Obs.Trace.durations tsink);
      let field_int f rec_ =
        Option.value ~default:0
          (Option.bind (Obs.Json.member f rec_) Obs.Json.to_int_opt)
      in
      let field_str f rec_ =
        Option.value ~default:"?"
          (Option.bind (Obs.Json.member f rec_) Obs.Json.to_string_opt)
      in
      let faults =
        List.filter_map
          (fun rec_ ->
            match Obs.Json.member "ev" rec_ with
            | Some (Obs.Json.String "fault") ->
              let w = field_int "work" rec_ in
              let b = field_int "backtracks" rec_ in
              Some
                ( field_str "fault" rec_, field_str "outcome" rec_,
                  w, b, w + (50 * b) )
            | _ -> None)
          (Obs.Events.records esink)
      in
      let faults =
        List.sort (fun (_, _, _, _, a) (_, _, _, _, b) -> compare b a) faults
      in
      Fmt.pr "  worst faults:@.";
      Fmt.pr "    %-24s %-10s %10s %10s %12s@." "fault" "outcome" "work"
        "backtracks" "work-units";
      List.iteri
        (fun i (f, o, w, b, wu) ->
          if i < k then Fmt.pr "    %-24s %-10s %10d %10d %12d@." f o w b wu)
        faults
    in
    profile_one "" p.Core.Flow.original;
    profile_one ".re" p.Core.Flow.retimed
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run an ATPG engine on the original/retimed pair with \
          instrumentation forced on and print top-K hot-spot tables: work \
          by span, plus the per-fault worst offenders")
    Term.(const run $ logging $ jobs_arg $ fsm_arg $ algorithm_arg $ script_arg
          $ engine_arg $ topk_arg)

(* --- lint ------------------------------------------------------------------ *)

let lint_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit one JSON document instead of text.")
  in
  let fail_flag =
    Arg.(value & flag
         & info [ "fail-on-error" ]
             ~doc:
               "Exit with status 1 when any Error-level diagnostic fires or \
                the original/retimed invariant untestable counts differ.")
  in
  let scoap_flag =
    Arg.(value & flag
         & info [ "scoap" ]
             ~doc:"Include per-node SCOAP scores in the JSON output.")
  in
  let no_symbolic_flag =
    Arg.(value & flag
         & info [ "no-symbolic" ]
             ~doc:
               "Classify untestable faults without the BDD stages: no \
                symbolic reachability runs, so NET008 is skipped.")
  in
  let run () fsm alg script json fail_on_error scoap no_symbolic =
    let p = Core.Flow.pair fsm alg script in
    let machine = Fsm.Benchmarks.machine p.Core.Flow.fsm in
    let fsm_diags = Lint.Report.lint_fsm machine in
    let lint = Lint.Report.lint_netlist ~symbolic:(not no_symbolic) in
    let so = lint p.Core.Flow.original in
    let sr = lint p.Core.Flow.retimed in
    let invariant_match =
      so.Lint.Report.invariant_untestable = sr.Lint.Report.invariant_untestable
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("fsm", Lint.Report.fsm_to_json ~name:fsm fsm_diags);
                ( "original",
                  Lint.Report.netlist_to_json ~include_scoap:scoap
                    ~name:p.Core.Flow.name p.Core.Flow.original so );
                ( "retimed",
                  Lint.Report.netlist_to_json ~include_scoap:scoap
                    ~name:(p.Core.Flow.name ^ ".re")
                    p.Core.Flow.retimed sr );
                ("invariant_match", Obs.Json.Bool invariant_match);
              ]))
    else begin
      Fmt.pr "%a" Lint.Report.pp_fsm (fsm, fsm_diags);
      Fmt.pr "%a" Lint.Report.pp_netlist (p.Core.Flow.name, so);
      Fmt.pr "%a" Lint.Report.pp_netlist (p.Core.Flow.name ^ ".re", sr);
      Fmt.pr "Theorem-1 invariant untestable counts: %d vs %d (%s)@."
        so.Lint.Report.invariant_untestable sr.Lint.Report.invariant_untestable
        (if invariant_match then "match" else "MISMATCH")
    end;
    let any_error =
      Lint.Diag.has_errors fsm_diags
      || Lint.Diag.has_errors so.Lint.Report.diags
      || Lint.Diag.has_errors sr.Lint.Report.diags
    in
    if fail_on_error && (any_error || not invariant_match) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a benchmark: FSM rules plus netlist rules on \
          the original and retimed circuits")
    Term.(const run $ logging $ fsm_arg $ algorithm_arg $ script_arg
          $ json_flag $ fail_flag $ scoap_flag $ no_symbolic_flag)

(* --- analyze --------------------------------------------------------------- *)

let analyze_cmd =
  let run () fsm alg script retimed =
    let name, circuit =
      Core.Flow.circuit (Core.Flow.pair fsm alg script) ~retimed
    in
    let s = Core.Cache.structural ~name circuit in
    let d = Core.Cache.density ~name circuit in
    Fmt.pr "%s:@." name;
    Fmt.pr "  DFFs               %d@." (Netlist.Node.num_dffs circuit);
    Fmt.pr "  sequential depth   %d@." s.Analysis.Structural.seq_depth;
    Fmt.pr "  max cycle length   %d@." s.Analysis.Structural.max_cycle_length;
    Fmt.pr "  counted cycles     %d@." s.Analysis.Structural.num_cycles;
    Fmt.pr "  valid states       %.0f@." d.Core.Cache.valid;
    Fmt.pr "  total states       %.3g@." d.Core.Cache.total;
    Fmt.pr "  density of encoding %.3e@." d.Core.Cache.density;
    Fmt.pr "  density source     %s@."
      (Core.Cache.density_source_name d.Core.Cache.source)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Structural attributes and density")
    Term.(const run $ logging $ fsm_arg $ algorithm_arg $ script_arg
          $ retimed_flag)

(* --- reach ----------------------------------------------------------------- *)

let reach_cmd =
  let symbolic_flag =
    Arg.(value & flag
         & info [ "symbolic" ]
             ~doc:
               "Force the symbolic (BDD least-fixpoint) engine; works beyond \
                the explicit caps (>8 PIs, >60 DFFs).")
  in
  let explicit_flag =
    Arg.(value & flag
         & info [ "explicit" ]
             ~doc:
               "Force the explicit (bit-parallel BFS) engine; fails with an \
                actionable message beyond its caps.")
  in
  let check_flag =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Run both engines and cross-check: exit 1 unless the valid-\
                state counts and densities agree bit-for-bit.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit one JSON object instead of text.")
  in
  let explicit_fields (r : Analysis.Reach.result) cache =
    [
      ("mode", Obs.Json.String "explicit");
      ("dffs", Obs.Json.Int r.Analysis.Reach.total_bits);
      ("valid_states", Obs.Json.Float (float_of_int r.Analysis.Reach.valid_states));
      ("valid_states_int", Obs.Json.Int r.Analysis.Reach.valid_states);
      ("total_states", Obs.Json.Float (Analysis.Reach.total_states r));
      ("density", Obs.Json.Float (Analysis.Reach.density r));
      ("depth", Obs.Json.Null);
      ("bdd_nodes", Obs.Json.Null);
      ("cache", Obs.Json.String cache);
    ]
  in
  let symbolic_fields (s : Analysis.Symreach.summary) cache =
    [
      ("mode", Obs.Json.String "symbolic");
      ("dffs", Obs.Json.Int s.Analysis.Symreach.total_bits);
      ("valid_states", Obs.Json.Float s.Analysis.Symreach.valid_states);
      ( "valid_states_int",
        match s.Analysis.Symreach.valid_states_int with
        | Some i -> Obs.Json.Int i
        | None -> Obs.Json.Null );
      ("total_states", Obs.Json.Float (Analysis.Symreach.total_states s));
      ("density", Obs.Json.Float (Analysis.Symreach.density s));
      ("depth", Obs.Json.Int s.Analysis.Symreach.depth);
      ("bdd_nodes", Obs.Json.Int s.Analysis.Symreach.bdd_nodes);
      ("cache", Obs.Json.String cache);
    ]
  in
  let pp_fields name fields =
    Fmt.pr "%s:@." name;
    List.iter
      (fun (k, v) ->
        Fmt.pr "  %-18s %s@." k
          (match v with
          | Obs.Json.String s -> s
          | Obs.Json.Int i -> string_of_int i
          | Obs.Json.Float f -> Printf.sprintf "%.6g" f
          | Obs.Json.Null -> "-"
          | j -> Obs.Json.to_string j))
      fields
  in
  let run () obs fsm alg script retimed symbolic explicit check json =
    with_obs ~command:"reach" obs @@ fun () ->
    if symbolic && explicit then begin
      Fmt.epr "satpg reach: --symbolic and --explicit are exclusive \
               (use --check to run both)@.";
      exit 124
    end;
    let name, circuit =
      Core.Flow.circuit (Core.Flow.pair fsm alg script) ~retimed
    in
    let cache () = Core.Cache.outcome_string (Core.Cache.last_outcome ()) in
    let run_explicit () =
      match Core.Cache.reach ~name circuit with
      | r -> explicit_fields r (cache ())
      | exception Invalid_argument msg ->
        Fmt.epr "satpg reach: %s@." msg;
        exit 1
    in
    let run_symbolic () =
      match Core.Cache.symreach ~name circuit with
      | s -> symbolic_fields s (cache ())
      | exception Bdd.Node_limit ->
        Fmt.epr
          "satpg reach: %s: BDD node budget (%d) exhausted during symbolic \
           reachability@."
          name Analysis.Symreach.default_max_nodes;
        exit 1
    in
    if check then begin
      (* bit-identical or bust: the symbolic engine must reproduce the
         explicit count exactly wherever the explicit engine can run *)
      let r =
        match Core.Cache.reach ~name circuit with
        | r -> r
        | exception Invalid_argument msg ->
          Fmt.epr "satpg reach --check: %s@." msg;
          exit 1
      in
      let ec = cache () in
      let s = Core.Cache.symreach ~name circuit in
      let sc = cache () in
      let count_match =
        s.Analysis.Symreach.valid_states_int
        = Some r.Analysis.Reach.valid_states
        && s.Analysis.Symreach.valid_states
           = float_of_int r.Analysis.Reach.valid_states
      in
      let density_match =
        Analysis.Symreach.density s = Analysis.Reach.density r
      in
      let ok = count_match && density_match in
      let m =
        finish_manifest ~command:"reach" ~circuit:name
          ~circuit_hash:(Netlist.Structhash.circuit circuit)
          ~config_fp:
            (Core.Cache.reach_fingerprint ^ "+"
           ^ Core.Cache.symreach_fingerprint)
          ()
      in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ("circuit", Obs.Json.String name);
                  ("mode", Obs.Json.String "check");
                  ("explicit", Obs.Json.Obj (explicit_fields r ec));
                  ("symbolic", Obs.Json.Obj (symbolic_fields s sc));
                  ("match", Obs.Json.Bool ok);
                  ("manifest", Obs.Json.String (Obs.Ledger.id m));
                  ("config_fp", Obs.Json.String (Obs.Ledger.config_fp m));
                ]))
      else begin
        pp_fields (name ^ " (explicit)") (explicit_fields r ec);
        pp_fields (name ^ " (symbolic)") (symbolic_fields s sc);
        Fmt.pr "cross-check: %s@."
          (if ok then "match"
           else if count_match then "DENSITY MISMATCH"
           else "VALID-STATE COUNT MISMATCH")
      end;
      if not ok then exit 1
    end
    else begin
      let use_symbolic =
        if symbolic then true
        else if explicit then false
        else not (Analysis.Reach.feasible circuit)
      in
      let fields = if use_symbolic then run_symbolic () else run_explicit () in
      let m =
        finish_manifest ~command:"reach" ~circuit:name
          ~circuit_hash:(Netlist.Structhash.circuit circuit)
          ~config_fp:
            (if use_symbolic then Core.Cache.symreach_fingerprint
             else Core.Cache.reach_fingerprint)
          ()
      in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                (("circuit", Obs.Json.String name) :: fields
                @ [
                    ("manifest", Obs.Json.String (Obs.Ledger.id m));
                    ("config_fp", Obs.Json.String (Obs.Ledger.config_fp m));
                  ])))
      else pp_fields name fields
    end
  in
  Cmd.v
    (Cmd.info "reach"
       ~doc:
         "Reachable-state analysis and density of encoding: explicit BFS, \
          symbolic BDD fixpoint (works beyond the explicit caps), or a \
          bit-exact cross-check of the two")
    Term.(const run $ logging $ obs_args $ fsm_arg $ algorithm_arg
          $ script_arg $ retimed_flag $ symbolic_flag $ explicit_flag
          $ check_flag $ json_flag)

(* --- cache ----------------------------------------------------------------- *)

let cache_cmd =
  let action_arg =
    let of_tag =
      Arg.enum [ ("stats", `Stats); ("clear", `Clear); ("verify", `Verify) ]
    in
    let doc =
      "stats (record counts and sizes per kind), clear (delete every \
       record) or verify (deep-check that every record decodes)."
    in
    Arg.(value & pos 0 of_tag `Stats & info [] ~docv:"ACTION" ~doc)
  in
  let run () action =
    match Store.Disk.dir () with
    | None ->
      Fmt.epr "result store disabled; set %s=DIR to enable it@."
        Store.Disk.env_var;
      exit 1
    | Some d ->
      (match action with
       | `Stats ->
         Fmt.pr "store: %s@." d;
         List.iter
           (fun (kind, count, bytes) ->
             Fmt.pr "  %-11s %6d records %10d bytes@."
               (Store.Disk.kind_name kind) count bytes)
           (Store.Disk.stats ())
       | `Clear ->
         let n = Store.Disk.clear () in
         Fmt.pr "store: %s — removed %d records@." d n
       | `Verify ->
         let results = Store.Disk.verify () in
         let bad =
           List.filter
             (fun ((_ : Store.Disk.entry), r) -> Result.is_error r)
             results
         in
         List.iter
           (fun ((e : Store.Disk.entry), r) ->
             match r with
             | Ok () -> ()
             | Error why -> Fmt.pr "CORRUPT %s: %s@." e.Store.Disk.path why)
           results;
         Fmt.pr "store: %s — %d records, %d ok, %d corrupt@." d
           (List.length results)
           (List.length results - List.length bad)
           (List.length bad);
         if bad <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or maintain the persistent result store (SATPG_STORE); \
          records are content-addressed, so clearing is always safe")
    Term.(const run $ logging $ action_arg)

(* --- kiss ------------------------------------------------------------------ *)

let kiss_cmd =
  let run () fsm =
    print_string (Fsm.Kiss.to_string (Fsm.Benchmarks.machine_of_name fsm))
  in
  Cmd.v (Cmd.info "kiss" ~doc:"Dump a benchmark FSM in KISS2 format")
    Term.(const run $ logging $ fsm_arg)

(* --- export ---------------------------------------------------------------- *)

let export_cmd =
  let fmt_arg =
    let of_tag = Arg.enum [ ("blif", `Blif); ("verilog", `Verilog) ] in
    Arg.(value & opt of_tag `Blif & info [ "f"; "format" ]
           ~doc:"Output format: blif or verilog.")
  in
  let run () fsm alg script retimed fmt =
    let name, circuit =
      Core.Flow.circuit (Core.Flow.pair fsm alg script) ~retimed
    in
    match fmt with
    | `Blif -> print_string (Netlist.Blif.to_string ~model:name circuit)
    | `Verilog -> print_string (Netlist.Verilog.to_string ~module_name:name circuit)
  in
  Cmd.v (Cmd.info "export" ~doc:"Export a circuit as BLIF or structural Verilog")
    Term.(const run $ logging $ fsm_arg $ algorithm_arg $ script_arg
          $ retimed_flag $ fmt_arg)

(* --- scan ------------------------------------------------------------------ *)

let scan_cmd =
  let partial_flag =
    Arg.(value & flag
         & info [ "p"; "partial" ]
             ~doc:"Cycle-breaking partial scan instead of full scan.")
  in
  let run () obs jobs fsm alg script retimed partial =
    setup_jobs jobs;
    with_obs ~command:"scan" obs @@ fun () ->
    let name, circuit =
      Core.Flow.circuit (Core.Flow.pair fsm alg script) ~retimed
    in
    let chain =
      if partial then
        Dft.Scan.insert ~positions:(Dft.Scan.select_cycle_breaking circuit)
          circuit
      else Dft.Scan.insert circuit
    in
    Fmt.pr "%s: scanned %d of %d registers@." name chain.Dft.Scan.length
      (Netlist.Node.num_dffs circuit);
    let config =
      Core.Cache.atpg_config Core.Cache.Hitec ~budget:None ~learn:None
    in
    let seq = Core.Cache.atpg ~config Core.Cache.Hitec ~name circuit in
    let scan = Dft.Scan_atpg.generate chain in
    Fmt.pr "  sequential ATPG : FC %5.1f%%  work %d@."
      seq.Atpg.Types.fault_coverage
      (Atpg.Types.work_units seq.Atpg.Types.stats);
    Fmt.pr "  scan-mode ATPG  : FC %5.1f%%  work %d@."
      scan.Atpg.Types.fault_coverage
      (Atpg.Types.work_units scan.Atpg.Types.stats)
  in
  Cmd.v
    (Cmd.info "scan" ~doc:"Insert a scan chain and compare ATPG before/after")
    Term.(const run $ logging $ obs_args $ jobs_arg $ fsm_arg $ algorithm_arg
          $ script_arg $ retimed_flag $ partial_flag)

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let run () jobs =
    setup_jobs jobs;
    (* paper-vs-measured side-by-side for the headline table *)
    let rows = Core.Tables.T2.compute () in
    Fmt.pr "Table 2, paper vs measured (FCo/FCr = original/retimed coverage)@.";
    Fmt.pr "%-12s | %6s %6s %9s | %6s %6s %9s@." "circuit" "FCo" "FCr"
      "ratio" "FCo*" "FCr*" "ratio*";
    Fmt.pr "%-12s | %25s | %25s@." "" "paper" "measured";
    List.iter
      (fun (p : Core.Paper.hitec_row) ->
        match
          List.find_opt
            (fun (r : Core.Tables.Atpg_pair.row) ->
              String.equal r.Core.Tables.Atpg_pair.circuit p.Core.Paper.circuit)
            rows
        with
        | Some r ->
          Fmt.pr "%-12s | %6.1f %6.1f %9.1f | %6.1f %6.1f %9.1f@."
            p.Core.Paper.circuit p.Core.Paper.fc_orig p.Core.Paper.fc_re
            p.Core.Paper.cpu_ratio r.Core.Tables.Atpg_pair.fc_orig
            r.Core.Tables.Atpg_pair.fc_re r.Core.Tables.Atpg_pair.cpu_ratio
        | None -> ())
      Core.Paper.table2
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Print the paper's Table 2 next to the measured reproduction")
    Term.(const run $ logging $ jobs_arg)

(* --- tables ---------------------------------------------------------------- *)

let tables_cmd =
  let table_arg =
    let doc = "Which table to regenerate (1-8, fig3, shape, or all)." in
    let names = List.map (fun (n, _) -> (n, n)) Core.Report.tables in
    Arg.(value & pos 0 (enum names) "all" & info [] ~docv:"TABLE" ~doc)
  in
  let run () obs jobs which =
    setup_jobs jobs;
    with_obs ~command:"tables" obs @@ fun () ->
    List.assoc which Core.Report.tables Fmt.stdout;
    Fmt.flush Fmt.stdout ();
    (* counters to stderr so table output stays byte-identical across
       cold and warm (store-served) runs *)
    Fmt.epr "%a@." Core.Cache.pp_summary ()
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's tables (SATPG_BUDGET scales ATPG effort)")
    Term.(const run $ logging $ obs_args $ jobs_arg $ table_arg)

(* --- diff ------------------------------------------------------------------- *)

let diff_cmd =
  let pos_a =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"A"
             ~doc:
               "First run: a provenance manifest, an --events JSONL file, a \
                bench JSON file, or a --trace Chrome trace (classified by \
                content).  With $(b,--history), the history file instead \
                (default results/BENCH_history.jsonl).")
  in
  let pos_b =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"B" ~doc:"Second run, compared against the first.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let top_arg =
    Arg.(value & opt int 20
         & info [ "k"; "top" ] ~docv:"K"
             ~doc:"Rows in the span and attribution tables (text report).")
  in
  let max_regress_arg =
    Arg.(value & opt (some float) None
         & info [ "max-regress" ] ~docv:"PCT"
             ~doc:
               "Exit 1 when B's total work units exceed A's by strictly \
                more than $(docv) percent (0 fails on any regression; \
                improvements always pass).")
  in
  let folded_arg =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"PREFIX"
             ~doc:
               "For each input that is a Chrome trace, also write a folded-\
                stack (flamegraph.pl / speedscope) file \
                $(docv).a.folded / $(docv).b.folded.")
  in
  let history_flag =
    Arg.(value & flag
         & info [ "history" ]
             ~doc:
               "Walk an append-only bench history (see bench --help and \
                results/README.md) instead of diffing two runs: per-series \
                work-unit trajectories and last deltas.")
  in
  let read_file file =
    match In_channel.with_open_bin file In_channel.input_all with
    | text -> Ok text
    | exception Sys_error e -> Error e
  in
  let fail_usage msg =
    Fmt.epr "satpg diff: %s@." msg;
    exit 2
  in
  let run () json top max_regress folded history a b =
    if history then begin
      let file = Option.value ~default:"results/BENCH_history.jsonl" a in
      (match b with
       | Some _ -> fail_usage "--history takes at most one file"
       | None -> ());
      match read_file file with
      | Error e -> fail_usage e
      | Ok text ->
        let series, bad =
          Obs.Diff.history_of_lines (String.split_on_char '\n' text)
        in
        if json then
          print_endline (Obs.Json.to_string (Obs.Diff.history_json series))
        else Fmt.pr "%a" Obs.Diff.pp_history (series, bad)
    end
    else begin
      let fa, fb =
        match a, b with
        | Some fa, Some fb -> (fa, fb)
        | _ -> fail_usage "two runs required (or --history)"
      in
      let load label file =
        match read_file file with
        | Error e -> fail_usage e
        | Ok text ->
          (match Obs.Diff.classify_input text with
           | Error e -> fail_usage (file ^ ": " ^ e)
           | Ok input -> (input, Obs.Diff.side_of_input ~label input))
      in
      let ia, sa = load fa fa in
      let ib, sb = load fb fb in
      let d = Obs.Diff.compute sa sb in
      (match folded with
       | None -> ()
       | Some prefix ->
         let dump tag = function
           | Obs.Diff.Chrome doc ->
             let file = prefix ^ "." ^ tag ^ ".folded" in
             Obs.Fold.write (Obs.Fold.of_chrome doc) file;
             Fmt.epr "wrote %s@." file
           | input ->
             Fmt.epr "note: %s input is a %s, not a Chrome trace; no \
                      folded file@."
               tag
               (Obs.Diff.input_kind_name input)
         in
         dump "a" ia;
         dump "b" ib);
      if json then print_endline (Obs.Json.to_string (Obs.Diff.to_json d))
      else Fmt.pr "%a" (Obs.Diff.pp_text ~top) d;
      (match d.Obs.Diff.reconciled with
       | Some false ->
         Fmt.epr
           "satpg diff: per-row deltas do not reconcile against the total \
            (truncated or edited event stream?)@.";
         exit 2
       | _ -> ());
      match max_regress with
      | Some pct when Obs.Diff.breach ~max_regress_pct:pct d ->
        Fmt.epr "satpg diff: total work units regressed by more than %g%%@."
          pct;
        exit 1
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two instrumented runs — manifests, event JSONL streams, \
          bench JSON files or Chrome traces — at three granularities: run \
          totals, per-span work, and exact per-fault attribution of the \
          delta (new/vanished/status-changed faults called out); or walk a \
          bench history with --history")
    Term.(const run $ logging $ json_flag $ top_arg $ max_regress_arg
          $ folded_arg $ history_flag $ pos_a $ pos_b)

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let port_arg =
    let doc = "Listen for line-delimited JSON requests on 127.0.0.1:$(docv)." in
    Arg.(value & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let unix_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)
  in
  let depth_arg =
    let doc =
      "Admission queue depth; a full queue answers a structured \
       $(b,overloaded) error instead of queueing without bound."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc = "Maximum requests drained into one coalescing batch." in
    Arg.(value & opt int 32 & info [ "batch-max" ] ~docv:"N" ~doc)
  in
  let run () jobs port unix_path queue_depth batch_max =
    setup_jobs jobs;
    if port = None && unix_path = None then begin
      Fmt.epr "satpg serve: pass --port and/or --unix@.";
      exit 124
    end;
    if queue_depth < 1 || batch_max < 1 then begin
      Fmt.epr "satpg serve: --queue-depth and --batch-max must be >= 1@.";
      exit 124
    end;
    match
      Serve.Server.run { Serve.Server.port; unix_path; queue_depth; batch_max }
    with
    | () -> ()
    | exception Invalid_argument msg ->
      Fmt.epr "satpg serve: %s@." msg;
      exit 124
    | exception Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "satpg serve: %s(%s): %s@." fn arg (Unix.error_message e);
      exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived ATPG service: line-delimited JSON requests \
          over TCP and/or a Unix socket, batched and coalesced onto the \
          domain pool behind a bounded admission queue, with Prometheus \
          metrics on GET /metrics and liveness on GET /healthz.  Results \
          share the store records a CLI run with equal budgets would \
          produce, so the cache stays hot across both entry points")
    Term.(const run $ logging $ jobs_arg $ port_arg $ unix_arg $ depth_arg
          $ batch_arg)

let main =
  let doc = "Complexity of sequential ATPG — DATE 1995 reproduction" in
  Cmd.group (Cmd.info "satpg" ~doc)
    [ synth_cmd; retime_cmd; atpg_cmd; classify_cmd; profile_cmd; lint_cmd;
      analyze_cmd; reach_cmd; cache_cmd; kiss_cmd; export_cmd; scan_cmd;
      compare_cmd; tables_cmd; diff_cmd; serve_cmd ]

let () = exit (Cmd.eval main)
