(* Verb execution.  [plan] decodes a request's config object against the
   same lib definitions the CLI flags read: the engine, algorithm, script
   and table names (Core.Cache.atpg_kinds, Synth.Assign.algorithms,
   Synth.Flow.scripts, Core.Report.tables), a positive finite budget
   scale (the per-request SATPG_BUDGET), the --learn and
   --prove-untestable switches, and so on — anything else is a
   bad_request naming the offending field.  The ATPG config comes from
   Core.Cache.atpg_config and every coalescing key and config_fp from
   Core.Cache's key and fingerprint functions, so a served run and a CLI
   run with equal budgets share one store record by construction. *)

type plan = {
  key : string option;
  run : unit -> ((string * Obs.Json.t) list, Protocol.error) result;
}

exception Bad of Protocol.error

let bad fmt =
  Printf.ksprintf
    (fun m -> raise (Bad (Protocol.error Protocol.Bad_request m)))
    fmt

(* ------------------------------------------------------- config parsing - *)

let check_keys ~verb allowed config =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        bad "config field %S is not valid for verb %s" k verb)
    config

let get name config = List.assoc_opt name config

let get_string name config =
  match get name config with
  | None -> None
  | Some (Obs.Json.String s) -> Some s
  | Some j ->
    bad "config.%s must be a string, got %s" name (Obs.Json.to_string j)

let get_bool ~default name config =
  match get name config with
  | None -> default
  | Some (Obs.Json.Bool b) -> b
  | Some j ->
    bad "config.%s must be a boolean, got %s" name (Obs.Json.to_string j)

let get_int name config =
  match get name config with
  | None -> None
  | Some (Obs.Json.Int i) -> Some i
  | Some j ->
    bad "config.%s must be an integer, got %s" name (Obs.Json.to_string j)

let get_float name config =
  match get name config with
  | None -> None
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | Some j ->
    bad "config.%s must be a number, got %s" name (Obs.Json.to_string j)

let of_name what pairs s =
  match List.assoc_opt s pairs with
  | Some v -> v
  | None ->
    bad "%s must be one of %s, got %S" what
      (String.concat "/" (List.map fst pairs))
      s

let get_enum name pairs ~default config =
  match get_string name config with
  | None -> default
  | Some s -> of_name ("config." ^ name) pairs s

(* The jobs field is validated like -J (a positive width) but execution
   always uses the server's own pool: PR 4's submission-order merge makes
   results bit-identical at any width, so the field cannot change an
   answer — rejecting nonsense anyway keeps client configs honest. *)
let check_jobs config =
  match get_int "jobs" config with
  | None -> ()
  | Some j when j >= 1 -> ()
  | Some j -> bad "config.jobs must be >= 1, got %d" j

(* --------------------------------------------------- circuit resolution - *)

let resolve_source ~verb ~config (req : Protocol.request) =
  let display default =
    match get_string "name" config with Some n -> n | None -> default
  in
  match req.Protocol.source with
  | None -> bad "verb %s needs a circuit" verb
  | Some (Protocol.Blif text) ->
    (match Netlist.Blif.parse_string text with
     | c ->
       let hash = Circuits.register ?name:(get_string "name" config) c in
       (display (String.sub hash 0 12), c, hash)
     | exception Netlist.Blif.Parse_error (line, msg) ->
       bad "BLIF parse error at line %d: %s" line msg
     | exception Netlist.Build.Combinational_cycle node ->
       bad "BLIF netlist has a combinational cycle through %s" node
     | exception Invalid_argument msg -> bad "BLIF netlist rejected: %s" msg)
  | Some (Protocol.Kiss text) ->
    let machine =
      match Fsm.Kiss.parse_string text with
      | m -> m
      | exception Failure msg -> bad "KISS2 parse error: %s" msg
      | exception Invalid_argument msg -> bad "KISS2 parse error: %s" msg
    in
    let algorithm =
      get_enum "algorithm" Synth.Assign.algorithms
        ~default:Synth.Assign.Input_dominant config
    in
    let script =
      get_enum "script" Synth.Flow.scripts ~default:Synth.Flow.Rugged config
    in
    (match Synth.Flow.synthesize ~algorithm ~script machine with
     | r ->
       let hash =
         Circuits.register
           ?name:(get_string "name" config)
           r.Synth.Flow.circuit
       in
       (display r.Synth.Flow.name, r.Synth.Flow.circuit, hash)
     | exception Failure msg -> bad "synthesis failed: %s" msg
     | exception Invalid_argument msg -> bad "synthesis failed: %s" msg)
  | Some (Protocol.Hash h) ->
    (match Circuits.find h with
     | Some c -> (display (String.sub h 0 (min 12 (String.length h))), c, h)
     | None ->
       raise
         (Bad
            (Protocol.error Protocol.Not_found
               (Printf.sprintf
                  "no circuit registered under structural hash %S" h))))
  | Some (Protocol.Bench { fsm; algorithm; script; retimed }) ->
    let algorithm =
      of_name "circuit.algorithm" Synth.Assign.algorithms algorithm
    in
    let script = of_name "circuit.script" Synth.Flow.scripts script in
    (match Core.Flow.pair fsm algorithm script with
     | p ->
       let name, c = Core.Flow.circuit p ~retimed in
       let hash = Circuits.register ~name c in
       (display name, c, hash)
     | exception (Not_found | Failure _) ->
       bad "unknown benchmark FSM %S (see `satpg synth --help`)" fsm
     | exception Invalid_argument msg -> bad "benchmark rejected: %s" msg)

(* ------------------------------------------------------------ manifests - *)

(* Per-request provenance: content-addressed over the work's identity
   (command, circuit hash, config fingerprint, work units), never over
   wall clock or cache temperature — so the N responses of a coalesced
   group and a later cache hit of the same request all carry the same
   manifest id.  That equality is what `bench serve` asserts to prove
   computations are not duplicated. *)
let manifest ~command ?circuit ?circuit_hash ?config_fp ?engine ~budget
    ~work_units () =
  let budget =
    match budget with
    | Some f -> Printf.sprintf "%g" f
    | None -> (match Sys.getenv_opt "SATPG_BUDGET" with Some s -> s | None -> "")
  in
  let m =
    Obs.Ledger.make ~tool:"satpg-serve" ~command ?circuit ?circuit_hash
      ?config_fp ?engine ~jobs:(Exec.Pool.jobs ()) ~budget ~work_units
      ~metrics:(Obs.Json.Obj []) ~spans:[] ~event_lines:[] ()
  in
  Store.Disk.save_manifest ~name:("serve-" ^ command) m;
  m

let provenance m =
  [
    ("manifest", Obs.Json.String (Obs.Ledger.id m));
    ("config_fp", Obs.Json.String (Obs.Ledger.config_fp m));
  ]

let cache_field () =
  ( "cache",
    Obs.Json.String (Core.Cache.outcome_string (Core.Cache.last_outcome ())) )

(* The answer of a circuit verb, right after its computation: verb,
   circuit and hash, the verb's [labels], the cache outcome, the
   provenance of a fresh manifest, then the verb's [fields]. *)
let respond ~verb ~name ~hash ?config_fp ?engine ~budget ~work_units labels
    fields =
  let cache = cache_field () in
  let m =
    manifest ~command:verb ~circuit:name ~circuit_hash:hash ?config_fp ?engine
      ~budget ~work_units ()
  in
  Ok
    ([
       ("verb", Obs.Json.String verb);
       ("circuit", Obs.Json.String name);
       ("circuit_hash", Obs.Json.String hash);
     ]
    @ labels @ (cache :: provenance m) @ fields)

(* ----------------------------------------------------------------- atpg - *)

let plan_atpg ~config ~name ~circuit ~hash =
  let engine =
    get_enum "engine" Core.Cache.atpg_kinds ~default:Core.Cache.Hitec config
  in
  let budget = get_float "budget" config in
  let learn =
    Option.map
      (fun _ -> get_bool ~default:false "learn" config)
      (get "learn" config)
  in
  let prove = get_bool ~default:false "prove_untestable" config in
  let cfg = Core.Cache.atpg_config engine ~budget ~learn in
  let key =
    Core.Cache.atpg_key ~prove_untestable:prove engine cfg ~circuit_hash:hash
  in
  let run () =
    let r =
      Core.Cache.atpg ~prove_untestable:prove ~config:cfg engine ~name circuit
    in
    let engine = Core.Cache.atpg_kind_name engine in
    respond ~verb:"atpg" ~name ~hash
      ~config_fp:(Store.Key.config_fingerprint cfg)
      ~engine ~budget
      ~work_units:(Atpg.Types.work_units r.Atpg.Types.stats)
      [ ("engine", Obs.Json.String engine) ]
      [ ("result", Atpg.Types.result_to_json r) ]
  in
  { key = Some ("atpg:" ^ key); run }

(* ---------------------------------------------------------------- reach - *)

let plan_reach ~config ~name ~circuit ~hash =
  let mode =
    get_enum "mode"
      [ ("auto", `Auto); ("explicit", `Explicit); ("symbolic", `Symbolic) ]
      ~default:`Auto config
  in
  let mode =
    match mode with
    | `Auto -> if Analysis.Reach.feasible circuit then `Explicit else `Symbolic
    | (`Explicit | `Symbolic) as m -> m
  in
  let common r_fields config_fp =
    respond ~verb:"reach" ~name ~hash ~config_fp ~budget:None ~work_units:0 []
      r_fields
  in
  match mode with
  | `Explicit ->
    let key = "reach:" ^ Core.Cache.reach_key ~circuit_hash:hash in
    let run () =
      match Core.Cache.reach ~name circuit with
      | r ->
        common
          [
            ("mode", Obs.Json.String "explicit");
            ("dffs", Obs.Json.Int r.Analysis.Reach.total_bits);
            ("valid_states", Obs.Json.Int r.Analysis.Reach.valid_states);
            ( "total_states",
              Obs.Json.Float (Analysis.Reach.total_states r) );
            ("density", Obs.Json.Float (Analysis.Reach.density r));
          ]
          Core.Cache.reach_fingerprint
      | exception Invalid_argument msg ->
        Error (Protocol.error Protocol.Bad_request msg)
    in
    { key = Some key; run }
  | `Symbolic ->
    let key = "symreach:" ^ Core.Cache.symreach_key ~circuit_hash:hash in
    let run () =
      match Core.Cache.symreach ~name circuit with
      | s ->
        common
          [
            ("mode", Obs.Json.String "symbolic");
            ("dffs", Obs.Json.Int s.Analysis.Symreach.total_bits);
            ( "valid_states",
              Obs.Json.Float s.Analysis.Symreach.valid_states );
            ( "total_states",
              Obs.Json.Float (Analysis.Symreach.total_states s) );
            ("density", Obs.Json.Float (Analysis.Symreach.density s));
            ("depth", Obs.Json.Int s.Analysis.Symreach.depth);
            ("bdd_nodes", Obs.Json.Int s.Analysis.Symreach.bdd_nodes);
          ]
          Core.Cache.symreach_fingerprint
      | exception Bdd.Node_limit ->
        Error
          (Protocol.error Protocol.Bad_request
             (Printf.sprintf
                "BDD node budget (%d) exhausted during symbolic reachability"
                Analysis.Symreach.default_max_nodes))
    in
    { key = Some key; run }

(* ------------------------------------------------------------- classify - *)

let plan_classify ~config ~name ~circuit ~hash =
  let symbolic = get_bool ~default:true "symbolic" config in
  let product = get_bool ~default:false "product" config in
  let universe =
    get_enum "universe"
      [
        ("collapsed", Core.Cache.Collapsed); ("invariant", Core.Cache.Invariant);
      ]
      ~default:Core.Cache.Collapsed config
  in
  let key =
    "classify:"
    ^ Core.Cache.classify_key ~symbolic ~product universe ~circuit_hash:hash
  in
  let run () =
    let t = Core.Cache.classify ~symbolic ~product ~universe ~name circuit in
    let s = t.Analysis.Untest.summary in
    respond ~verb:"classify" ~name ~hash
      ~config_fp:(Core.Cache.classify_fingerprint ~symbolic ~product universe)
      ~budget:None ~work_units:s.Analysis.Untest.work
      [ ("universe", Obs.Json.String (Core.Cache.universe_name universe)) ]
      (Analysis.Untest.summary_fields s)
  in
  { key = Some key; run }

(* ----------------------------------------------------------------- lint - *)

let plan_lint ~config ~name ~circuit ~hash =
  let symbolic = get_bool ~default:true "symbolic" config in
  let key = Printf.sprintf "lint:%s:%b" hash symbolic in
  let run () =
    Core.Cache.note_bypass ();
    let s = Lint.Report.lint_netlist ~symbolic circuit in
    respond ~verb:"lint" ~name ~hash ~budget:None ~work_units:0 []
      [
        ("errors", Obs.Json.Bool (Lint.Diag.has_errors s.Lint.Report.diags));
        ("report", Lint.Report.netlist_to_json ~name circuit s);
      ]
  in
  { key = Some key; run }

(* --------------------------------------------------------------- tables - *)

let plan_tables ~config =
  let which, pp =
    let s = Option.value ~default:"shape" (get_string "table" config) in
    match List.assoc_opt s Core.Report.tables with
    | Some pp -> (s, pp)
    | None -> bad "config.table must be 1-8, fig3, shape or all, got %S" s
  in
  let env_budget =
    match Sys.getenv_opt "SATPG_BUDGET" with Some s -> s | None -> ""
  in
  let key = Printf.sprintf "tables:%s:%s" which env_budget in
  let run () =
    let text = Format.asprintf "%t" pp in
    let checks_ok =
      match which with
      | "shape" | "all" ->
        [
          ( "checks_ok",
            Obs.Json.Bool
              (List.for_all snd (Core.Report.shape_checks ())) );
        ]
      | _ -> []
    in
    let m = manifest ~command:"tables" ~circuit:which ~budget:None
        ~work_units:0 () in
    Ok
      ([
         ("verb", Obs.Json.String "tables");
         ("table", Obs.Json.String which);
         cache_field ();
       ]
      @ provenance m @ checks_ok
      @ [ ("text", Obs.Json.String text) ])
  in
  { key = Some key; run }

(* ----------------------------------------------------------------- fsim - *)

let plan_fsim ~config ~name ~circuit ~hash =
  let vectors =
    match get_int "vectors" config with
    | None -> 1024
    | Some v when v >= 1 && v <= 5_000_000 -> v
    | Some v -> bad "config.vectors must be in [1, 5000000], got %d" v
  in
  let seed =
    match get_int "seed" config with
    | None -> 1
    | Some s when s >= 0 -> s
    | Some s -> bad "config.seed must be >= 0, got %d" s
  in
  let key = Printf.sprintf "fsim:%s:%d:%d" hash vectors seed in
  let run () =
    let faults = Fsim.Collapse.list circuit in
    let rng = Random.State.make [| seed; 0x5a7f |] in
    let seq =
      Sim.Vectors.random_sequence rng
        ~width:(Netlist.Node.num_pis circuit)
        ~length:vectors
    in
    Core.Cache.note_bypass ();
    let r = Fsim.Engine.simulate circuit faults seq in
    let detected =
      Array.fold_left (fun a d -> if d then a + 1 else a) 0 r.Fsim.Engine.detected
    in
    respond ~verb:"fsim" ~name ~hash ~budget:None
      ~work_units:r.Fsim.Engine.sim_cycles []
      [
        ("faults", Obs.Json.Int (Array.length faults));
        ("detected", Obs.Json.Int detected);
        ( "coverage_percent",
          Obs.Json.Float
            (Fsim.Engine.coverage ~detected ~total:(Array.length faults)) );
        ("vectors", Obs.Json.Int vectors);
        ("seed", Obs.Json.Int seed);
        ("cycles", Obs.Json.Int r.Fsim.Engine.cycles);
        ("sim_cycles", Obs.Json.Int r.Fsim.Engine.sim_cycles);
      ]
  in
  { key = Some key; run }

(* ---------------------------------------------------------------- stats - *)

let count name = Obs.Metrics.count (Obs.Metrics.counter name)

let stats_fields () =
  let cache_counters =
    List.map
      (fun short -> (short, Obs.Json.Int (count ("core.cache." ^ short))))
      [
        "hits"; "misses"; "bypasses"; "disk_hits"; "disk_misses";
        "disk_writes"; "disk_errors";
      ]
  in
  let serve_counters =
    List.map
      (fun short -> (short, Obs.Json.Int (count ("serve." ^ short))))
      [
        "requests"; "responses"; "errors"; "overloaded"; "coalesced";
        "batches"; "http_requests";
      ]
  in
  let store =
    if not (Store.Disk.enabled ()) then Obs.Json.Null
    else
      Obs.Json.Obj
        (List.map
           (fun (kind, n, bytes) ->
             ( Store.Disk.kind_name kind,
               Obs.Json.Obj
                 [ ("records", Obs.Json.Int n); ("bytes", Obs.Json.Int bytes) ]
             ))
           (Store.Disk.stats ()))
  in
  [
    ("verb", Obs.Json.String "stats");
    ("serve", Obs.Json.Obj serve_counters);
    ( "in_flight",
      Obs.Json.Int
        (int_of_float (Obs.Metrics.value (Obs.Metrics.gauge "serve.in_flight")))
    );
    ("cache", Obs.Json.Obj cache_counters);
    ("circuits", Obs.Json.Int (Circuits.count ()));
    ("jobs", Obs.Json.Int (Exec.Pool.jobs ()));
    ("store", store);
  ]

(* ----------------------------------------------------------------- plan - *)

let plan (req : Protocol.request) =
  let verb = Protocol.verb_name req.Protocol.verb in
  let config = req.Protocol.config in
  try
    let with_circuit allowed k =
      check_keys ~verb
        ([ "name" ] @ allowed @ [ "algorithm"; "script" ])
        config;
      check_jobs config;
      let name, circuit, hash = resolve_source ~verb ~config req in
      k ~name ~circuit ~hash
    in
    match req.Protocol.verb with
    | Protocol.Atpg ->
      Ok
        (with_circuit
           [ "engine"; "budget"; "learn"; "prove_untestable"; "jobs" ]
           (plan_atpg ~config))
    | Protocol.Reach ->
      Ok (with_circuit [ "mode"; "jobs" ] (plan_reach ~config))
    | Protocol.Classify ->
      Ok
        (with_circuit
           [ "symbolic"; "product"; "universe"; "jobs" ]
           (plan_classify ~config))
    | Protocol.Lint -> Ok (with_circuit [ "symbolic" ] (plan_lint ~config))
    | Protocol.Fsim ->
      Ok (with_circuit [ "vectors"; "seed"; "jobs" ] (plan_fsim ~config))
    | Protocol.Tables ->
      check_keys ~verb [ "table"; "jobs" ] config;
      check_jobs config;
      if req.Protocol.source <> None then
        bad "verb tables takes no circuit (it runs the study pairs)";
      Ok (plan_tables ~config)
    | Protocol.Stats ->
      check_keys ~verb [] config;
      Ok { key = None; run = (fun () -> Ok (stats_fields ())) }
    | Protocol.Shutdown ->
      Error
        (Protocol.error Protocol.Internal_error
           "shutdown must be handled by the connection layer")
  with
  | Bad e -> Error e
  | Invalid_argument msg -> Error (Protocol.error Protocol.Bad_request msg)
  | e ->
    Error
      (Protocol.error Protocol.Internal_error
         ("planning failed: " ^ Printexc.to_string e))
