(* atpg_pairs: the paper's measured object — the two verbs a user runs on
   the original and retimed circuits of a study pair: static
   classification with the default cascade (what `satpg classify` runs),
   then HITEC-style ATPG at the default budget.  The engines are called
   directly, never through Core.Cache.

   Circuits come from exact-codec fixture files written once by
   [regen] and checked against their recorded structural hashes, so
   no synthesis runs here. *)

open Common

(* Pairs whose runs stay inside total_work_limit: the retimed circuits
   resolve mostly in PODEM and the symbolic stages, the originals in
   random-phase fault simulation. *)
let selection =
  [
    ("pma", Synth.Assign.Input_dominant, Synth.Flow.Delay);
    ("dk16", Synth.Assign.Combined, Synth.Flow.Delay);
  ]

let hashes_file dir = Filename.concat dir "hashes.json"

(* (fixture name, circuit) for every circuit of the selection. *)
let circuits_of_pair (p : Core.Flow.pair) =
  [ (p.Core.Flow.name ^ ".orig", p.Core.Flow.original);
    (p.Core.Flow.name ^ ".re", p.Core.Flow.retimed) ]

(* Rewrite the fixture files and their recorded hashes from Core.Flow. *)
let regen ~dir =
  let circuits =
    List.concat_map
      (fun (f, a, s) -> circuits_of_pair (Core.Flow.build f a s))
      selection
  in
  List.iter
    (fun (name, c) ->
      Obs.Fileio.write_string_atomic
        (Filename.concat dir (name ^ ".json"))
        (Obs.Json.to_string (Store.Codec.circuit_to_json c) ^ "\n"))
    circuits;
  Obs.Fileio.write_string_atomic (hashes_file dir)
    (Obs.Json.to_string
       (Obs.Json.Obj
          (List.map
             (fun (name, c) ->
               (name, Obs.Json.String (Netlist.Structhash.circuit c)))
             circuits))
    ^ "\n");
  List.iter (fun (name, _) -> log "wrote %s/%s.json" dir name) circuits

(* Load every fixture, rejecting any whose structural hash differs from
   the recorded one. *)
let load ~dir =
  match Obs.Json.parse (read_file (hashes_file dir)) with
  | Obs.Json.Obj entries ->
    List.map
      (fun (name, h) ->
        let recorded = Option.get (Obs.Json.to_string_opt h) in
        let json = Obs.Json.parse (read_file (Filename.concat dir (name ^ ".json"))) in
        match Store.Codec.circuit_of_json json with
        | Some c when Netlist.Structhash.circuit c = recorded -> (name, c)
        | Some _ -> failwith (name ^ ": structural hash differs from hashes.json")
        | None -> failwith (name ^ ": not an exact-codec circuit"))
      entries
  | _ -> failwith "hashes.json is not an object"

let statuses (r : Atpg.Types.result) =
  String.concat ","
    (Array.to_list (Array.map Fsim.Fault.status_to_string r.Atpg.Types.status))

(* Exact counts that a pure speed-up leaves identical. *)
let exact o =
  let s = o.atpg.Atpg.Types.stats and u = o.untest.Analysis.Untest.summary in
  digest
    [
      string_of_int (Atpg.Types.work_units s);
      string_of_int s.Atpg.Types.backtracks;
      string_of_int s.Atpg.Types.decisions;
      string_of_int s.Atpg.Types.frames;
      string_of_int (test_vectors o.atpg);
      statuses o.atpg;
      string_of_int u.Analysis.Untest.work;
      string_of_int u.Analysis.Untest.proved;
      String.concat ","
        (Array.to_list
           (Array.map
              (function
                | Analysis.Untest.Unknown -> "?"
                | Analysis.Untest.Untestable p ->
                  Analysis.Untest.cause_to_string p.Analysis.Untest.cause)
              o.untest.Analysis.Untest.verdicts));
    ]

(* Every fault credited Detected is detected again by re-simulating the
   test sequences from power-up on the node-walking simulator (the
   engine ran on the instruction tape), and no fault is both proved
   untestable and detected. *)
let check name c o =
  let r = o.atpg in
  let faults = r.Atpg.Types.faults in
  let credited =
    Array.map (fun s -> s = Fsim.Fault.Detected) r.Atpg.Types.status
  in
  let confirmed = Array.map not credited in
  List.iter
    (fun seq ->
      let run =
        Fsim.Engine.simulate ~skip:confirmed ~backend:`Nodes c faults seq
      in
      Array.iteri (fun i d -> if d then confirmed.(i) <- true) run.Fsim.Engine.detected)
    r.Atpg.Types.test_sets;
  let unconfirmed = Array.fold_left (fun a b -> if b then a else a + 1) 0 confirmed in
  let contradicted = ref 0 in
  Array.iteri
    (fun i f ->
      if credited.(i) && Analysis.Untest.lookup o.untest f <> Analysis.Untest.Unknown
      then incr contradicted)
    faults;
  if unconfirmed > 0 then
    log "atpg_pairs: %s: %d detected faults not confirmed by re-simulation" name unconfirmed;
  if !contradicted > 0 then
    log "atpg_pairs: %s: %d faults both proved untestable and detected" name !contradicted;
  unconfirmed = 0 && !contradicted = 0

let run ~seed ~seconds ~trace ~out ~fixtures =
  let rng = Random.State.make [| seed |] in
  let config = Atpg.Hitec.config () in
  (* set-up: load and verify the fixtures, then run both verbs once on
     the smallest circuit so lazy initialisation is paid up front;
     repeated three times here and once after every round *)
  let setup () =
    setup_rep (fun () ->
        let circuits = load ~dir:fixtures in
        let _, c = List.hd circuits in
        ignore (Analysis.Untest.classify c);
        ignore (Atpg.Hitec.generate ~config c);
        Array.of_list circuits)
  in
  let circuits = setup () in
  ignore (setup ());
  ignore (setup ());
  let reference = Hashtbl.create 8 and firsts = Hashtbl.create 8 in
  let attempted = ref 0 and failed = ref 0 in
  let round_counts = ref [] in
  let round r =
    let order = shuffle rng circuits in
    let traced = trace && r mod 2 = 1 in
    let before = counters layer_counters in
    let clk = clock () in
    traced_if traced (fun () ->
        span ~id:(Printf.sprintf "round-%d" r) "bench.round" (fun () ->
            Array.iter
              (fun (name, c) ->
                let untest =
                  timed clk (fun () ->
                      span ~id:name "bench.classify" (fun () ->
                          Analysis.Untest.classify c))
                in
                sample_nodes ();
                let atpg =
                  timed clk (fun () ->
                      span ~id:name "bench.generate" (fun () ->
                          Atpg.Hitec.generate ~config c))
                in
                sample_nodes ();
                attempted := !attempted + 2;
                let o = { untest; atpg } in
                let d = exact o in
                match Hashtbl.find_opt reference name with
                | None ->
                  Hashtbl.replace reference name d;
                  Hashtbl.replace firsts name (c, o)
                | Some d0 ->
                  if d <> d0 then begin
                    log "atpg_pairs: %s: round %d differs from round 0" name r;
                    failed := !failed + 2
                  end)
              order));
    round_counts := delta before (counters layer_counters) :: !round_counts;
    clk
  in
  let clocks =
    rounds ~between:(fun () -> ignore (setup ())) ~seconds
      ~min_rounds:(if trace then 4 else 3) round
  in
  let done_ =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) firsts [] |> List.sort compare
  in
  List.iter (fun (name, (c, o)) -> if not (check name c o) then failed := !failed + 2) done_;
  (* counter deltas are exact, so every round must agree *)
  let counts, same = agreed_counts ~workload:"atpg_pairs" (List.rev !round_counts) in
  if not same then incr failed;
  let mismatched =
    cross_run_check ~out ~workload:"atpg_pairs"
      (Hashtbl.fold (fun k d acc -> (k, d) :: acc) reference [] |> List.sort compare)
  in
  List.iter (log "atpg_pairs: %s: exact counts differ from an earlier run") mismatched;
  let failed = !failed + (2 * List.length mismatched) in
  let metrics =
    if not trace then
      end_to_end ~rounds:clocks ~peak_rss:(peak_rss_mb None)
        ~ok_pct:(100.0 *. (1.0 -. ratio failed !attempted))
    else begin
      let spans = sink_spans () in
      write_trace ~file:(Filename.concat out "atpg_pairs-trace.json") spans;
      per_layer ~spans ~counts ~flows:[]
        ~outcomes:(List.map (fun (name, (_, o)) -> (name, o)) done_)
        ~requests:no_requests
        ~overhead_pct:(overhead_pct clocks)
    end
  in
  (failed = 0, !attempted, failed, metrics)
