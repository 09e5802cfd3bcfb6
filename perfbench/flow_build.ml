(* flow_build: the paper's circuit factory, uncached.  Each call is
   Core.Flow.build — synthesis, retiming, lint gate — never the memoized
   Core.Flow.pair, so no round is served from a memo table.

   The selection mixes the two scripts because each makes a different
   layer dominant: rugged pairs spend most of their time in
   synth.script, delay pairs in retime.min_period. *)

open Common

let selection =
  [
    ("pma", Synth.Assign.Input_dominant, Synth.Flow.Rugged);
    ("pma", Synth.Assign.Output_dominant, Synth.Flow.Delay);
    ("dk16", Synth.Assign.Input_dominant, Synth.Flow.Delay);
  ]

let label (f, a, s) =
  Printf.sprintf "%s.%s.%s" f (Synth.Assign.algorithm_tag a)
    (Synth.Flow.script_tag s)

(* Everything about a built pair that must repeat exactly. *)
let exact (p : Core.Flow.pair) =
  digest
    [
      Netlist.Structhash.circuit p.Core.Flow.original;
      Netlist.Structhash.circuit p.Core.Flow.retimed;
      Int64.to_string (Int64.bits_of_float p.Core.Flow.retimed_period);
      string_of_int p.Core.Flow.prefix_length;
    ]

(* The retimed circuit from power-up matches the original after its
   prefix_length reset cycles, on seeded random input sequences. *)
let equivalent rng (p : Core.Flow.pair) =
  let c = p.Core.Flow.original and re = p.Core.Flow.retimed in
  let npi = Netlist.Node.num_pis c in
  let s1 = Sim.Scalar.create c and s2 = Sim.Scalar.create re in
  let prefix =
    match Core.Flow.reset_prefix_input p.Core.Flow.synth with
    | Some v -> Sim.Vectors.to_v3 v
    | None -> Array.make npi Sim.Value3.Zero
  in
  let ok = ref true in
  for _ = 1 to 4 do
    Sim.Scalar.reset s1;
    Sim.Scalar.reset s2;
    for _ = 1 to p.Core.Flow.prefix_length do
      ignore (Sim.Scalar.step s1 prefix)
    done;
    for _ = 1 to 64 do
      let v = Sim.Vectors.to_v3 (Sim.Vectors.random_vector rng npi) in
      if Sim.Scalar.step s1 v <> Sim.Scalar.step s2 v then ok := false
    done
  done;
  !ok

let check rng (p : Core.Flow.pair) =
  match
    Lint.Report.assert_clean ~what:p.Core.Flow.name p.Core.Flow.original;
    Lint.Report.assert_clean ~what:p.Core.Flow.name p.Core.Flow.retimed
  with
  | () ->
    let eq = equivalent rng p in
    if not eq then log "flow_build: %s: retimed circuit not equivalent" p.Core.Flow.name;
    eq
  | exception Failure msg ->
    log "flow_build: %s: %s" p.Core.Flow.name msg;
    false

let run ~seed ~seconds ~trace ~out =
  let rng = Random.State.make [| seed |] in
  let items = Array.of_list selection in
  (* set-up: parse the FSM specifications and build the smallest pair
     once, so lazy initialisation is paid before the timed rounds;
     repeated three times here and once after every round *)
  let setup () =
    setup_rep (fun () ->
        List.iter
          (fun (f, _, _) -> ignore (Fsm.Benchmarks.machine (Fsm.Benchmarks.find f)))
          selection;
        let f, a, s = items.(Array.length items - 1) in
        ignore (Core.Flow.build f a s))
  in
  for _ = 1 to 3 do setup () done;
  let reference = Hashtbl.create 8 in
  let attempted = ref 0 and failed = ref 0 in
  let firsts = Hashtbl.create 8 in
  let round_counts = ref [] in
  let round r =
    let order = shuffle rng items in
    let traced = trace && r mod 2 = 1 in
    let before = counters layer_counters in
    let c = clock () in
    traced_if traced (fun () ->
        span ~id:(Printf.sprintf "round-%d" r) "bench.round" (fun () ->
            Array.iter
              (fun ((f, a, s) as item) ->
                let name = label item in
                let p =
                  timed c (fun () ->
                      span ~id:name "bench.flow_build" (fun () -> Core.Flow.build f a s))
                in
                sample_nodes ();
                incr attempted;
                let d = exact p in
                match Hashtbl.find_opt reference name with
                | None ->
                  (* first round: record the exact digest; the outputs
                     are checked after the timed rounds *)
                  Hashtbl.replace reference name d;
                  Hashtbl.replace firsts name p
                | Some d0 ->
                  if d <> d0 then begin
                    log "flow_build: %s: round %d differs from round 0" name r;
                    incr failed
                  end)
              order));
    round_counts := delta before (counters layer_counters) :: !round_counts;
    c
  in
  let clocks = rounds ~between:setup ~seconds ~min_rounds:(if trace then 4 else 3) round in
  let built = Hashtbl.fold (fun k v acc -> (k, v) :: acc) firsts [] |> List.sort compare in
  List.iter (fun (_, p) -> if not (check rng p) then incr failed) built;
  (* the retime counter deltas are exact, so they join the digests *)
  let counts, same = agreed_counts ~workload:"flow_build" (List.rev !round_counts) in
  if not same then incr failed;
  let mismatched =
    cross_run_check ~out ~workload:"flow_build"
      (("counters", digest (List.map (fun (_, n) -> string_of_int n) counts))
       :: (Hashtbl.fold (fun k d acc -> (k, d) :: acc) reference [] |> List.sort compare))
  in
  List.iter (log "flow_build: %s: exact counts differ from an earlier run") mismatched;
  let failed = !failed + List.length mismatched in
  let metrics =
    if not trace then
      end_to_end ~rounds:clocks ~peak_rss:(peak_rss_mb None)
        ~ok_pct:(100.0 *. (1.0 -. ratio failed !attempted))
    else begin
      let spans = sink_spans () in
      write_trace ~file:(Filename.concat out "flow_build-trace.json") spans;
      per_layer ~spans ~counts ~flows:(List.map snd built) ~outcomes:[]
        ~requests:no_requests
        ~overhead_pct:(overhead_pct clocks)
    end
  in
  (failed = 0, !attempted, failed, metrics)
