(* serve_replay: a closed loop against a `satpg serve` child over a Unix
   socket — the only workload through lib/serve, lib/store, Core.Cache
   and Exec.Bqueue.

   Each connection sends its next request only after the reply to the
   previous one, like the scripts that call the daemon.  Reads are atpg
   requests on circuits made warm during set-up, by structural-hash
   reference or as inline BLIF.  Writes are atpg requests on unique
   generated FSMs: a miss, a computation and a store write each.
   Writes are a fixed share of the requests, so the load scales with the
   daemon's speed rather than piling up when the host is slow; a read
   batched behind a write waits for it.

   The read circuits and the inline majority follow the two clients in
   the repository, which send the dk16 pair and resend the circuit with
   every request.  They are phase tests (a batch sent twice; repeat-ratio
   sweeps), so the write and hash shares are assumed; README.md reports
   how the throughput and p99_ms respond to each. *)

open Common

let budget = 0.05

(* Share of requests that are writes: about a quarter of the daemon's
   time on the host the benchmark was designed on, so both the miss path
   and the hit path carry weight in wall_s and p99_ms. *)
let write_share = 1.0 /. 24.0

(* Share of reads that name their circuit by structural hash; the rest
   resend it as inline BLIF, as both clients in the repository do. *)
let hash_share = 0.1

(* The replay runs in windows of this many requests, so that at least
   ten of a window's latencies lie beyond its p99; the end-to-end numbers
   are medians over windows. *)
let window_requests = 1000

let json_line fields = Obs.Json.to_string (Obs.Json.Obj fields)

let request ~id source =
  json_line
    [
      ("id", Obs.Json.String id);
      ("verb", Obs.Json.String "atpg");
      ("circuit", Obs.Json.Obj [ source ]);
      ("config", Obs.Json.Obj [ ("budget", Obs.Json.Float budget) ]);
    ]

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some j) path

let str path j = Option.bind (field path j) Obs.Json.to_string_opt

let coverage j =
  match field [ "result"; "coverage_percent" ] j with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* The in-process run the daemon's answer to a write must equal: the
   request-budget HITEC recipe of lib/serve on the parsed BLIF. *)
let atpg_config =
  lazy
    (Atpg.Types.scale_budgets
       { Atpg.Types.default_config with Atpg.Types.learn = false }
       budget)

let generated ~name ~states ~seed =
  let machine =
    Fsm.Generate.generate
      {
        Fsm.Generate.default_spec with
        Fsm.Generate.name;
        num_inputs = 2;
        num_outputs = 2;
        num_states = states;
        cubes_per_state = 2;
        seed;
      }
  in
  let s =
    Synth.Flow.synthesize ~algorithm:Synth.Assign.Input_dominant
      ~script:Synth.Flow.Delay machine
  in
  Netlist.Blif.to_string ~model:name s.Synth.Flow.circuit

(* ------------------------------------------------------------ the child *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = { pid : int; sock : string; dir : string }

let child_env store =
  let keep v =
    not (String.length v >= 6 && String.sub v 0 6 = "SATPG_")
  in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    [| "SATPG_JOBS=1"; "SATPG_STORE=" ^ store |]

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception e ->
    Unix.close fd;
    raise e

let close_conn (ic, _) = close_in_noerr ic

let rpc_raw (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let rpc conn line = Obs.Json.parse (rpc_raw conn line)

let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.05;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      false
    | _ -> true
  in
  go ()

let spawn ~satpg ~dir =
  remove_tree dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s.sock" in
  let store = Filename.concat dir "store" in
  let log_fd =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log_fd)
      (fun () ->
        Unix.create_process_env satpg
          [| satpg; "serve"; "--unix"; sock |]
          (child_env store) Unix.stdin log_fd log_fd)
  in
  let d = { pid; sock; dir } in
  let deadline = now () +. 30.0 in
  let rec wait_up () =
    match connect sock with
    | conn -> close_conn conn
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith "satpg serve exited during start-up");
      if now () > deadline then failwith "satpg serve did not come up in 30 s";
      Unix.sleepf 0.02;
      wait_up ()
  in
  (try wait_up ()
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (wait_exit pid ~timeout:5.0);
     raise e);
  d

let stop d =
  (try
     let conn = connect d.sock in
     ignore (rpc_raw conn (json_line [ ("verb", Obs.Json.String "shutdown") ]));
     close_conn conn
   with _ -> ());
  let clean = wait_exit d.pid ~timeout:15.0 in
  remove_tree d.dir;
  clean

(* Counter and histogram samples of GET /metrics. *)
let prometheus sock =
  let ic, oc = connect sock in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      output_string oc "GET /metrics HTTP/1.1\r\nHost: satpg\r\n\r\n";
      flush oc;
      let samples = Hashtbl.create 64 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           match String.split_on_char ' ' line with
           | [ name; v ] when String.length name > 6 && String.sub name 0 6 = "satpg_" ->
             (match float_of_string_opt v with
              | Some x -> Hashtbl.replace samples name x
              | None -> ())
           | _ -> ()
         done
       with End_of_file -> ());
      samples)

let prom_delta before after name =
  let get t = Option.value ~default:0.0 (Hashtbl.find_opt t name) in
  get after -. get before

(* --------------------------------------------------------------- set-up *)

type read_circuit = {
  label : string;
  blif : string;
  mutable hash : string;
  mutable manifest : string;
  mutable cover : float;
}

type write = { w_label : string; w_blif : string; mutable expect : float }

(* Warm every read circuit: the inline request computes, the hash request
   and a repeat of the inline one must hit with the same manifest. *)
let warm conn reads =
  List.iter
    (fun rc ->
      let r = rpc conn (request ~id:"warm" ("blif", Obs.Json.String rc.blif)) in
      (match (str [ "circuit_hash" ] r, str [ "manifest" ] r, coverage r) with
       | Some h, Some m, Some c ->
         if rc.hash <> "" && (h, m, c) <> (rc.hash, rc.manifest, rc.cover) then
           failwith (rc.label ^ ": warm-up answer differs between set-ups");
         rc.hash <- h;
         rc.manifest <- m;
         rc.cover <- c
       | _ -> failwith (rc.label ^ ": warm-up failed: " ^ Obs.Json.to_string r));
      List.iter
        (fun source ->
          let r = rpc conn (request ~id:"warm" source) in
          if str [ "manifest" ] r <> Some rc.manifest
             || not (List.mem (str [ "cache" ] r) [ Some "hit"; Some "disk-hit" ])
          then failwith (rc.label ^ ": warm read is not a hit with the set-up manifest"))
        [ ("hash", Obs.Json.String rc.hash); ("blif", Obs.Json.String rc.blif) ])
    reads

(* ------------------------------------------------------------- replay *)

type kind = Read_hash of read_circuit | Read_inline of read_circuit | Write of write

type sample = {
  window : int;
  kind : kind;
  id : string;
  line : string;
  t0 : float;
  t1 : float;
  reply : string;
}

(* What tracing adds to a request: one span appended under the lock the
   two connections share. *)
let record_span mu spans kind id t0 t1 =
  let name = match kind with Write _ -> "bench.write" | _ -> "bench.read" in
  Mutex.protect mu (fun () ->
      spans := { s_name = name; s_id = id; start = t0; stop = t1; parent = -1 } :: !spans)

(* Writes are generated before the window that sends them, outside the
   timing: before each window the pool is topped up to twice the writes
   of the busiest window so far. *)
type pool = { queue : write Queue.t; mutable made : int; make : int -> write }

let top_up pool n =
  while Queue.length pool.queue < n do
    Queue.push (pool.make pool.made) pool.queue;
    pool.made <- pool.made + 1
  done

(* The replay: windows of [window_requests] requests, split evenly over
   the connections, until [seconds] of windows have been measured.  A
   window's clock holds its wall time and its request latencies.  The
   [layer_counters] deltas are summed over the windows, which leave out
   the write generation between them. *)
let replay ~seed ~seconds ~trace ~conns d reads pool =
  let reads = Array.of_list reads in
  let mu = Mutex.create () in
  let per_conn = window_requests / conns in
  let rngs = Array.init conns (fun c -> Random.State.make [| seed; c |]) in
  let sent = Array.make conns 0 in
  let samples = Array.make conns [] in
  (* tracing records a client-side span per request and per window *)
  let spans = ref [] in
  let broken = ref None and dry = ref 0 in
  let window w conn c =
    let rng = rngs.(c) in
    try
      for _ = 1 to per_conn do
        let id = Printf.sprintf "c%d-%d" c sent.(c) in
        sent.(c) <- sent.(c) + 1;
        let write =
          if Random.State.float rng 1.0 >= write_share then None
          else
            Mutex.protect mu (fun () ->
                let next = Queue.take_opt pool.queue in
                if next = None then incr dry;
                next)
        in
        let kind, line =
          match write with
          | Some wr -> (Write wr, request ~id ("blif", Obs.Json.String wr.w_blif))
          | None ->
            let rc = reads.(Random.State.int rng (Array.length reads)) in
            if Random.State.float rng 1.0 < hash_share then
              (Read_hash rc, request ~id ("hash", Obs.Json.String rc.hash))
            else (Read_inline rc, request ~id ("blif", Obs.Json.String rc.blif))
        in
        let t0 = now () in
        let reply = rpc_raw conn line in
        let t1 = now () in
        if trace then record_span mu spans kind id t0 t1;
        samples.(c) <- { window = w; kind; id; line; t0; t1; reply } :: samples.(c)
      done
    with e -> Mutex.protect mu (fun () -> broken := Some (Printexc.to_string e))
  in
  let counts = ref (List.map (fun n -> (n, 0)) layer_counters) in
  let conn_list = List.init conns (fun _ -> connect d.sock) in
  let clocks =
    Fun.protect
      ~finally:(fun () -> List.iter close_conn conn_list)
      (fun () ->
        let busiest =
          ref (int_of_float (Float.ceil (write_share *. float_of_int window_requests)))
        in
        rounds ~measured:true ~seconds ~min_rounds:3 (fun w ->
            top_up pool (2 * !busiest);
            let left = Queue.length pool.queue in
            let before = counters layer_counters in
            let t0 = now () in
            let threads =
              List.mapi (fun c conn -> Thread.create (fun () -> window w conn c) ()) conn_list
            in
            List.iter Thread.join threads;
            let t1 = now () in
            counts :=
              List.map2 (fun (n, a) (_, b) -> (n, a + b)) !counts
                (delta before (counters layer_counters));
            busiest := max !busiest (left - Queue.length pool.queue);
            if trace then
              spans :=
                { s_name = "bench.round"; s_id = Printf.sprintf "window-%d" w;
                  start = t0; stop = t1; parent = -1 }
                :: !spans;
            Option.iter (fun e -> failwith ("replay connection broke: " ^ e)) !broken;
            let clk = clock () in
            clk.spent <- t1 -. t0;
            Array.iter
              (List.iter (fun s -> if s.window = w then clk.calls <- (s.t1 -. s.t0) :: clk.calls))
              samples;
            clk))
  in
  if !dry > 0 then log "serve_replay: the write pool ran dry %d times" !dry;
  ( List.concat (Array.to_list samples) |> List.sort (fun a b -> compare a.t0 b.t0),
    List.sort (fun a b -> compare a.start b.start) !spans,
    clocks,
    !counts,
    !dry )

let latency s = s.t1 -. s.t0

let check_sample s =
  match Obs.Json.parse s.reply with
  | exception Obs.Json.Parse_error _ -> false
  | r ->
    let ok = field [ "ok" ] r = Some (Obs.Json.Bool true) && str [ "id" ] r = Some s.id in
    let cache = str [ "cache" ] r in
    ok
    &&
    match s.kind with
    | Read_hash rc | Read_inline rc ->
      (cache = Some "hit" || cache = Some "disk-hit")
      && str [ "manifest" ] r = Some rc.manifest
      && coverage r = Some rc.cover
    | Write w -> cache = Some "miss" && coverage r = Some w.expect

(* Median time per call of [f] over the items, repeated until [min_s]
   seconds of calls have accumulated. *)
let per_call ~min_s items f =
  let calls = ref 0 and t = ref 0.0 in
  while !t < min_s do
    List.iter
      (fun x ->
        let _, dt = time (fun () -> f x) in
        t := !t +. dt;
        incr calls)
      items
  done;
  !t /. float_of_int !calls

let run ~seed ~seconds ~trace ~out ~fixtures ~satpg =
  let conns = max 1 (min 2 (Domain.recommended_domain_count ())) in
  (* inputs: the dk16 fixture pair, original and retimed, as read
     circuits (the pair both repository clients of the daemon send), and
     a sequence of 16-24-state machines as writes.  Both are the same for
     every seed, so set-up is too; the seed decides which request is a
     write, and the circuit and source of each read *)
  let reads =
    List.filter_map
      (fun (name, c) ->
        if String.starts_with ~prefix:"dk16." name then
          Some { label = name; blif = Netlist.Blif.to_string ~model:name c;
                 hash = ""; manifest = ""; cover = 0.0 }
        else None)
      (Atpg_pairs.load ~dir:fixtures)
  in
  let pool =
    {
      queue = Queue.create ();
      made = 0;
      make =
        (fun i ->
          let w_label = Printf.sprintf "write%d" i in
          let states = 16 + (i mod 9) in
          let w_blif = generated ~name:w_label ~states ~seed:(7919 + i) in
          let r =
            Atpg.Hitec.generate ~config:(Lazy.force atpg_config)
              (Netlist.Blif.parse_string w_blif)
          in
          { w_label; w_blif; expect = r.Atpg.Types.fault_coverage });
    }
  in
  (* set-up: a fresh daemon with a fresh store, warmed and verified.  It
     runs twice before the replay, the second daemon serving it, and
     twice after, so its repetitions sample the host around the replay;
     a daemon is stopped outside the timing *)
  let dir i = Filename.concat out (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) i) in
  let start_daemon i =
    setup_rep (fun () ->
        let d = spawn ~satpg ~dir:(dir i) in
        (try
           let conn = connect d.sock in
           Fun.protect ~finally:(fun () -> close_conn conn) (fun () -> warm conn reads)
         with e ->
           ignore (stop d);
           raise e);
        d)
  in
  let clean_first = stop (start_daemon 0) in
  let d = start_daemon 1 in
  let measured =
    try
      let before = prometheus d.sock in
      let samples, spans, clocks, counts, dry =
        replay ~seed ~seconds ~trace ~conns d reads pool
      in
      let after = prometheus d.sock in
      Ok (samples, spans, clocks, counts, dry, before, after, peak_rss_mb (Some d.pid))
    with e -> Error e
  in
  (* every daemon must exit on the shutdown verb *)
  let clean_replay = stop d in
  let samples, request_spans, clocks, counts, dry, before, after, rss =
    match measured with Ok r -> r | Error e -> raise e
  in
  let clean_exit =
    List.fold_left (fun ok i -> stop (start_daemon i) && ok) (clean_first && clean_replay) [ 2; 3 ]
  in
  if not clean_exit then log "serve_replay: a daemon ignored shutdown and was killed";
  let n = List.length samples in
  Obs.Fileio.write_atomic (Filename.concat out "serve_replay-latencies.csv") (fun oc ->
      output_string oc "window,kind,circuit,latency_ms\n";
      List.iter
        (fun s ->
          let kind, label =
            match s.kind with
            | Read_hash rc -> ("hash", rc.label)
            | Read_inline rc -> ("inline", rc.label)
            | Write w -> ("write", w.w_label)
          in
          Printf.fprintf oc "%d,%s,%s,%.4f\n" s.window kind label (1000.0 *. latency s))
        samples);
  let failed = List.length (List.filter (fun s -> not (check_sample s)) samples) in
  let dp = prom_delta before after in
  let overloaded = dp "satpg_serve_overloaded_total"
  and errors = dp "satpg_serve_errors_total" in
  if overloaded > 0.0 || errors > 0.0 then
    log "serve_replay: %g overloaded and %g errors" overloaded errors;
  if failed > 0 then log "serve_replay: %d of %d replies failed the checks" failed n;
  let lat p = List.map latency (List.filter p samples) in
  let is_write s = match s.kind with Write _ -> true | _ -> false in
  let metrics =
    if not trace then
      end_to_end ~rounds:clocks ~peak_rss:rss ~ok_pct:(100.0 *. (1.0 -. ratio failed n))
    else begin
      (* the per-layer numbers timed in-process on the replay's own
         request lines and read circuits *)
      let layer_spans = ref [] in
      let layer name f =
        let t0 = now () in
        let r = f () in
        layer_spans := (name, t0, now ()) :: !layer_spans;
        r
      in
      let lines = List.map (fun s -> s.line) samples in
      let decode =
        layer "protocol.decode" (fun () ->
            per_call ~min_s:0.2 lines (fun l -> ignore (Serve.Protocol.decode_request l)))
      in
      let blifs = List.map (fun rc -> rc.blif) reads in
      let parse =
        layer "netlist.blif_parse" (fun () ->
            per_call ~min_s:0.2 blifs (fun b -> ignore (Netlist.Blif.parse_string b)))
      in
      let parsed = List.map Netlist.Blif.parse_string blifs in
      let hash =
        layer "netlist.structhash" (fun () ->
            per_call ~min_s:0.2 parsed (fun c -> ignore (Netlist.Structhash.circuit c)))
      in
      let spans =
        Array.of_list
          (request_spans
          @ List.rev_map
              (fun (name, t0, t1) ->
                { s_name = name; s_id = "layers"; start = t0; stop = t1; parent = -1 })
              !layer_spans)
      in
      write_trace ~file:(Filename.concat out "serve_replay-trace.json") spans;
      (* tracing overhead: the cost of recording one span, timed over a
         batch of recordings, over the median request *)
      let span_cost =
        let mu = Mutex.create () and batch = 10_000 in
        let scratch = ref [] and t = ref 0.0 and k = ref 0 in
        let s0 = List.hd samples in
        while !t < 0.2 do
          scratch := [];
          let _, dt =
            time (fun () ->
                for _ = 1 to batch do
                  record_span mu scratch s0.kind s0.id s0.t0 s0.t1
                done)
          in
          t := !t +. dt;
          k := !k + batch
        done;
        !t /. float_of_int !k
      in
      let reads_ = lat (fun s -> not (is_write s)) in
      let hash_reads =
        List.length (List.filter (fun s -> match s.kind with Read_hash _ -> true | _ -> false) samples)
      in
      let hits = dp "satpg_core_cache_hits_total" +. dp "satpg_core_cache_disk_hits_total" in
      let misses = dp "satpg_core_cache_misses_total" in
      let requests =
        {
          decode_us = decode *. 1e6;
          blif_parse_ms = parse *. 1e3;
          structhash_ms = hash *. 1e3;
          read_p50_ms = 1000.0 *. percentile reads_ 0.50;
          read_p99_ms = 1000.0 *. percentile reads_ 0.99;
          write_p50_ms = 1000.0 *. percentile (lat is_write) 0.50;
          write_pct = 100.0 *. float_of_int (List.length (lat is_write)) /. float_of_int n;
          hash_read_pct =
            100.0 *. float_of_int hash_reads /. float_of_int (List.length reads_);
          batch_mean =
            dp "satpg_serve_batch_size_sum" /. dp "satpg_serve_batch_size_count";
          hit_ratio = hits /. (hits +. misses);
          disk_writes = dp "satpg_core_cache_disk_writes_total";
          coalesced = dp "satpg_serve_coalesced_total";
          overloaded;
          errors;
        }
      in
      per_layer ~spans ~counts ~flows:[] ~outcomes:[] ~requests
        ~overhead_pct:(100.0 *. span_cost /. percentile (List.map latency samples) 0.50)
    end
  in
  (failed = 0 && overloaded = 0.0 && errors = 0.0 && dry = 0 && clean_exit, n, failed, metrics)
