(* The serve subsystem: protocol codec totality, the bounded admission
   queue, coalescing groups, verb planning, and an end-to-end daemon on
   a Unix socket including the deterministic depth-1 overload path. *)

module P = Serve.Protocol
module J = Obs.Json

(* ------------------------------------------------------------- fixtures *)

(* dune runtest runs in _build/default/test; dune exec from the root *)
let s27_path =
  if Sys.file_exists "../examples/s27.blif" then "../examples/s27.blif"
  else "examples/s27.blif"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let s27_blif () = read_file s27_path

let s27 () = Netlist.Blif.parse_string (s27_blif ())

(* Run [f] against a fresh temporary store directory with the memory
   cache emptied, so cache-outcome assertions (miss then hit) cannot be
   perturbed by the ambient SATPG_STORE or by earlier tests. *)
let with_store f =
  let dir = Filename.temp_file "satpg-serve-test-store" "" in
  Sys.remove dir;
  let saved = Sys.getenv_opt Store.Disk.env_var in
  Unix.putenv Store.Disk.env_var dir;
  Core.Cache.reset_memory ();
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Store.Disk.env_var
        (match saved with Some v -> v | None -> "");
      Core.Cache.reset_memory ();
      rm_rf dir)
    (fun () -> f ())

(* A chain of [cones] copies of OR(acc, AND(a, NOT a)): every AND output
   is constant 0, so its stuck-at-0 fault is undetectable.  The fault
   simulator's early exit fires only when every fault of a word batch is
   detected, and the undetectable faults are spread across all batches —
   so an fsim request over this circuit deterministically simulates its
   full vector budget.  That is the test jam: a request whose duration is
   set by [vectors], not by races against fault dropping. *)
let jam_blif cones =
  let b = Buffer.create 4096 in
  Buffer.add_string b ".model jam\n.inputs a b\n.outputs z\n";
  for i = 0 to cones - 1 do
    Buffer.add_string b (Printf.sprintf ".names a na%d\n0 1\n" i);
    Buffer.add_string b (Printf.sprintf ".names a na%d c%d\n11 1\n" i i);
    let prev = if i = 0 then "b" else Printf.sprintf "o%d" (i - 1) in
    Buffer.add_string b
      (Printf.sprintf ".names %s c%d o%d\n1- 1\n-1 1\n" prev i i)
  done;
  Buffer.add_string b (Printf.sprintf ".names o%d z\n1 1\n.end\n" (cones - 1));
  Buffer.contents b

(* ------------------------------------------------------------ the codec *)

let decode_err line =
  match P.decode_request line with
  | Error e -> P.error_code_name e.P.code
  | Ok _ -> "ok"

let test_decode_errors () =
  Alcotest.(check string) "empty line" "empty" (decode_err "");
  Alcotest.(check string) "blank line" "empty" (decode_err " \t\r");
  Alcotest.(check string) "garbage" "parse_error" (decode_err "not json {");
  Alcotest.(check string) "array" "bad_request" (decode_err "[1,2]");
  Alcotest.(check string) "no verb" "bad_request" (decode_err "{}");
  Alcotest.(check string) "unknown verb" "bad_request"
    (decode_err {|{"verb":"frobnicate"}|});
  Alcotest.(check string) "unknown field" "bad_request"
    (decode_err {|{"verb":"stats","surprise":1}|});
  Alcotest.(check string) "bad id type" "bad_request"
    (decode_err {|{"verb":"stats","id":[1]}|});
  Alcotest.(check string) "two sources" "bad_request"
    (decode_err {|{"verb":"atpg","circuit":{"blif":"x","hash":"y"}}|});
  Alcotest.(check string) "no source" "bad_request"
    (decode_err {|{"verb":"atpg","circuit":{}}|});
  Alcotest.(check string) "unknown circuit field" "bad_request"
    (decode_err {|{"verb":"atpg","circuit":{"blif":"x","extra":1}}|});
  Alcotest.(check string) "config not an object" "bad_request"
    (decode_err {|{"verb":"atpg","config":7}|});
  Alcotest.(check string) "oversized" "oversized"
    (decode_err (String.make (P.max_line_bytes + 1) 'a'))

let test_decode_ok () =
  (match P.decode_request {|{"id":7,"verb":"atpg","circuit":{"bench":"dk16"}}|} with
   | Ok r ->
     Alcotest.(check (option string)) "integer id accepted" (Some "7") r.P.id;
     (match r.P.source with
      | Some (P.Bench b) ->
        Alcotest.(check string) "fsm" "dk16" b.fsm;
        Alcotest.(check string) "algorithm default" "ji" b.algorithm;
        Alcotest.(check string) "script default" "sr" b.script;
        Alcotest.(check bool) "retimed default" false b.retimed
      | _ -> Alcotest.fail "expected a bench source")
   | Error e -> Alcotest.fail e.P.message);
  match P.decode_request {|{"verb":"stats"}|} with
  | Ok r ->
    Alcotest.(check (option string)) "no id" None r.P.id;
    Alcotest.(check bool) "no source" true (r.P.source = None)
  | Error e -> Alcotest.fail e.P.message

let test_response_roundtrip () =
  let line =
    P.encode_response ~id:(Some "x") [ ("n", J.Int 3); ("s", J.String "v") ]
  in
  let j = J.parse line in
  Alcotest.(check bool) "ok true" true (J.member "ok" j = Some (J.Bool true));
  Alcotest.(check bool) "id kept" true
    (J.member "id" j = Some (J.String "x"));
  Alcotest.(check bool) "field kept" true (J.member "n" j = Some (J.Int 3));
  let e = J.parse (P.encode_error ~id:None (P.error P.Overloaded "full")) in
  Alcotest.(check bool) "ok false" true
    (J.member "ok" e = Some (J.Bool false));
  Alcotest.(check bool) "code" true
    (Option.bind (J.member "error" e) (J.member "code")
    = Some (J.String "overloaded"))

(* decode never raises, whatever bytes arrive *)
let test_decode_total =
  QCheck.Test.make ~count:2000 ~name:"decode_request is total on random bytes"
    QCheck.(string_gen Gen.char)
    (fun s ->
      (match P.decode_request s with Ok _ | Error _ -> true)
      && (match P.decode_request ("{" ^ s) with Ok _ | Error _ -> true))

(* -------------------------------------------------------- bounded queue *)

let test_bqueue_bounds () =
  Alcotest.check_raises "depth must be positive"
    (Invalid_argument "Bqueue.create: depth must be >= 1, got 0") (fun () ->
      ignore (Exec.Bqueue.create ~depth:0));
  let q = Exec.Bqueue.create ~depth:2 in
  Alcotest.(check int) "depth" 2 (Exec.Bqueue.depth q);
  Alcotest.(check bool) "push 1" true (Exec.Bqueue.try_push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Exec.Bqueue.try_push q 2 = `Ok);
  Alcotest.(check bool) "push 3 overflows" true
    (Exec.Bqueue.try_push q 3 = `Full);
  Alcotest.(check int) "length" 2 (Exec.Bqueue.length q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Exec.Bqueue.try_pop q);
  Alcotest.(check bool) "slot freed" true (Exec.Bqueue.try_push q 3 = `Ok);
  Exec.Bqueue.close q;
  Alcotest.(check bool) "closed flag" true (Exec.Bqueue.closed q);
  Alcotest.(check bool) "push after close" true
    (Exec.Bqueue.try_push q 4 = `Closed);
  Alcotest.(check (option int)) "drains after close" (Some 2)
    (Exec.Bqueue.pop q);
  Alcotest.(check (option int)) "drains after close 2" (Some 3)
    (Exec.Bqueue.pop q);
  Alcotest.(check (option int)) "then none" None (Exec.Bqueue.pop q);
  Exec.Bqueue.close q (* idempotent *)

(* ----------------------------------------------------------- coalescing *)

let test_coalesce_groups () =
  let items =
    [ ("a", 1); ("b", 2); ("a", 3); (":", 4); ("b", 5); ("a", 6) ]
  in
  let key (k, _) = if k = ":" then None else Some k in
  let groups = Serve.Coalesce.group_by key items in
  Alcotest.(check int) "group count" 3 (List.length groups);
  (match groups with
   | [ ga; gb; gn ] ->
     Alcotest.(check (option string)) "first-arrival order" (Some "a")
       ga.Serve.Coalesce.key;
     Alcotest.(check (list int)) "members in arrival order" [ 1; 3; 6 ]
       (List.map snd ga.Serve.Coalesce.items);
     Alcotest.(check (list int)) "b members" [ 2; 5 ]
       (List.map snd gb.Serve.Coalesce.items);
     Alcotest.(check (option string)) "unkeyed is a singleton" None
       gn.Serve.Coalesce.key;
     Alcotest.(check (list int)) "singleton member" [ 4 ]
       (List.map snd gn.Serve.Coalesce.items)
   | _ -> Alcotest.fail "unexpected grouping");
  Alcotest.(check int) "saved = duplicates removed" 3
    (Serve.Coalesce.saved groups);
  Alcotest.(check int) "no items, no groups" 0
    (List.length (Serve.Coalesce.group_by key []))

(* ------------------------------------------------------------- dispatch *)

let request line =
  match P.decode_request line with
  | Ok r -> r
  | Error e -> Alcotest.failf "fixture request rejected: %s" e.P.message

let atpg_s27_line ?id () =
  let id_field =
    match id with None -> [] | Some i -> [ ("id", J.String i) ]
  in
  J.to_string
    (J.Obj
       (id_field
       @ [
           ("verb", J.String "atpg");
           ("circuit", J.Obj [ ("blif", J.String (s27_blif ())) ]);
         ]))

let test_plan_keys_and_run () =
  with_store (fun () ->
      let plan line =
        match Serve.Dispatch.plan (request line) with
        | Ok p -> p
        | Error e -> Alcotest.failf "plan failed: %s" e.P.message
      in
      let p1 = plan (atpg_s27_line ()) in
      let p2 = plan (atpg_s27_line ()) in
      Alcotest.(check bool) "identical requests share the coalescing key" true
        (p1.Serve.Dispatch.key = p2.Serve.Dispatch.key
        && p1.Serve.Dispatch.key <> None);
      match p1.Serve.Dispatch.run () with
      | Error e -> Alcotest.failf "run failed: %s" e.P.message
      | Ok fields ->
        let j = J.Obj fields in
        Alcotest.(check bool) "has a manifest id" true
          (match J.member "manifest" j with
           | Some (J.String m) -> String.length m > 0
           | _ -> false);
        Alcotest.(check bool) "first run is a miss" true
          (J.member "cache" j = Some (J.String "miss"));
        (* the result went through Core.Cache, so a rerun is a hit *)
        (match p2.Serve.Dispatch.run () with
         | Ok fields2 ->
           Alcotest.(check bool) "second run is a hit" true
             (J.member "cache" (J.Obj fields2) = Some (J.String "hit"));
           Alcotest.(check bool) "manifest ids agree" true
             (J.member "manifest" (J.Obj fields2) = J.member "manifest" j)
         | Error e -> Alcotest.failf "rerun failed: %s" e.P.message))

let test_plan_hash_reference () =
  let c = s27 () in
  let hash = Serve.Circuits.register ~name:"s27" c in
  let line =
    J.to_string
      (J.Obj
         [
           ("verb", J.String "lint");
           ("circuit", J.Obj [ ("hash", J.String hash) ]);
         ])
  in
  (match Serve.Dispatch.plan (request line) with
   | Ok p ->
     (match p.Serve.Dispatch.run () with
      | Ok fields ->
        Alcotest.(check bool) "hash reference resolves" true
          (J.member "circuit_hash" (J.Obj fields) = Some (J.String hash))
      | Error e -> Alcotest.failf "lint run failed: %s" e.P.message)
   | Error e -> Alcotest.failf "lint plan failed: %s" e.P.message);
  let missing =
    J.to_string
      (J.Obj
         [
           ("verb", J.String "lint");
           ("circuit", J.Obj [ ("hash", J.String "feedfacefeedface") ]);
         ])
  in
  match Serve.Dispatch.plan (request missing) with
  | Error e ->
    Alcotest.(check string) "unknown hash is not_found" "not_found"
      (P.error_code_name e.P.code)
  | Ok _ -> Alcotest.fail "unknown hash must not plan"

let test_plan_validation () =
  let expect_bad line =
    match Serve.Dispatch.plan (request line) with
    | Error e -> P.error_code_name e.P.code
    | Ok _ -> "ok"
  in
  Alcotest.(check string) "unknown config field" "bad_request"
    (expect_bad
       {|{"verb":"atpg","circuit":{"bench":"dk16"},"config":{"frob":1}}|});
  Alcotest.(check string) "bad engine" "bad_request"
    (expect_bad
       {|{"verb":"atpg","circuit":{"bench":"dk16"},"config":{"engine":"x"}}|});
  Alcotest.(check string) "bad budget" "bad_request"
    (expect_bad
       {|{"verb":"atpg","circuit":{"bench":"dk16"},"config":{"budget":-1}}|});
  Alcotest.(check string) "tables rejects a circuit" "bad_request"
    (expect_bad {|{"verb":"tables","circuit":{"bench":"dk16"}}|});
  Alcotest.(check string) "atpg needs a circuit" "bad_request"
    (expect_bad {|{"verb":"atpg"}|});
  Alcotest.(check string) "bad blif is rejected at plan time" "bad_request"
    (expect_bad {|{"verb":"atpg","circuit":{"blif":".model x\nnope\n"}}|})

let test_stats_fields () =
  let j = J.Obj (Serve.Dispatch.stats_fields ()) in
  Alcotest.(check bool) "has serve counters" true
    (match J.member "serve" j with Some (J.Obj _) -> true | _ -> false);
  Alcotest.(check bool) "has cache counters" true
    (match J.member "cache" j with Some (J.Obj _) -> true | _ -> false);
  Alcotest.(check bool) "reports pool width" true
    (match J.member "jobs" j with Some (J.Int n) -> n >= 1 | _ -> false)

(* ---------------------------------------------- CLI/daemon key agreement *)

(* Run [f] with [var] set to [value] ("" counts as unset for every
   SATPG_* variable), restoring the previous value afterwards. *)
let with_env var value f =
  let saved = Option.value ~default:"" (Sys.getenv_opt var) in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var saved) f

let s27_request verb config =
  J.to_string
    (J.Obj
       [
         ("verb", J.String verb);
         ("circuit", J.Obj [ ("blif", J.String (s27_blif ())) ]);
         ("config", J.Obj config);
       ])

(* Plan and run [line] against a fresh store, then check the three
   agreements that let a served run and a CLI run share store records:
   the coalescing key minus [prefix] is the key Core.Cache stored the
   record under, the response's config_fp is field [fp_field] of that
   key, and it equals [cli_fp], the fingerprint the CLI derives for the
   same flags.  Returns the response's config_fp. *)
let check_agreement ~what ~prefix ~kind ~fp_field ~cli_fp line =
  with_store @@ fun () ->
  let p =
    match Serve.Dispatch.plan (request line) with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: plan failed: %s" what e.P.message
  in
  let store_key =
    match p.Serve.Dispatch.key with
    | Some k when String.starts_with ~prefix k ->
      let n = String.length prefix in
      String.sub k n (String.length k - n)
    | Some k -> Alcotest.failf "%s: key %S lacks the %S prefix" what k prefix
    | None -> Alcotest.failf "%s: no coalescing key" what
  in
  let fields =
    match p.Serve.Dispatch.run () with
    | Ok fields -> fields
    | Error e -> Alcotest.failf "%s: run failed: %s" what e.P.message
  in
  (match Store.Disk.load kind ~key:store_key with
   | Store.Disk.Found _ -> ()
   | Store.Disk.Absent | Store.Disk.Corrupt _ ->
     Alcotest.failf "%s: no store record under the plan key %s" what store_key);
  let fp =
    match Option.bind (J.member "config_fp" (J.Obj fields)) J.to_string_opt with
    | Some fp -> fp
    | None -> Alcotest.failf "%s: response has no config_fp" what
  in
  Alcotest.(check string)
    (what ^ ": config_fp is the key's fingerprint")
    (List.nth (String.split_on_char '-' store_key) fp_field)
    fp;
  Alcotest.(check string) (what ^ ": CLI recipe gives the same fingerprint")
    cli_fp fp;
  fp

let test_atpg_key_agreement () =
  let opt f = function None -> "absent" | Some v -> f v in
  let combos =
    List.concat_map
      (fun engine ->
        List.concat_map
          (fun learn ->
            List.concat_map
              (fun budget ->
                List.map (fun prove -> (engine, learn, budget, prove))
                  [ false; true ])
              [ None; Some 0.05 ])
          [ None; Some true; Some false ])
      Core.Cache.atpg_kinds
  in
  with_env "SATPG_LEARN" "" @@ fun () ->
  with_env "SATPG_BUDGET" "" @@ fun () ->
  let attest_fps = Hashtbl.create 4 in
  List.iter
    (fun ((engine, kind), learn, budget, prove) ->
      let what =
        Printf.sprintf "atpg %s learn=%s budget=%s prove=%b" engine
          (opt string_of_bool learn)
          (opt (Printf.sprintf "%g") budget)
          prove
      in
      let config =
        [ ("engine", J.String engine); ("prove_untestable", J.Bool prove) ]
        @ (match learn with None -> [] | Some b -> [ ("learn", J.Bool b) ])
        @ match budget with None -> [] | Some f -> [ ("budget", J.Float f) ]
      in
      (* the CLI takes the budget from SATPG_BUDGET and has only --learn,
         whose absence means off while SATPG_LEARN is unset *)
      let cli_fp =
        with_env "SATPG_BUDGET"
          (Option.fold ~none:"" ~some:(Printf.sprintf "%g") budget)
          (fun () ->
            Store.Key.config_fingerprint
              (Core.Cache.atpg_config kind ~budget:None
                 ~learn:(if learn = Some true then Some true else None)))
      in
      let fp =
        check_agreement ~what ~prefix:"atpg:" ~kind:Store.Disk.Atpg
          ~fp_field:2 ~cli_fp
          (s27_request "atpg" config)
      in
      if kind = Core.Cache.Attest then Hashtbl.add attest_fps budget fp)
    combos;
  (* attest ignores learning, so learn must not fork its fingerprint *)
  List.iter
    (fun budget ->
      Alcotest.(check int) "attest: one fingerprint per budget" 1
        (List.length
           (List.sort_uniq compare (Hashtbl.find_all attest_fps budget))))
    [ None; Some 0.05 ]

let test_classify_key_agreement () =
  List.iter
    (fun (symbolic, product) ->
      ignore
        (check_agreement
           ~what:
             (Printf.sprintf "classify symbolic=%b product=%b" symbolic
                product)
           ~prefix:"classify:" ~kind:Store.Disk.Classify ~fp_field:1
           ~cli_fp:
             (Core.Cache.classify_fingerprint ~symbolic ~product
                Core.Cache.Collapsed)
           (s27_request "classify"
              [ ("symbolic", J.Bool symbolic); ("product", J.Bool product) ])
          : string))
    [ (true, false); (true, true); (false, false); (false, true) ]

let test_reach_key_agreement () =
  List.iter
    (fun (mode, prefix, kind, cli_fp) ->
      ignore
        (check_agreement ~what:("reach " ^ mode) ~prefix ~kind ~fp_field:1
           ~cli_fp
           (s27_request "reach" [ ("mode", J.String mode) ])
          : string))
    [
      ("explicit", "reach:", Store.Disk.Reach, Core.Cache.reach_fingerprint);
      ( "symbolic", "symreach:", Store.Disk.Symreach,
        Core.Cache.symreach_fingerprint );
    ]

(* Both entry points read Core.Report.tables: the daemon answers an
   unknown name with its bad_request text, the CLI with a usage error. *)
let test_unknown_table_rejected () =
  (match
     Serve.Dispatch.plan
       (request {|{"verb":"tables","config":{"table":"nine"}}|})
   with
   | Error e ->
     Alcotest.(check string) "daemon code" "bad_request"
       (P.error_code_name e.P.code);
     Alcotest.(check string) "daemon message"
       {|config.table must be 1-8, fig3, shape or all, got "nine"|}
       e.P.message
   | Ok _ -> Alcotest.fail "daemon planned an unknown table");
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process "../bin/satpg.exe"
          [| "satpg"; "tables"; "nine" |]
          Unix.stdin null null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code ->
    Alcotest.(check int) "CLI exits with a usage error" 124 code
  | _ -> Alcotest.fail "satpg tables nine did not exit normally"

(* -------------------------------------------------------- s27 ingestion *)

let test_s27_ingest () =
  let c = s27 () in
  Alcotest.(check int) "PIs" 4 (Netlist.Node.num_pis c);
  Alcotest.(check int) "POs" 1 (Netlist.Node.num_pos c);
  Alcotest.(check int) "DFFs" 3 (Netlist.Node.num_dffs c);
  (* the exact structural codec used for hash-keyed persistence must
     reproduce the circuit hash-for-hash *)
  let hash = Netlist.Structhash.circuit c in
  (match Store.Codec.circuit_of_json (Store.Codec.circuit_to_json c) with
   | Some c' ->
     Alcotest.(check string) "codec round-trip keeps the hash" hash
       (Netlist.Structhash.circuit c')
   | None -> Alcotest.fail "circuit codec round-trip failed");
  let faults = Fsim.Collapse.list c in
  Alcotest.(check bool) "collapsed fault list is non-trivial" true
    (Array.length faults > 10);
  let rng = Random.State.make [| 27; 89 |] in
  let vectors =
    Sim.Vectors.random_sequence rng ~width:(Netlist.Node.num_pis c)
      ~length:256
  in
  let r = Fsim.Engine.simulate c faults vectors in
  let detected =
    Array.fold_left (fun a d -> if d then a + 1 else a) 0 r.Fsim.Engine.detected
  in
  Alcotest.(check bool) "random vectors detect most s27 faults" true
    (Fsim.Engine.coverage ~detected ~total:(Array.length faults) > 50.0)

(* ---------------------------------------------------------- live server *)

let temp_sock () =
  let f = Filename.temp_file "satpg-serve-test" ".sock" in
  Sys.remove f;
  f

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send (_, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv (ic, _) = J.parse (input_line ic)

let rpc conn line =
  send conn line;
  recv conn

let close_conn (ic, _) = close_in_noerr ic

let ok j = J.member "ok" j = Some (J.Bool true)

let str name j = Option.bind (J.member name j) J.to_string_opt

let err_code j =
  Option.bind
    (Option.bind (J.member "error" j) (J.member "code"))
    J.to_string_opt

let has_sub body sub =
  let n = String.length body and m = String.length sub in
  let rec go i = i + m <= n && (String.sub body i m = sub || go (i + 1)) in
  go 0

let with_server ?(queue_depth = 64) ?(batch_max = 32) f =
  let path = temp_sock () in
  let t =
    Serve.Server.start
      { Serve.Server.port = None; unix_path = Some path; queue_depth; batch_max }
  in
  Fun.protect
    ~finally:(fun () ->
      (* stop and wait are idempotent, so tests that already shut the
         server down cleanly are not disturbed *)
      Serve.Server.stop t;
      Serve.Server.wait t;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path t)

let test_server_end_to_end () =
  with_store (fun () ->
      with_server (fun path _t ->
          let conn = connect path in
          (* structured errors, connection stays usable afterwards *)
          Alcotest.(check (option string)) "malformed line answered"
            (Some "parse_error")
            (err_code (rpc conn "{{{"));
          Alcotest.(check (option string)) "unknown verb answered"
            (Some "bad_request")
            (err_code (rpc conn {|{"verb":"nope"}|}));
          (* stats bypasses the queue *)
          let st = rpc conn {|{"id":"s","verb":"stats"}|} in
          Alcotest.(check bool) "stats ok" true (ok st);
          Alcotest.(check (option string)) "stats echoes the id" (Some "s")
            (str "id" st);
          (* compute: miss then hit, one manifest *)
          let r1 = rpc conn (atpg_s27_line ()) in
          Alcotest.(check bool) "atpg ok" true (ok r1);
          Alcotest.(check (option string)) "first is a miss" (Some "miss")
            (str "cache" r1);
          let r2 = rpc conn (atpg_s27_line ()) in
          Alcotest.(check (option string)) "repeat is a hit" (Some "hit")
            (str "cache" r2);
          Alcotest.(check bool) "manifests agree" true
            (str "manifest" r1 = str "manifest" r2
            && str "manifest" r1 <> None);
          (* HTTP endpoints on fresh connections *)
          let http = connect path in
          send http "GET /healthz HTTP/1.1\r";
          send http "\r";
          let first = input_line (fst http) in
          Alcotest.(check bool) "healthz 200" true
            (String.length first >= 12 && String.sub first 9 3 = "200");
          close_conn http;
          let http = connect path in
          send http "GET /metrics HTTP/1.1\r";
          send http "\r";
          let body = In_channel.input_all (fst http) in
          Alcotest.(check bool) "metrics render prometheus text" true
            (has_sub body "# TYPE satpg_"
            && has_sub body "satpg_serve_requests_total");
          close_conn http;
          close_conn conn))

let test_server_shutdown_verb () =
  with_server (fun path t ->
      let conn = connect path in
      let r = rpc conn {|{"id":"bye","verb":"shutdown"}|} in
      Alcotest.(check bool) "shutdown acknowledged" true (ok r);
      (* the whole server must join without further prompting *)
      Serve.Server.wait t;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
      close_conn conn)

(* Deterministic overload: one slow fsim occupies the dispatcher, the
   next request fills the depth-1 queue, and the one after that must be
   rejected with a structured overloaded error.  No timing windows: the
   stats poll proves the jam is being executed (in_flight >= 1) before A
   and B are pushed in order on one connection. *)
let test_overload_depth1 () =
  with_store (fun () ->
      with_server ~queue_depth:1 ~batch_max:1 (fun path _t ->
          let conn = connect path in
          let jam =
            J.to_string
              (J.Obj
                 [
                   ("id", J.String "jam");
                   ("verb", J.String "fsim");
                   ("circuit", J.Obj [ ("blif", J.String (jam_blif 60)) ]);
                   ( "config",
                     J.Obj [ ("vectors", J.Int 150_000); ("seed", J.Int 9) ] );
                 ])
          in
          send conn jam;
          (* wait until the dispatcher is provably inside the jam batch;
             stats answers from the I/O domain even while the dispatcher
             domain is compute-bound (the starvation regression) *)
          let deadline = Unix.gettimeofday () +. 30.0 in
          let rec wait_busy () =
            let st = rpc conn {|{"verb":"stats"}|} in
            match J.member "in_flight" st with
            | Some (J.Int n) when n >= 1 -> true
            | _ ->
              if Unix.gettimeofday () > deadline then false
              else begin
                Unix.sleepf 0.01;
                wait_busy ()
              end
          in
          Alcotest.(check bool) "dispatcher picked up the jam" true
            (wait_busy ());
          send conn (atpg_s27_line ~id:"A" ());
          (* A now occupies the whole depth-1 queue; B must bounce *)
          send conn (atpg_s27_line ~id:"B" ());
          let b_reply = recv conn in
          Alcotest.(check (option string)) "B rejected immediately" (Some "B")
            (str "id" b_reply);
          Alcotest.(check (option string))
            "with a structured overloaded error" (Some "overloaded")
            (err_code b_reply);
          (* the jam and the admitted request still complete, in order *)
          let jam_reply = recv conn in
          Alcotest.(check (option string)) "jam finishes" (Some "jam")
            (str "id" jam_reply);
          Alcotest.(check bool) "jam ok" true (ok jam_reply);
          let a_reply = recv conn in
          Alcotest.(check (option string)) "admitted request answered"
            (Some "A") (str "id" a_reply);
          Alcotest.(check bool) "admitted request ok" true (ok a_reply);
          close_conn conn))

let suite =
  [
    Alcotest.test_case "decode errors" `Quick test_decode_errors;
    Alcotest.test_case "decode ok" `Quick test_decode_ok;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    QCheck_alcotest.to_alcotest test_decode_total;
    Alcotest.test_case "bounded queue" `Quick test_bqueue_bounds;
    Alcotest.test_case "coalesce groups" `Quick test_coalesce_groups;
    Alcotest.test_case "plan keys and run" `Quick test_plan_keys_and_run;
    Alcotest.test_case "hash reference" `Quick test_plan_hash_reference;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "stats fields" `Quick test_stats_fields;
    Alcotest.test_case "atpg key agreement" `Quick test_atpg_key_agreement;
    Alcotest.test_case "classify key agreement" `Quick
      test_classify_key_agreement;
    Alcotest.test_case "reach key agreement" `Quick test_reach_key_agreement;
    Alcotest.test_case "unknown table rejected" `Quick
      test_unknown_table_rejected;
    Alcotest.test_case "s27 ingest" `Quick test_s27_ingest;
    Alcotest.test_case "server end to end" `Quick test_server_end_to_end;
    Alcotest.test_case "shutdown verb" `Quick test_server_shutdown_verb;
    Alcotest.test_case "overload depth-1" `Quick test_overload_depth1;
  ]
