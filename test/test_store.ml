(* Content-addressed result store: structural hashing, cache keys, JSON
   codecs, the on-disk layer and the Core.Cache integration (including the
   name-aliasing regression the content keys exist to prevent). *)

(* ------------------------------------------------------------- fixtures *)

(* Helpers.toy_circuit rebuilt with every node renamed and the independent
   gates created in a different order — structurally the same machine. *)
let toy_renamed () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "in_a" in
  let bi = Netlist.Build.add_pi b "in_b" in
  let q0 = Netlist.Build.add_dff b "r0" in
  let q1 = Netlist.Build.add_dff b "r1" in
  (* n3 before n0/n1/n2: creation order must not matter *)
  let n3 = Netlist.Build.add_gate b Netlist.Node.Xor "g_out" [| q0; q1 |] in
  let n0 = Netlist.Build.add_gate b Netlist.Node.And "g_and" [| a; q1 |] in
  let n1 = Netlist.Build.add_gate b Netlist.Node.Not "g_not" [| q0 |] in
  let n2 = Netlist.Build.add_gate b Netlist.Node.Or "g_or" [| n1; bi |] in
  Netlist.Build.connect_dff b q0 n0;
  Netlist.Build.connect_dff b q1 n2;
  Netlist.Build.add_po b "zz" n3;
  Netlist.Build.finalize b

(* toy_circuit with one structural edit, selected by [tweak]. *)
let toy_tweaked tweak =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let bi = Netlist.Build.add_pi b "b" in
  let q0 =
    Netlist.Build.add_dff b ~init:(tweak = `Dff_init) "q0"
  in
  let q1 = Netlist.Build.add_dff b "q1" in
  let or_fn = if tweak = `Gate_fn then Netlist.Node.Nor else Netlist.Node.Or in
  let n0 = Netlist.Build.add_gate b Netlist.Node.And "n0" [| a; q1 |] in
  let n1 = Netlist.Build.add_gate b Netlist.Node.Not "n1" [| q0 |] in
  let n2 = Netlist.Build.add_gate b or_fn "n2" [| n1; bi |] in
  let n3 = Netlist.Build.add_gate b Netlist.Node.Xor "n3" [| q0; q1 |] in
  Netlist.Build.connect_dff b q0 n0;
  Netlist.Build.connect_dff b q1 n2;
  (if tweak = `Extra_dff then begin
     let q2 = Netlist.Build.add_dff b "q2" in
     Netlist.Build.connect_dff b q2 n3
   end);
  Netlist.Build.add_po b "out" n3;
  Netlist.Build.finalize b

(* Run [f] against a fresh temporary store directory, with the memory
   layer emptied; restores SATPG_STORE and cleans the directory after. *)
let with_store f =
  let dir = Filename.temp_file "satpg-test-store" "" in
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
    (fun () -> f dir)

let check_sorted_tbl msg expected actual =
  let keys t = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) t []) in
  Alcotest.(check bool) msg true (keys expected = keys actual)

(* ------------------------------------------------------ structural hash *)

let test_hash_ignores_names () =
  Alcotest.(check string) "renaming and reordering preserve the hash"
    (Netlist.Structhash.circuit (Helpers.toy_circuit ()))
    (Netlist.Structhash.circuit (toy_renamed ()))

let test_hash_sees_structure () =
  let base = Netlist.Structhash.circuit (Helpers.toy_circuit ()) in
  Alcotest.(check string) "no tweak = same hash" base
    (Netlist.Structhash.circuit (toy_tweaked `None));
  List.iter
    (fun (what, tweak) ->
      Alcotest.(check bool) (what ^ " changes the hash") true
        (Netlist.Structhash.circuit (toy_tweaked tweak) <> base))
    [ ("gate function", `Gate_fn); ("DFF init", `Dff_init);
      ("extra DFF", `Extra_dff) ]

let test_config_fingerprint () =
  let base = Atpg.Types.default_config in
  let fp = Store.Key.config_fingerprint in
  Alcotest.(check string) "deterministic" (fp base) (fp base);
  Alcotest.(check bool) "budget change refreshes" true
    (fp { base with Atpg.Types.backtrack_limit = 7 } <> fp base);
  Alcotest.(check bool) "flag change refreshes" true
    (fp { base with Atpg.Types.learn = true } <> fp base)

let test_learn_flag_never_aliases () =
  (* regression: before PR 9 the fingerprint ignored [struct_learn], so a
     learn-on run could serve a learn-off request from the store (and
     vice versa) — silently, because everything else matches *)
  let base = Atpg.Types.default_config in
  let on = { base with Atpg.Types.struct_learn = true } in
  let fp = Store.Key.config_fingerprint in
  Alcotest.(check bool) "fingerprint split" true (fp on <> fp base);
  let h = Netlist.Structhash.circuit (Helpers.toy_circuit ()) in
  Alcotest.(check bool) "store keys split" true
    (Store.Key.atpg ~engine:"hitec" ~config:on ~circuit_hash:h ()
     <> Store.Key.atpg ~engine:"hitec" ~config:base ~circuit_hash:h ());
  (* the two learning flags must not collapse into one hash bit *)
  Alcotest.(check bool) "learn vs struct_learn split" true
    (fp on <> fp { base with Atpg.Types.learn = true })

let test_codec_learn_counters () =
  let r = Atpg.Run.generate (Helpers.toy_circuit ()) in
  r.Atpg.Types.stats.Atpg.Types.learn_conflicts <- 3;
  r.Atpg.Types.stats.Atpg.Types.learn_clauses <- 2;
  r.Atpg.Types.stats.Atpg.Types.learn_literals <- 7;
  r.Atpg.Types.stats.Atpg.Types.learn_hits <- 11;
  r.Atpg.Types.stats.Atpg.Types.learn_cube_hits <- 5;
  let j = Store.Codec.atpg_result_to_json r in
  (match Store.Codec.atpg_result_of_json j with
   | None -> Alcotest.fail "decode failed"
   | Some d ->
     let s = d.Atpg.Types.stats in
     Alcotest.(check int) "conflicts" 3 s.Atpg.Types.learn_conflicts;
     Alcotest.(check int) "clauses" 2 s.Atpg.Types.learn_clauses;
     Alcotest.(check int) "literals" 7 s.Atpg.Types.learn_literals;
     Alcotest.(check int) "hits" 11 s.Atpg.Types.learn_hits;
     Alcotest.(check int) "cube hits" 5 s.Atpg.Types.learn_cube_hits);
  (* a record written before the fields existed — simulated by stripping
     them from the JSON — must decode to zeroed counters, not fail *)
  let rec strip = function
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if String.length k >= 6 && String.sub k 0 6 = "learn_" then None
             else Some (k, strip v))
           fields)
    | Obs.Json.List l -> Obs.Json.List (List.map strip l)
    | v -> v
  in
  match Store.Codec.atpg_result_of_json (strip j) with
  | None -> Alcotest.fail "pre-PR-9 record must still decode"
  | Some d ->
    Alcotest.(check int) "absent fields read as zero" 0
      d.Atpg.Types.stats.Atpg.Types.learn_hits

let test_keys_exclude_names () =
  let h = Netlist.Structhash.circuit (Helpers.toy_circuit ()) in
  let k = Store.Key.atpg ~engine:"hitec" ~config:Atpg.Types.default_config
      ~circuit_hash:h ()
  in
  (* same circuit, any display name: the key cannot differ by name
     because no name is even accepted *)
  Alcotest.(check bool) "engine enters the key" true
    (k <> Store.Key.atpg ~engine:"sest" ~config:Atpg.Types.default_config
            ~circuit_hash:h ());
  Alcotest.(check bool) "prune fingerprint enters the key" true
    (k <> Store.Key.atpg ~engine:"hitec" ~config:Atpg.Types.default_config
            ~classify:"abc" ~circuit_hash:h ());
  Alcotest.(check bool) "reach and structural keys differ" true
    (Store.Key.reach ~max_states:10 ~circuit_hash:h
     <> Store.Key.structural ~depth_budget:10 ~cycle_budget:10
          ~circuit_hash:h)

(* The classify fingerprint carries the cascade version: records written
   under version 1, before the random-simulation prefilter fronted the
   C3 stage and changed the recorded work, must miss rather than alias.
   The literal is the version-1 fingerprint of the default collapsed
   classification. *)
let test_classify_version_splits_v1 () =
  let fp =
    Store.Key.classify_fingerprint ~symbolic:true
      ~max_nodes:Analysis.Symreach.default_max_nodes ~product:false
      ~universe:"collapsed"
  in
  Alcotest.(check bool) "differs from the v1 fingerprint" true
    (fp <> "63fc120b57feff41")

(* ---------------------------------------------------------- JSON codecs *)

let test_codec_atpg_roundtrip () =
  let r = Atpg.Run.generate (Helpers.toy_circuit ()) in
  match Store.Codec.atpg_result_of_json (Store.Codec.atpg_result_to_json r) with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
    Alcotest.(check bool) "faults" true (d.Atpg.Types.faults = r.Atpg.Types.faults);
    Alcotest.(check bool) "statuses" true
      (d.Atpg.Types.status = r.Atpg.Types.status);
    Alcotest.(check bool) "test sets" true
      (d.Atpg.Types.test_sets = r.Atpg.Types.test_sets);
    Alcotest.(check (float 1e-9)) "coverage" r.Atpg.Types.fault_coverage
      d.Atpg.Types.fault_coverage;
    Alcotest.(check bool) "trajectory" true
      (d.Atpg.Types.trajectory = r.Atpg.Types.trajectory);
    Alcotest.(check int) "work" r.Atpg.Types.stats.Atpg.Types.work
      d.Atpg.Types.stats.Atpg.Types.work;
    check_sorted_tbl "states" r.Atpg.Types.stats.Atpg.Types.states
      d.Atpg.Types.stats.Atpg.Types.states;
    check_sorted_tbl "state cubes" r.Atpg.Types.stats.Atpg.Types.state_cubes
      d.Atpg.Types.stats.Atpg.Types.state_cubes

let test_codec_reach_roundtrip () =
  let r = Analysis.Reach.explore (Helpers.toy_circuit ()) in
  match
    Store.Codec.reach_result_of_json (Store.Codec.reach_result_to_json r)
  with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
    Alcotest.(check int) "valid" r.Analysis.Reach.valid_states
      d.Analysis.Reach.valid_states;
    Alcotest.(check int) "bits" r.Analysis.Reach.total_bits
      d.Analysis.Reach.total_bits;
    Alcotest.(check int) "initial" r.Analysis.Reach.initial
      d.Analysis.Reach.initial;
    check_sorted_tbl "state set" r.Analysis.Reach.states
      d.Analysis.Reach.states

let test_codec_untest_roundtrip () =
  (* cover the whole verdict enum space, not just what one circuit's
     classification happens to produce *)
  let causes =
    [ Analysis.Untest.Unobservable; Analysis.Untest.Unexcitable;
      Analysis.Untest.Effect_confined; Analysis.Untest.Unreachable_activation;
      Analysis.Untest.Machine_equivalent ]
  in
  let evidences =
    [ Analysis.Untest.Structural; Analysis.Untest.Ternary;
      Analysis.Untest.Symbolic ]
  in
  let verdicts =
    Analysis.Untest.Unknown
    :: List.concat_map
         (fun cause ->
           List.map
             (fun evidence ->
               Analysis.Untest.Untestable { cause; evidence })
             evidences)
         causes
  in
  let faults =
    Array.of_list
      (List.mapi
         (fun i _ -> { Fsim.Fault.site = Fsim.Fault.Stem i; stuck = i mod 2 = 0 })
         verdicts)
  in
  let t =
    Analysis.Untest.v ~faults
      ~verdicts:(Array.of_list verdicts)
      ~summary:
        {
          Analysis.Untest.total = Array.length faults;
          proved = Array.length faults - 1;
          structural = 5;
          ternary = 5;
          symbolic = 5;
          symbolic_ran = true;
          bdd_nodes = 123;
          work = 456;
        }
  in
  match Store.Codec.untest_of_json (Store.Codec.untest_to_json t) with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
    Alcotest.(check bool) "faults" true
      (d.Analysis.Untest.faults = t.Analysis.Untest.faults);
    Alcotest.(check bool) "verdicts" true
      (d.Analysis.Untest.verdicts = t.Analysis.Untest.verdicts);
    Alcotest.(check bool) "summary" true
      (d.Analysis.Untest.summary = t.Analysis.Untest.summary)

let test_codec_symreach_roundtrip () =
  let s =
    (Analysis.Symreach.explore (Helpers.toy_circuit ()))
      .Analysis.Symreach.summary
  in
  Alcotest.(check bool) "identical record" true
    (Store.Codec.symreach_summary_of_json
       (Store.Codec.symreach_summary_to_json s)
     = Some s);
  (* a count past integer range round-trips through the float field *)
  let wide =
    {
      s with
      Analysis.Symreach.total_bits = 65;
      valid_states = ldexp 1.0 65;
      valid_states_int = None;
    }
  in
  Alcotest.(check bool) "past-integer-range record" true
    (Store.Codec.symreach_summary_of_json
       (Store.Codec.symreach_summary_to_json wide)
     = Some wide);
  (* an older encoder's per-addition-rounded float can sit an ulp away
     from [float_of_int] of the exact count; the decoder must accept the
     record and normalize to the int-derived value, not report corruption *)
  let i = (1 lsl 60) + 1 in
  let drifted =
    {
      s with
      Analysis.Symreach.total_bits = 60;
      valid_states = ldexp 1.0 60 +. 256.0 (* one ulp above float_of_int i *);
      valid_states_int = Some i;
    }
  in
  (match
     Store.Codec.symreach_summary_of_json
       (Store.Codec.symreach_summary_to_json drifted)
   with
  | None -> Alcotest.fail "ulp-drifted record rejected as corrupt"
  | Some d ->
    Alcotest.(check (float 0.0))
      "normalized to the exact count" (float_of_int i)
      d.Analysis.Symreach.valid_states)

let test_codec_symreach_rejects_garbage () =
  let open Obs.Json in
  Alcotest.(check bool) "empty object" true
    (Store.Codec.symreach_summary_of_json (Obj []) = None);
  Alcotest.(check bool) "not an object" true
    (Store.Codec.symreach_summary_of_json (String "nope") = None);
  (* well-shaped but internally inconsistent: the integer count must
     agree with the float count *)
  let s =
    (Analysis.Symreach.explore (Helpers.toy_circuit ()))
      .Analysis.Symreach.summary
  in
  let mangled =
    match Store.Codec.symreach_summary_to_json s with
    | Obj fields ->
      Obj
        (Stdlib.List.map
           (function
             | "valid_states_int", Int i -> ("valid_states_int", Int (i + 1))
             | f -> f)
           fields)
    | _ -> Alcotest.fail "unexpected encoding"
  in
  Alcotest.(check bool) "count mismatch" true
    (Store.Codec.symreach_summary_of_json mangled = None)

let test_codec_structural_roundtrip () =
  let r = Analysis.Structural.analyze (Helpers.toy_circuit ()) in
  Alcotest.(check bool) "identical record" true
    (Store.Codec.structural_result_of_json
       (Store.Codec.structural_result_to_json r)
     = Some r)

let test_codec_rejects_garbage () =
  let open Obs.Json in
  Alcotest.(check bool) "empty object" true
    (Store.Codec.atpg_result_of_json (Obj []) = None);
  Alcotest.(check bool) "not an object" true
    (Store.Codec.reach_result_of_json (String "nope") = None);
  (* well-shaped but internally inconsistent: unknown status enum *)
  let r = Atpg.Run.generate (Helpers.toy_circuit ()) in
  let mangled =
    match Store.Codec.atpg_result_to_json r with
    | Obj fields ->
      Obj
        (Stdlib.List.map
           (function
             | "status", List (_ :: rest) ->
               ("status", List (String "bogus" :: rest))
             | f -> f)
           fields)
    | _ -> Alcotest.fail "unexpected encoding"
  in
  Alcotest.(check bool) "unknown enum" true
    (Store.Codec.atpg_result_of_json mangled = None)

let test_codec_manifest_roundtrip () =
  let m =
    Obs.Ledger.make ~tool:"satpg" ~command:"atpg" ~circuit:"toy"
      ~circuit_hash:"cafe" ~config_fp:"beef" ~engine:"hitec" ~jobs:1
      ~budget:"" ~work_units:42 ~metrics:Obs.Json.Null
      ~spans:[ ("atpg.fault", 3, 40) ]
      ~event_lines:[ {|{"ev":"fault"}|} ]
      ()
  in
  match Store.Codec.manifest_of_json (Store.Codec.manifest_to_json m) with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
    Alcotest.(check string) "id survives" (Obs.Ledger.id m) (Obs.Ledger.id d);
    Alcotest.(check string) "identical bytes" (Obs.Ledger.to_string m)
      (Obs.Ledger.to_string d)

(* ------------------------------------------------------------ disk layer *)

let test_disk_disabled () =
  let saved = Sys.getenv_opt Store.Disk.env_var in
  Unix.putenv Store.Disk.env_var "";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Store.Disk.env_var
        (match saved with Some v -> v | None -> ""))
    (fun () ->
      Alcotest.(check bool) "disabled" false (Store.Disk.enabled ());
      Alcotest.(check bool) "save is a no-op" false
        (Store.Disk.save Store.Disk.Reach ~key:"k" ~name:"n"
           (Obs.Json.Int 1));
      Alcotest.(check bool) "load is absent" true
        (Store.Disk.load Store.Disk.Reach ~key:"k" = Store.Disk.Absent))

let test_disk_roundtrip () =
  with_store (fun _dir ->
      (* a decodable payload, so the deep verify below passes *)
      let payload =
        Store.Codec.reach_result_to_json
          (Analysis.Reach.explore (Helpers.toy_circuit ()))
      in
      Alcotest.(check bool) "written" true
        (Store.Disk.save Store.Disk.Reach ~key:"cafe" ~name:"toy" payload);
      (match Store.Disk.load Store.Disk.Reach ~key:"cafe" with
       | Store.Disk.Found p ->
         Alcotest.(check string) "payload survives"
           (Obs.Json.to_string payload) (Obs.Json.to_string p)
       | _ -> Alcotest.fail "expected Found");
      Alcotest.(check bool) "other key absent" true
        (Store.Disk.load Store.Disk.Reach ~key:"beef" = Store.Disk.Absent);
      Alcotest.(check bool) "other kind absent" true
        (Store.Disk.load Store.Disk.Atpg ~key:"cafe" = Store.Disk.Absent);
      let entries = Store.Disk.entries () in
      Alcotest.(check int) "one record" 1 (List.length entries);
      List.iter
        (fun (_, check) ->
          Alcotest.(check bool) "verifies" true (check = Ok ()))
        (Store.Disk.verify ());
      Alcotest.(check int) "clear removes it" 1 (Store.Disk.clear ());
      Alcotest.(check int) "empty after clear" 0
        (List.length (Store.Disk.entries ())))

let test_disk_corrupt_record () =
  with_store (fun _dir ->
      ignore
        (Store.Disk.save Store.Disk.Reach ~key:"cafe" ~name:"toy"
           (Obs.Json.Int 1));
      let entry = List.hd (Store.Disk.entries ()) in
      let oc = open_out entry.Store.Disk.path in
      output_string oc "{\"satpg_store\": tru";
      close_out oc;
      (match Store.Disk.load Store.Disk.Reach ~key:"cafe" with
       | Store.Disk.Corrupt _ -> ()
       | _ -> Alcotest.fail "expected Corrupt");
      match Store.Disk.verify () with
      | [ (_, Error _) ] -> ()
      | _ -> Alcotest.fail "verify must flag the record")

let test_disk_rejects_key_mismatch () =
  with_store (fun dir ->
      ignore
        (Store.Disk.save Store.Disk.Reach ~key:"cafe" ~name:"toy"
           (Obs.Json.Int 1));
      (* a record copied under the wrong key must not be served *)
      let reach_dir = Filename.concat dir "reach" in
      let src = Filename.concat reach_dir "cafe.json" in
      let dst = Filename.concat reach_dir "beef.json" in
      let ic = open_in src and oc = open_out dst in
      output_string oc (In_channel.input_all ic);
      close_in ic;
      close_out oc;
      match Store.Disk.load Store.Disk.Reach ~key:"beef" with
      | Store.Disk.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on key mismatch")

(* ------------------------------------------------------ cache integration *)

(* HITEC through the cache at the environment's budget, read per call *)
let cached_hitec ~name c =
  Core.Cache.atpg
    ~config:(Core.Cache.atpg_config Core.Cache.Hitec ~budget:None ~learn:None)
    Core.Cache.Hitec ~name c

let test_cache_persists_across_memory_reset () =
  with_store (fun _ ->
      let c = Helpers.toy_circuit () in
      let r1 = cached_hitec ~name:"toy" c in
      Alcotest.(check string) "cold run computes" "miss"
        (Core.Cache.outcome_string (Core.Cache.last_outcome ()));
      Core.Cache.reset_memory ();
      let r2 = cached_hitec ~name:"toy" c in
      Alcotest.(check string) "warm run served from disk" "disk-hit"
        (Core.Cache.outcome_string (Core.Cache.last_outcome ()));
      Alcotest.(check bool) "statuses identical" true
        (r1.Atpg.Types.status = r2.Atpg.Types.status);
      Alcotest.(check bool) "tests identical" true
        (r1.Atpg.Types.test_sets = r2.Atpg.Types.test_sets);
      Alcotest.(check (float 1e-9)) "coverage identical"
        r1.Atpg.Types.fault_coverage r2.Atpg.Types.fault_coverage)

let test_cache_recovers_from_corruption () =
  with_store (fun _ ->
      let c = Helpers.toy_circuit () in
      let r1 = Core.Cache.reach ~name:"toy" c in
      let entry = List.hd (Store.Disk.entries ()) in
      let oc = open_out entry.Store.Disk.path in
      output_string oc "not json at all";
      close_out oc;
      Core.Cache.reset_memory ();
      let r2 = Core.Cache.reach ~name:"toy" c in
      Alcotest.(check string) "corrupt record degrades to recompute" "miss"
        (Core.Cache.outcome_string (Core.Cache.last_outcome ()));
      Alcotest.(check int) "same answer" r1.Analysis.Reach.valid_states
        r2.Analysis.Reach.valid_states;
      (* the rewrite self-heals the store *)
      Core.Cache.reset_memory ();
      ignore (Core.Cache.reach ~name:"toy" c);
      Alcotest.(check string) "healed record serves again" "disk-hit"
        (Core.Cache.outcome_string (Core.Cache.last_outcome ())))

let test_cache_budget_enters_key () =
  with_store (fun _ ->
      let c = Helpers.toy_circuit () in
      ignore (cached_hitec ~name:"toy" c);
      Core.Cache.reset_memory ();
      Unix.putenv "SATPG_BUDGET" "0.5";
      Fun.protect
        ~finally:(fun () -> Unix.putenv "SATPG_BUDGET" "")
        (fun () ->
          ignore (cached_hitec ~name:"toy" c);
          Alcotest.(check string) "scaled budget derives a fresh key" "miss"
            (Core.Cache.outcome_string (Core.Cache.last_outcome ()))))

let suite =
  [
    Alcotest.test_case "hash invariant under renaming" `Quick
      test_hash_ignores_names;
    Alcotest.test_case "hash tracks structure" `Quick test_hash_sees_structure;
    Alcotest.test_case "config fingerprint" `Quick test_config_fingerprint;
    Alcotest.test_case "learn flag never aliases" `Quick
      test_learn_flag_never_aliases;
    Alcotest.test_case "codec learn counters" `Quick test_codec_learn_counters;
    Alcotest.test_case "keys exclude names" `Quick test_keys_exclude_names;
    Alcotest.test_case "classify version splits v1 records" `Quick
      test_classify_version_splits_v1;
    Alcotest.test_case "codec atpg round-trip" `Quick
      test_codec_atpg_roundtrip;
    Alcotest.test_case "codec reach round-trip" `Quick
      test_codec_reach_roundtrip;
    Alcotest.test_case "codec untest round-trip" `Quick
      test_codec_untest_roundtrip;
    Alcotest.test_case "codec symreach round-trip" `Quick
      test_codec_symreach_roundtrip;
    Alcotest.test_case "codec symreach rejects garbage" `Quick
      test_codec_symreach_rejects_garbage;
    Alcotest.test_case "codec structural round-trip" `Quick
      test_codec_structural_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick
      test_codec_rejects_garbage;
    Alcotest.test_case "codec manifest round-trip" `Quick
      test_codec_manifest_roundtrip;
    Alcotest.test_case "disk disabled = no-op" `Quick test_disk_disabled;
    Alcotest.test_case "disk round-trip" `Quick test_disk_roundtrip;
    Alcotest.test_case "disk corrupt record" `Quick test_disk_corrupt_record;
    Alcotest.test_case "disk rejects key mismatch" `Quick
      test_disk_rejects_key_mismatch;
    Alcotest.test_case "cache persists across processes" `Quick
      test_cache_persists_across_memory_reset;
    Alcotest.test_case "cache recovers from corruption" `Quick
      test_cache_recovers_from_corruption;
    Alcotest.test_case "cache key tracks SATPG_BUDGET" `Quick
      test_cache_budget_enters_key;
  ]
