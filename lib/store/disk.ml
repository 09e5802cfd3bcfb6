(* On-disk content-addressed result store.

   Enabled by SATPG_STORE=dir (unset or empty = disabled; every operation
   is then a no-op).  Layout: one versioned JSON record per computation at

     <dir>/<kind>/<key>.json
     {"satpg_store": 1, "kind": "atpg", "key": "...", "name": "...",
      "payload": {...}}

   The key is content-addressed (Store.Key); the name is display-only
   metadata for humans browsing the directory.  Writes go through a
   process-unique temp file and rename, so a concurrent reader sees
   either the old record or the new one, never a torn write.  Loads are
   corruption-tolerant: unreadable files, JSON garbage, version or key
   mismatches all surface as [Corrupt] (the cache logs a warning and
   recomputes) — a bad record can cost a recompute, never a crash or a
   wrong result. *)

let src = Logs.Src.create "satpg.store" ~doc:"persistent result store"

module Log = (val Logs.src_log src : Logs.LOG)

let env_var = "SATPG_STORE"

let dir () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some d -> Some d

let enabled () = dir () <> None

type kind = Atpg | Classify | Reach | Symreach | Structural | Manifest | Circuit

let kind_name = function
  | Atpg -> "atpg"
  | Classify -> "classify"
  | Reach -> "reach"
  | Symreach -> "symreach"
  | Structural -> "structural"
  | Manifest -> "manifest"
  | Circuit -> "circuit"

let all_kinds = [ Atpg; Classify; Reach; Symreach; Structural; Manifest; Circuit ]

let version = 1

let path_of root kind key =
  Filename.concat (Filename.concat root (kind_name kind)) (key ^ ".json")

let mkdir_p d =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ load - *)

type load_result = Found of Obs.Json.t | Absent | Corrupt of string

let decode_record kind key text =
  match Obs.Json.parse text with
  | exception Obs.Json.Parse_error e -> Corrupt ("unparsable record: " ^ e)
  | j ->
    let field name = Obs.Json.member name j in
    (match field "satpg_store", field "kind", field "key", field "payload" with
     | Some (Obs.Json.Int v), _, _, _ when v <> version ->
       Corrupt (Printf.sprintf "record version %d, expected %d" v version)
     | Some (Obs.Json.Int _), Some (Obs.Json.String k), _, _
       when k <> kind_name kind ->
       Corrupt ("record kind " ^ k ^ ", expected " ^ kind_name kind)
     | Some (Obs.Json.Int _), Some (Obs.Json.String _),
       Some (Obs.Json.String k), _
       when k <> key ->
       Corrupt "record key does not match its file name"
     | Some (Obs.Json.Int _), Some (Obs.Json.String _),
       Some (Obs.Json.String _), Some payload ->
       Found payload
     | _ -> Corrupt "record missing header fields")

let load kind ~key =
  match dir () with
  | None -> Absent
  | Some root ->
    let path = path_of root kind key in
    if not (Sys.file_exists path) then Absent
    else
      (match read_file path with
       | exception Sys_error e -> Corrupt ("unreadable record: " ^ e)
       | text ->
         (match decode_record kind key text with
          | Corrupt why ->
            Log.warn (fun m ->
                m "ignoring corrupt store record %s: %s" path why);
            Corrupt why
          | r -> r))

(* ------------------------------------------------------------------ save - *)

let record kind ~key ~name payload =
  Obs.Json.Obj
    [
      ("satpg_store", Obs.Json.Int version);
      ("kind", Obs.Json.String (kind_name kind));
      ("key", Obs.Json.String key);
      ("name", Obs.Json.String name);
      ("payload", payload);
    ]

(* Best-effort: a full disk or unwritable directory degrades to "no
   store", it never aborts the computation whose result is being saved. *)
let save kind ~key ~name payload =
  match dir () with
  | None -> false
  | Some root ->
    let path = path_of root kind key in
    (try
       mkdir_p (Filename.dirname path);
       (* pid alone is not unique across domains of one process writing
          the same key; the domain id keeps concurrent writers on
          distinct temp files (the final rename stays atomic either
          way) *)
       let tmp =
         Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
           (Domain.self () :> int)
       in
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           output_string oc
             (Obs.Json.to_string (record kind ~key ~name payload));
           output_char oc '\n');
       Sys.rename tmp path;
       true
     with
     | Sys_error e ->
       Log.warn (fun m -> m "could not persist store record %s: %s" path e);
       false
     | Unix.Unix_error (err, _, _) ->
       Log.warn (fun m ->
           m "could not persist store record %s: %s" path
             (Unix.error_message err));
       false)

let save_manifest ~name m =
  ignore
    (save Manifest ~key:(Obs.Ledger.id m) ~name (Codec.manifest_to_json m)
      : bool)

(* ------------------------------------------- stats / clear / verification - *)

type entry = { kind : kind; key : string; path : string; bytes : int }

let entries () =
  match dir () with
  | None -> []
  | Some root ->
    List.concat_map
      (fun kind ->
        let d = Filename.concat root (kind_name kind) in
        match Sys.readdir d with
        | exception Sys_error _ -> []
        | files ->
          Array.sort compare files;
          Array.to_list files
          |> List.filter_map (fun f ->
                 if Filename.check_suffix f ".json" then
                   let path = Filename.concat d f in
                   let bytes =
                     try (Unix.stat path).Unix.st_size with
                     | Unix.Unix_error _ | Sys_error _ -> 0
                   in
                   Some
                     { kind; key = Filename.chop_suffix f ".json"; path; bytes }
                 else None))
      all_kinds

let stats () =
  List.map
    (fun kind ->
      let es = List.filter (fun e -> e.kind = kind) (entries ()) in
      (kind, List.length es, List.fold_left (fun a e -> a + e.bytes) 0 es))
    all_kinds

let clear () =
  List.fold_left
    (fun removed e ->
      match Sys.remove e.path with
      | () -> removed + 1
      | exception Sys_error _ -> removed)
    0 (entries ())

(* Full verification: the record header must check out *and* the payload
   must decode with the kind's codec. *)
let verify_entry e =
  match read_file e.path with
  | exception Sys_error err -> Error ("unreadable: " ^ err)
  | text ->
    (match decode_record e.kind e.key text with
     | Absent -> Error "impossible"
     | Corrupt why -> Error why
     | Found payload ->
       let ok =
         match e.kind with
         | Atpg -> Codec.atpg_result_of_json payload <> None
         | Classify -> Codec.untest_of_json payload <> None
         | Reach -> Codec.reach_result_of_json payload <> None
         | Symreach -> Codec.symreach_summary_of_json payload <> None
         | Structural -> Codec.structural_result_of_json payload <> None
         | Manifest -> Codec.manifest_of_json payload <> None
         | Circuit -> Codec.circuit_of_json payload <> None
       in
       if ok then Ok () else Error "payload does not decode")

let verify () = List.map (fun e -> (e, verify_entry e)) (entries ())
