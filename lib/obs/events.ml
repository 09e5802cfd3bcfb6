(* Structured event sink: one JSON object per record, written out as JSONL
   (one line per record).  The ATPG drivers emit one record per random/
   validation fault-simulation pass and one per deterministically attempted
   fault, carrying the exact work/backtrack/decision accounting — the
   paper's Tables 2-4 rows and Figure 3 trajectories can be rebuilt offline
   from the file alone (see DESIGN.md "Observability").

   Emission is guarded by [enabled]: with no sink installed the hot path
   pays one word test and builds nothing.

   Domain safety: the sink is installed/uninstalled from the main domain
   only.  A parallel task (running under a Capture scope) never mutates
   the sink — its records are buffered in the task's delta and appended by
   the submitting caller in submission order (Commit.apply), so the JSONL
   file of an N-domain run is byte-identical to the sequential one. *)

type sink = { mutable records : Json.t list }

let current : sink option ref = ref None

let create () = { records = [] }
let install s = current := Some s
let uninstall () = current := None
let active () = !current
let enabled () = !current <> None

let append s j = s.records <- j :: s.records

let emit_json j =
  match !current with
  | None -> ()
  | Some s ->
    (match Capture.current () with
     | Some d -> Capture.add_event d j
     | None -> append s j)

let emit fields = emit_json (Json.Obj fields)

(* Append a task delta's buffered records in emission order.  Only called
   with no capture active on the current domain (Commit.apply). *)
let apply_delta d =
  match !current with
  | None -> ()
  | Some s -> List.iter (append s) (Capture.events d)

let records s = List.rev s.records

(* records are stored most-recent-first; rev_map yields oldest-first *)
let to_lines s = List.rev_map Json.to_string s.records

let write s file =
  Fileio.write_atomic file (fun oc ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines s))
