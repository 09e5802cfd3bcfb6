(* Differential comparison of two instrumented runs, at three
   granularities:

     totals   — the headline work-unit delta (any two inputs);
     spans    — per-span work aggregation (manifests and Chrome traces);
     rows     — exact attribution of the delta to per-fault event records
                (event JSONL inputs) or per-record bench rows (bench
                JSON arrays), with new / vanished / status-changed rows
                called out.

   The reconciliation invariant is the load-bearing property: an event
   stream's records carry the complete work accounting (every gate
   evaluation and backtrack of the run appears in exactly one record —
   the JSONL<->stats identity test_obs.ml proves), so on event inputs the
   sum of per-row deltas must equal the total delta *exactly*.  [compute]
   checks this and reports [reconciled]; a [Some false] means a truncated
   or hand-edited stream, never rounding.

   Everything here is pure — callers read files and parse; this module
   classifies content, builds comparison sides, and diffs. *)

(* ------------------------------------------------------- input sniffing - *)

type input =
  | Manifest of Ledger.t
  | Events of Json.t list (* parsed JSONL records, file order *)
  | Bench of Json.t list  (* records of a bench JSON array *)
  | Chrome of Json.t      (* whole Chrome trace document *)

let input_kind_name = function
  | Manifest _ -> "manifest"
  | Events _ -> "events"
  | Bench _ -> "bench"
  | Chrome _ -> "chrome-trace"

(* JSONL: parse line by line, skipping blank lines. *)
let parse_jsonl text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | line :: rest ->
      (match Json.parse line with
       | j -> go (j :: acc) rest
       | exception Json.Parse_error e -> Error e)
  in
  go [] lines

let classify_input text =
  match Json.parse text with
  | Json.Obj _ as j when Json.member "satpg_manifest" j <> None ->
    (match Ledger.of_json j with
     | Some m -> Ok (Manifest m)
     | None -> Error "manifest does not decode (corrupt or wrong version)")
  | Json.Obj _ as j when Json.member "traceEvents" j <> None -> Ok (Chrome j)
  | Json.Obj _ as j when Json.member "ev" j <> None ->
    Ok (Events [ j ]) (* single-record JSONL *)
  | Json.List records -> Ok (Bench records)
  | _ -> Error "unrecognized JSON shape (not a manifest, trace, or bench array)"
  | exception Json.Parse_error _ ->
    (* not one JSON document — try JSONL *)
    (match parse_jsonl text with
     | Ok records -> Ok (Events records)
     | Error e -> Error ("neither JSON nor JSONL: " ^ e))

(* ------------------------------------------------------ comparison sides - *)

type row_data = { units : int; status : string option }

type side = {
  label : string;
  manifest_id : string option;
  total : int option;          (* total work units, when the input has one *)
  exact : bool;                (* rows account for the total exactly *)
  spans : (string * int * int) list;
  rows : (string * row_data) list; (* attribution rows, input order *)
}

let int_field name j = Option.bind (Json.member name j) Json.to_int_opt
let str_field name j = Option.bind (Json.member name j) Json.to_string_opt

(* Ordered accumulation: first-appearance order, units summed. *)
let add_row order tbl key units status =
  match Hashtbl.find_opt tbl key with
  | Some r ->
    r := { units = !r.units + units; status }
  | None ->
    order := key :: !order;
    Hashtbl.replace tbl key (ref { units; status })

let rows_of order tbl =
  List.rev_map (fun key -> (key, !(Hashtbl.find tbl key))) !order

let side_of_manifest ~label m =
  {
    label;
    manifest_id = Some (Ledger.id m);
    total = Some (Ledger.work_units m);
    exact = false;
    spans = Ledger.spans m;
    rows = [];
  }

(* Per-fault attribution from an event stream.  A "fault" record is one
   row keyed by the fault name; the per-pass records ("fault_sim" keyed
   by phase, "state_directory", anything future) aggregate into
   parenthesized pseudo-rows, so every work unit of the run lands in
   exactly one row and the rows sum to the stream's final running
   total. *)
let side_of_events ~label records =
  let order = ref [] and tbl = Hashtbl.create 256 in
  let last_after = ref None in
  List.iter
    (fun r ->
      let units =
        Option.value ~default:0 (int_field "work" r)
        + (50 * Option.value ~default:0 (int_field "backtracks" r))
      in
      (match int_field "work_units_after" r with
       | Some t -> last_after := Some t
       | None -> ());
      match str_field "ev" r with
      | Some "fault" ->
        let key =
          match str_field "fault" r with
          | Some f -> f
          | None ->
            Printf.sprintf "fault#%d"
              (Option.value ~default:(-1) (int_field "index" r))
        in
        add_row order tbl key units (str_field "status" r)
      | Some "fault_sim" ->
        let phase = Option.value ~default:"?" (str_field "phase" r) in
        add_row order tbl ("(fault-sim " ^ phase ^ ")") units None
      | Some ev -> add_row order tbl ("(" ^ ev ^ ")") units None
      | None -> add_row order tbl "(unknown record)" units None)
    records;
  let rows = rows_of order tbl in
  let sum = List.fold_left (fun a (_, d) -> a + d.units) 0 rows in
  {
    label;
    manifest_id = None;
    total = Some (Option.value ~default:sum !last_after);
    exact = true;
    spans = [];
    rows;
  }

(* Bench records: one row per (engine|mode, benchmark) cell, weighted by
   its work_units (records without one — e.g. reach records — weigh 0 but
   still diff by presence and status). *)
let side_of_bench ~label records =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let bench = Option.value ~default:"?" (str_field "benchmark" r) in
      let key =
        match str_field "engine" r, str_field "mode" r with
        | Some e, _ -> e ^ "/" ^ bench
        | None, Some m -> m ^ "/" ^ bench
        | None, None -> bench
      in
      let units = Option.value ~default:0 (int_field "work_units" r) in
      add_row order tbl key units None)
    records;
  let rows = rows_of order tbl in
  let sum = List.fold_left (fun a (_, d) -> a + d.units) 0 rows in
  { label; manifest_id = None; total = Some sum; exact = true; spans = []; rows }

(* Span aggregation of a raw Chrome trace, [Trace.durations]-style:
   balanced B/E pairs only, matched by name at the stack top. *)
let spans_of_chrome doc =
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> []
  in
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let stack = ref [] in
  List.iter
    (fun e ->
      match str_field "ph" e, str_field "name" e, int_field "ts" e with
      | Some "B", Some name, Some ts -> stack := (name, ts) :: !stack
      | Some "E", Some name, Some ts ->
        (match !stack with
         | (top, ts0) :: rest when String.equal top name ->
           stack := rest;
           let c, t =
             Option.value ~default:(0, 0) (Hashtbl.find_opt totals name)
           in
           Hashtbl.replace totals name (c + 1, t + (ts - ts0))
         | _ -> ())
      | _ -> ())
    events;
  Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) totals []
  |> List.sort (fun (na, _, ta) (nb, _, tb) ->
         if ta <> tb then compare tb ta else String.compare na nb)

let side_of_chrome ~label doc =
  {
    label;
    manifest_id = None;
    total = None;
    exact = false;
    spans = spans_of_chrome doc;
    rows = [];
  }

let side_of_input ~label = function
  | Manifest m -> side_of_manifest ~label m
  | Events records -> side_of_events ~label records
  | Bench records -> side_of_bench ~label records
  | Chrome doc -> side_of_chrome ~label doc

(* ------------------------------------------------------------- the diff - *)

type row = {
  key : string;
  a_units : int option;
  b_units : int option;
  delta : int;
  status_a : string option;
  status_b : string option;
}

type t = {
  a : side;
  b : side;
  total_delta : int option;
  spans : row list;
  rows : row list;
  new_keys : string list;
  vanished_keys : string list;
  status_changed : (string * string * string) list;
  attributed_delta : int option;
  reconciled : bool option;
}

(* Union of two keyed lists, preserving a's order then b's novel keys. *)
let union_keys a_keys b_keys =
  let seen = Hashtbl.create 64 in
  let keep k =
    if Hashtbl.mem seen k then false
    else begin
      Hashtbl.replace seen k ();
      true
    end
  in
  List.filter keep a_keys @ List.filter keep b_keys

let sort_rows rows =
  List.sort
    (fun x y ->
      let ax = abs x.delta and ay = abs y.delta in
      if ax <> ay then compare ay ax else String.compare x.key y.key)
    rows

let compute a b =
  let total_delta =
    match a.total, b.total with
    | Some ta, Some tb -> Some (tb - ta)
    | _ -> None
  in
  let span_rows =
    let find spans name =
      List.find_map
        (fun (n, _, t) -> if String.equal n name then Some t else None)
        spans
    in
    let keys =
      union_keys
        (List.map (fun (n, _, _) -> n) a.spans)
        (List.map (fun (n, _, _) -> n) b.spans)
    in
    sort_rows
      (List.map
         (fun key ->
           let ta = find a.spans key and tb = find b.spans key in
           {
             key;
             a_units = ta;
             b_units = tb;
             delta = Option.value ~default:0 tb - Option.value ~default:0 ta;
             status_a = None;
             status_b = None;
           })
         keys)
  in
  let rows, new_keys, vanished_keys, status_changed, attributed =
    if a.rows = [] && b.rows = [] then ([], [], [], [], None)
    else begin
      let tbl_a = Hashtbl.create 256 and tbl_b = Hashtbl.create 256 in
      List.iter (fun (k, d) -> Hashtbl.replace tbl_a k d) a.rows;
      List.iter (fun (k, d) -> Hashtbl.replace tbl_b k d) b.rows;
      let keys = union_keys (List.map fst a.rows) (List.map fst b.rows) in
      let rows =
        List.map
          (fun key ->
            let da = Hashtbl.find_opt tbl_a key
            and db = Hashtbl.find_opt tbl_b key in
            {
              key;
              a_units = Option.map (fun d -> d.units) da;
              b_units = Option.map (fun d -> d.units) db;
              delta =
                Option.fold ~none:0 ~some:(fun d -> d.units) db
                - Option.fold ~none:0 ~some:(fun d -> d.units) da;
              status_a = Option.bind da (fun d -> d.status);
              status_b = Option.bind db (fun d -> d.status);
            })
          keys
      in
      let new_keys =
        List.filter_map
          (fun r -> if r.a_units = None then Some r.key else None)
          rows
      in
      let vanished =
        List.filter_map
          (fun r -> if r.b_units = None then Some r.key else None)
          rows
      in
      let changed =
        List.filter_map
          (fun r ->
            match r.status_a, r.status_b with
            | Some sa, Some sb when not (String.equal sa sb) ->
              Some (r.key, sa, sb)
            | _ -> None)
          rows
      in
      let attributed = List.fold_left (fun acc r -> acc + r.delta) 0 rows in
      (sort_rows rows, new_keys, vanished, changed, Some attributed)
    end
  in
  let reconciled =
    match attributed, total_delta with
    | Some s, Some t when a.exact && b.exact -> Some (s = t)
    | _ -> None
  in
  {
    a;
    b;
    total_delta;
    spans = span_rows;
    rows;
    new_keys;
    vanished_keys;
    status_changed;
    attributed_delta = attributed;
    reconciled;
  }

let is_empty d =
  Option.value ~default:0 d.total_delta = 0
  && List.for_all (fun r -> r.delta = 0) d.spans
  && List.for_all (fun r -> r.delta = 0) d.rows
  && d.new_keys = [] && d.vanished_keys = [] && d.status_changed = []

(* Threshold gate: breach when side B's total exceeds side A's by more
   than [max_regress_pct] percent (exact integer arithmetic — 10% means
   strictly greater than ta * 1.10).  Improvements never breach. *)
let breach ~max_regress_pct d =
  match d.a.total, d.b.total with
  | Some ta, Some tb when ta >= 0 ->
    float_of_int (tb - ta) *. 100.0 > max_regress_pct *. float_of_int ta
  | _ -> false

(* -------------------------------------------------------------- reports - *)

let opt_int = function Some i -> Json.Int i | None -> Json.Null
let opt_str = function Some s -> Json.String s | None -> Json.Null

let row_json name r =
  Json.Obj
    ([
       (name, Json.String r.key);
       ("a", opt_int r.a_units);
       ("b", opt_int r.b_units);
       ("delta", Json.Int r.delta);
     ]
    @
    match r.status_a, r.status_b with
    | None, None -> []
    | sa, sb -> [ ("status_a", opt_str sa); ("status_b", opt_str sb) ])

let side_json s =
  Json.Obj
    [
      ("label", Json.String s.label);
      ("kind", Json.String (if s.rows <> [] then "attributable" else "totals"));
      ("manifest", opt_str s.manifest_id);
      ("total", opt_int s.total);
    ]

let to_json d =
  Json.Obj
    [
      ("a", side_json d.a);
      ("b", side_json d.b);
      ( "total",
        Json.Obj
          [
            ("a", opt_int d.a.total);
            ("b", opt_int d.b.total);
            ("delta", opt_int d.total_delta);
            ( "pct",
              match d.a.total, d.total_delta with
              | Some ta, Some delta when ta > 0 ->
                Json.Float (100.0 *. float_of_int delta /. float_of_int ta)
              | _ -> Json.Null );
          ] );
      ("empty", Json.Bool (is_empty d));
      ("attributed_delta", opt_int d.attributed_delta);
      ( "reconciled",
        match d.reconciled with Some b -> Json.Bool b | None -> Json.Null );
      ("spans", Json.List (List.map (row_json "span") d.spans));
      ("rows", Json.List (List.map (row_json "key") d.rows));
      ("new", Json.List (List.map (fun k -> Json.String k) d.new_keys));
      ( "vanished",
        Json.List (List.map (fun k -> Json.String k) d.vanished_keys) );
      ( "status_changed",
        Json.List
          (List.map
             (fun (k, sa, sb) ->
               Json.Obj
                 [
                   ("key", Json.String k);
                   ("a", Json.String sa);
                   ("b", Json.String sb);
                 ])
             d.status_changed) );
    ]

let str_opt = function Some i -> string_of_int i | None -> "-"

let pp_text ?(top = 20) ppf d =
  Format.fprintf ppf "diff: %s -> %s@." d.a.label d.b.label;
  (match d.a.manifest_id, d.b.manifest_id with
   | Some ia, Some ib -> Format.fprintf ppf "  manifests     %s -> %s@." ia ib
   | _ -> ());
  Format.fprintf ppf "  total units   %s -> %s" (str_opt d.a.total)
    (str_opt d.b.total);
  (match d.total_delta, d.a.total with
   | Some delta, Some ta when ta > 0 ->
     Format.fprintf ppf "  (%+d, %+.2f%%)@." delta
       (100.0 *. float_of_int delta /. float_of_int ta)
   | Some delta, _ -> Format.fprintf ppf "  (%+d)@." delta
   | None, _ -> Format.fprintf ppf "@.");
  (match d.reconciled with
   | Some true ->
     Format.fprintf ppf "  attribution   exact: per-row deltas sum to the total delta@."
   | Some false ->
     Format.fprintf ppf
       "  attribution   BROKEN: rows sum to %s, total delta is %s (truncated \
        stream?)@."
       (str_opt d.attributed_delta) (str_opt d.total_delta)
   | None -> ());
  if d.spans <> [] then begin
    Format.fprintf ppf "  spans (by |delta|):@.";
    Format.fprintf ppf "    %-32s %12s %12s %12s@." "span" "a" "b" "delta";
    List.iteri
      (fun i r ->
        if i < top then
          Format.fprintf ppf "    %-32s %12s %12s %+12d@." r.key
            (str_opt r.a_units) (str_opt r.b_units) r.delta)
      d.spans
  end;
  if d.rows <> [] then begin
    let shown = min top (List.length d.rows) in
    Format.fprintf ppf "  attribution rows (top %d of %d, by |delta|):@." shown
      (List.length d.rows);
    Format.fprintf ppf "    %-28s %12s %12s %12s  %s@." "row" "a" "b" "delta" "status";
    List.iteri
      (fun i r ->
        if i < top then
          Format.fprintf ppf "    %-28s %12s %12s %+12d  %s@." r.key
            (str_opt r.a_units) (str_opt r.b_units) r.delta
            (match r.status_a, r.status_b with
             | Some sa, Some sb when not (String.equal sa sb) ->
               sa ^ " -> " ^ sb
             | Some s, Some _ -> s
             | Some s, None -> s ^ " -> (gone)"
             | None, Some s -> "(new) " ^ s
             | None, None -> ""))
      d.rows
  end;
  if d.new_keys <> [] then
    Format.fprintf ppf "  new rows      %d@." (List.length d.new_keys);
  if d.vanished_keys <> [] then
    Format.fprintf ppf "  vanished rows %d@." (List.length d.vanished_keys);
  if d.status_changed <> [] then
    Format.fprintf ppf "  status changes %d@." (List.length d.status_changed);
  if is_empty d then Format.fprintf ppf "  runs are identical@."

(* ------------------------------------------------------- bench history - *)

(* One series per (suite, engine|mode, benchmark) cell of the history
   file, in first-appearance order; each point keeps its work units,
   manifest id and timestamp in file (= append) order.  Malformed lines
   are counted, not fatal: the history is append-only and long-lived, so
   one bad line must not hide the rest. *)
type history_point = { units : int; manifest : string; ts : int }

let history_of_lines lines =
  let order = ref [] and tbl = Hashtbl.create 16 and bad = ref 0 in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match Json.parse line with
        | exception Json.Parse_error _ -> incr bad
        | r ->
          let bench = str_field "benchmark" r in
          (match bench with
           | None -> incr bad
           | Some bench ->
             let suite =
               Option.value ~default:"?" (str_field "suite" r)
             in
             let cell =
               match str_field "engine" r, str_field "mode" r with
               | Some e, _ -> e
               | None, Some m -> m
               | None, None -> "?"
             in
             let series = Printf.sprintf "%s/%s/%s" suite cell bench in
             let point =
               {
                 units = Option.value ~default:0 (int_field "work_units" r);
                 manifest =
                   Option.value ~default:"" (str_field "manifest" r);
                 ts = Option.value ~default:0 (int_field "ts" r);
               }
             in
             (match Hashtbl.find_opt tbl series with
              | Some ps -> ps := point :: !ps
              | None ->
                order := series :: !order;
                Hashtbl.replace tbl series (ref [ point ]))))
    lines;
  ( List.rev_map (fun s -> (s, List.rev !(Hashtbl.find tbl s))) !order,
    !bad )

let history_json series =
  Json.List
    (List.map
       (fun (name, points) ->
         let units = List.map (fun p -> p.units) points in
         let last_delta =
           match List.rev units with
           | b :: a :: _ -> Json.Int (b - a)
           | _ -> Json.Null
         in
         Json.Obj
           [
             ("series", Json.String name);
             ("points", Json.Int (List.length points));
             ("work_units", Json.List (List.map (fun u -> Json.Int u) units));
             ("last_delta", last_delta);
             ( "manifests",
               Json.List
                 (List.map (fun p -> Json.String p.manifest) points) );
             ("ts", Json.List (List.map (fun p -> Json.Int p.ts) points));
           ])
       series)

let pp_history ppf (series, bad) =
  if series = [] then Format.fprintf ppf "history: empty@."
  else
    List.iter
      (fun (name, points) ->
        let units = List.map (fun p -> p.units) points in
        Format.fprintf ppf "%-36s %3d points  [%s]" name (List.length points)
          (String.concat " " (List.map string_of_int units));
        (match List.rev units with
         | b :: a :: _ -> Format.fprintf ppf "  last delta %+d@." (b - a)
         | _ -> Format.fprintf ppf "@."))
      series;
  if bad > 0 then Format.fprintf ppf "(%d malformed line(s) skipped)@." bad
