(* Prometheus text exposition of the metrics registry.  Works off the
   JSON snapshot rather than registry internals, so it stays in lockstep
   with the `satpg profile` / manifest metric payloads by construction. *)

let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch
      | _ -> '_')
    name

let prom_name name = "satpg_" ^ sanitize name

(* Prometheus floats: integral values print without a fraction part,
   everything else with enough digits to round-trip. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let section j key =
  match j with
  | Json.Obj fields ->
    (match List.assoc_opt key fields with
     | Some (Json.Obj entries) -> entries
     | _ -> [])
  | _ -> []

let render ?registry () =
  let snap = Metrics.snapshot ?registry () in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, v) ->
      match v with
      | Json.Int n ->
        let p = prom_name name ^ "_total" in
        line "# TYPE %s counter\n%s %d\n" p p n
      | _ -> ())
    (section snap "counters");
  List.iter
    (fun (name, v) ->
      match v with
      | Json.Float x ->
        let p = prom_name name in
        line "# TYPE %s gauge\n%s %s\n" p p (float_str x)
      | _ -> ())
    (section snap "gauges");
  List.iter
    (fun (name, v) ->
      match v with
      | Json.Obj fields ->
        let int_field key =
          match List.assoc_opt key fields with
          | Some (Json.Int n) -> n
          | _ -> 0
        in
        let buckets =
          match List.assoc_opt "log2_buckets" fields with
          | Some (Json.List l) ->
            List.filter_map
              (function Json.Int n -> Some n | _ -> None)
              l
          | _ -> []
        in
        let p = prom_name name in
        line "# TYPE %s histogram\n" p;
        let cum = ref 0 in
        List.iteri
          (fun i n ->
            cum := !cum + n;
            (* bucket i of the log2 histogram holds values v with
               2^i <= v+1 < 2^(i+1), so its largest value is 2^(i+1) - 2 *)
            line "%s_bucket{le=\"%.0f\"} %d\n" p
              (Float.pow 2.0 (float_of_int (i + 1)) -. 2.0)
              !cum)
          buckets;
        let count = int_field "count" in
        line "%s_bucket{le=\"+Inf\"} %d\n" p count;
        line "%s_sum %d\n" p (int_field "sum");
        line "%s_count %d\n" p count
      | _ -> ())
    (section snap "histograms");
  Buffer.contents buf
