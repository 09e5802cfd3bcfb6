(* Process-wide metrics registry: named counters, gauges and log2-bucketed
   histograms.  The hot path is a single mutable-field update on an
   instrument handle resolved once (usually at module initialisation), so
   instrumented code pays O(1) per increment whether or not anything ever
   snapshots the registry.  Snapshots render to JSON in name order, so two
   identical runs produce byte-identical metrics files.

   Domain safety: instruments of the *global* registry are never mutated
   from a parallel task directly.  While a Capture scope is active on the
   current domain (the Exec scheduler installs one around every task),
   writes to global instruments are redirected into the capture's delta;
   the scheduler applies the deltas in submission order, so N-domain
   totals are exactly the sequential totals.  Custom registries (tests)
   are not redirected. *)

type counter = { c_name : string; c_global : bool; mutable c_value : int }
type gauge = { g_name : string; g_global : bool; mutable g_value : float }

(* Histogram of non-negative integer observations in power-of-two buckets:
   bucket [i] counts values [v] with [2^i <= v+1 < 2^(i+1)] (so bucket 0 is
   exactly v = 0).  63 buckets cover the whole positive [int] range. *)
type histogram = {
  h_name : string;
  h_global : bool;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let global = create ()

let counter ?(registry = global) name =
  match Hashtbl.find_opt registry.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_global = registry == global; c_value = 0 } in
    Hashtbl.replace registry.counters name c;
    c

let add c n =
  if c.c_global then
    match Capture.current () with
    | Some d -> Capture.add_counter d c.c_name n
    | None -> c.c_value <- c.c_value + n
  else c.c_value <- c.c_value + n

let incr c = add c 1
let count c = c.c_value

let gauge ?(registry = global) name =
  match Hashtbl.find_opt registry.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_global = registry == global; g_value = 0.0 } in
    Hashtbl.replace registry.gauges name g;
    g

let set g v =
  if g.g_global then
    match Capture.current () with
    | Some d -> Capture.set_gauge d g.g_name v
    | None -> g.g_value <- v
  else g.g_value <- v

let value g = g.g_value

let num_buckets = 63

let histogram ?(registry = global) name =
  match Hashtbl.find_opt registry.histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_global = registry == global;
        h_buckets = Array.make num_buckets 0;
        h_count = 0;
        h_sum = 0;
        h_max = 0;
      }
    in
    Hashtbl.replace registry.histograms name h;
    h

let bucket_of v =
  (* index of the highest set bit of v+1, clamped *)
  let v = if v < 0 then 0 else v in
  let rec go n i = if n <= 1 then i else go (n lsr 1) (i + 1) in
  min (num_buckets - 1) (go (v + 1) 0)

let observe_direct h v =
  let v = if v < 0 then 0 else v in
  h.h_buckets.(bucket_of v) <- h.h_buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

let observe h v =
  if h.h_global then
    match Capture.current () with
    | Some d -> Capture.observe_histogram d h.h_name ~bucket:(bucket_of v) v
    | None -> observe_direct h v
  else observe_direct h v

let observations h = h.h_count
let sum h = h.h_sum

let reset ?(registry = global) () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) registry.counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) registry.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 num_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0;
      h.h_max <- 0)
    registry.histograms

let sorted_values tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let snapshot ?(registry = global) () =
  let counters =
    sorted_values registry.counters
    |> List.sort (fun a b -> String.compare a.c_name b.c_name)
    |> List.map (fun c -> (c.c_name, Json.Int c.c_value))
  in
  let gauges =
    sorted_values registry.gauges
    |> List.sort (fun a b -> String.compare a.g_name b.g_name)
    |> List.map (fun g -> (g.g_name, Json.Float g.g_value))
  in
  let histograms =
    sorted_values registry.histograms
    |> List.sort (fun a b -> String.compare a.h_name b.h_name)
    |> List.map (fun h ->
           (* only the populated prefix of the bucket array *)
           let last = ref (-1) in
           Array.iteri (fun i n -> if n > 0 then last := i) h.h_buckets;
           let buckets =
             List.init (!last + 1) (fun i -> Json.Int h.h_buckets.(i))
           in
           ( h.h_name,
             Json.Obj
               [
                 ("count", Json.Int h.h_count);
                 ("sum", Json.Int h.h_sum);
                 ("max", Json.Int h.h_max);
                 ("log2_buckets", Json.List buckets);
               ] ))
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

(* Fold a task delta into the global registry.  Only called with no
   capture active on the current domain (Commit.apply redirects into the
   outer capture otherwise); each name appears once per delta, so Hashtbl
   iteration order cannot affect the result. *)
let apply_delta (d : Capture.t) =
  Capture.iter_counters
    (fun name n ->
      let c = counter name in
      c.c_value <- c.c_value + n)
    d;
  Capture.iter_gauges
    (fun name v ->
      let g = gauge name in
      g.g_value <- v)
    d;
  Capture.iter_histograms
    (fun name (hd : Capture.hist_delta) ->
      let h = histogram name in
      Array.iteri
        (fun i n -> h.h_buckets.(i) <- h.h_buckets.(i) + n)
        hd.Capture.hd_buckets;
      h.h_count <- h.h_count + hd.Capture.hd_count;
      h.h_sum <- h.h_sum + hd.Capture.hd_sum;
      if hd.Capture.hd_max > h.h_max then h.h_max <- hd.Capture.hd_max)
    d

let write ?registry file =
  Fileio.write_string_atomic file (Json.to_string (snapshot ?registry ()) ^ "\n")
