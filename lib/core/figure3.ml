(* Figure 3: ATPG effort (work units, the CPU-time stand-in) needed to reach
   each fault-efficiency level, for the five sensitivity versions of
   s510.jo.sr.  The curves order by density of encoding: the sparser the
   encoding, the more work any given efficiency level costs. *)

type series = {
  circuit : string;
  density : float;
  density_source : string;      (* "explicit" | "symbolic" *)
  points : (int * float) list;  (* (work units, fault efficiency %) *)
}

let compute () =
  List.map
    (fun (name, c, _period) ->
      let atpg =
        Cache.atpg
          ~config:(Cache.atpg_config Cache.Hitec ~budget:None ~learn:None)
          Cache.Hitec ~name c
      in
      let d = Cache.density ~name c in
      {
        circuit = name;
        density = d.Cache.density;
        density_source = Cache.density_source_name d.Cache.source;
        points = atpg.Atpg.Types.trajectory;
      })
    (Flow.sensitivity_versions ())

(* Work needed to first reach a given efficiency, or None. *)
let work_to_reach s fe =
  let rec loop = function
    | [] -> None
    | (w, e) :: rest -> if e >= fe then Some w else loop rest
  in
  loop s.points

let levels = [ 30.0; 50.0; 70.0; 80.0; 90.0; 95.0; 98.0 ]

let pp ppf series =
  Fmt.pf ppf
    "Figure 3: work units to reach a fault-efficiency level (per circuit)@.";
  Fmt.pf ppf "%-18s %10s" "circuit" "density";
  List.iter (fun l -> Fmt.pf ppf " %9.0f%%" l) levels;
  Fmt.pf ppf "@.";
  List.iter
    (fun s ->
      Fmt.pf ppf "%-18s %10.2e" s.circuit s.density;
      List.iter
        (fun l ->
          match work_to_reach s l with
          | Some w -> Fmt.pf ppf " %10d" w
          | None -> Fmt.pf ppf " %10s" "-")
        levels;
      Fmt.pf ppf "@.")
    series
