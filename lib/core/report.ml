(* Whole-study driver: run every experiment, print every table, and render
   the paper-vs-measured summary used by EXPERIMENTS.md. *)

(* The paper's tables and figure in print order, each under the name the
   CLI and the daemon accept for it. *)
let figures =
  [
    ("1", fun ppf -> Tables.T1.pp ppf (Tables.T1.compute ()));
    ("2", fun ppf -> Tables.T2.pp ppf (Tables.T2.compute ()));
    ("3", fun ppf -> Tables.T3.pp ppf (Tables.T3.compute ()));
    ("4", fun ppf -> Tables.T4.pp ppf (Tables.T4.compute ()));
    ("5", fun ppf -> Tables.T5.pp ppf (Tables.T5.compute ()));
    ("6", fun ppf -> Tables.T6.pp ppf (Tables.T6.compute ()));
    ("7", fun ppf -> Tables.T7.pp ppf (Tables.T7.compute ()));
    ("8", fun ppf -> Tables.T8.pp ppf (Tables.T8.compute ()));
    ("fig3", fun ppf -> Figure3.pp ppf (Figure3.compute ()));
  ]

let run_all ppf () =
  List.iter
    (fun (_, pp) ->
      pp ppf;
      Fmt.pf ppf "@.")
    figures

(* Shape checks: the qualitative claims the reproduction must reproduce.
   Returns (claim, holds) pairs; used by tests and by the summary. *)
let shape_checks () =
  let t2 = Tables.T2.compute () in
  let t5 = Tables.T5.compute () in
  let t6 = Tables.T6.compute () in
  let t7 = Tables.T7.compute () in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let geo l =
    exp (mean (List.map (fun x -> log (max 1e-9 x)) l))
  in
  let ratios = List.map (fun (r : Tables.Atpg_pair.row) -> r.Tables.Atpg_pair.cpu_ratio) t2 in
  let claims =
    [
      ( "retiming adds DFFs in every pair",
        List.for_all
          (fun (r : Tables.Atpg_pair.row) ->
            r.Tables.Atpg_pair.dff_re > r.Tables.Atpg_pair.dff_orig)
          t2 );
      ( "HITEC CPU ratio retimed/original > 1 (geometric mean)",
        geo ratios > 1.0 );
      ( "fault coverage never higher on retimed (mean)",
        mean (List.map (fun (r : Tables.Atpg_pair.row) -> r.Tables.Atpg_pair.fc_re) t2)
        <= mean (List.map (fun (r : Tables.Atpg_pair.row) -> r.Tables.Atpg_pair.fc_orig) t2) );
      ( "sequential depth invariant under retiming (Theorem 2)",
        List.for_all
          (fun (r : Tables.T5.row) -> r.Tables.T5.depth_orig = r.Tables.T5.depth_re)
          t5 );
      ( "max cycle length invariant under retiming (Theorem 4)",
        List.for_all
          (fun (r : Tables.T5.row) ->
            r.Tables.T5.max_cycle_orig = r.Tables.T5.max_cycle_re)
          t5 );
      ( "counted cycles do not decrease under retiming",
        List.for_all
          (fun (r : Tables.T5.row) ->
            r.Tables.T5.cycles_re >= r.Tables.T5.cycles_orig)
          t5 );
      ( "density of encoding drops for every retimed circuit",
        let rec pairs = function
          | o :: r :: rest -> (o, r) :: pairs rest
          | _ -> []
        in
        List.for_all
          (fun ((o : Tables.T6.row), (r : Tables.T6.row)) ->
            r.Tables.T6.density < o.Tables.T6.density)
          (pairs t6) );
      ( "Table 7 density decreases monotonically with DFF count",
        let rec mono = function
          | (a : Tables.T7.row) :: b :: rest ->
            a.Tables.T7.density >= b.Tables.T7.density && mono (b :: rest)
          | _ -> true
        in
        mono t7 );
    ]
  in
  claims

let pp_shape_checks ppf () =
  Fmt.pf ppf "Shape checks (paper's qualitative claims):@.";
  List.iter
    (fun (claim, ok) ->
      Fmt.pf ppf "  [%s] %s@." (if ok then "ok" else "FAIL") claim)
    (shape_checks ())

let tables =
  figures
  @ [
      ("shape", fun ppf -> pp_shape_checks ppf ());
      ( "all",
        fun ppf ->
          run_all ppf ();
          pp_shape_checks ppf () );
    ]
