(* Lint driver: stages the rules, assembles the summary, renders text and
   JSON, and provides the error-level gate the synthesis/retiming flows
   assert after every transformation. *)

type netlist_summary = {
  diags : Diag.t list;
  total_faults : int;
  untestable : int;
  invariant_untestable : int;
  seq_redundant : int option;
  scoap : Scoap.t option;
}

(* Staged: the value analyses trust [order], so they only run when the
   error-level rules (cycles, structure) pass.  NET006/NET008 and both
   untestable counts render Analysis.Untest classifications: the
   collapsed list (symbolic stages per [symbolic], no product stage) and
   the Theorem-1 universe.  The latter is static-only, so a BDD budget
   that runs out on one side of a retiming cannot skew the comparison. *)
let lint_netlist ?(ffr_top = 3) ~symbolic c =
  let errors = Netlist_rules.combinational_cycles c @ Netlist_rules.structure c in
  if Diag.has_errors errors then
    {
      diags = Diag.sort errors;
      total_faults = 0;
      untestable = 0;
      invariant_untestable = 0;
      seq_redundant = None;
      scoap = None;
    }
  else begin
    let scoap = Scoap.compute c in
    let t = Analysis.Untest.classify ~symbolic c in
    let s = t.Analysis.Untest.summary in
    let invariant =
      Analysis.Untest.classify ~symbolic:false
        ~faults:(Analysis.Untest.invariant_faults c) c
    in
    let diags =
      errors
      @ Netlist_rules.dead_logic c
      @ Netlist_rules.unobservable c
          ~structural_obs:(Analysis.Untest.structurally_observable c)
      @ Netlist_rules.constants c (Analysis.Fixpoint.constants c)
      @ Netlist_rules.untestable c t
      @ Netlist_rules.hard_ffrs ~top:ffr_top c scoap
    in
    {
      diags = Diag.sort diags;
      total_faults = s.Analysis.Untest.total;
      untestable = s.Analysis.Untest.structural + s.Analysis.Untest.ternary;
      invariant_untestable =
        invariant.Analysis.Untest.summary.Analysis.Untest.proved;
      seq_redundant =
        (if s.Analysis.Untest.symbolic_ran then Some s.Analysis.Untest.symbolic
         else None);
      scoap = Some scoap;
    }
  end

let lint_fsm m = Diag.sort (Fsm_rules.lint m)

(* The post-transform gate: error-level rules only (cheap), raising with
   every firing rule so the failure names the defect precisely. *)
let assert_clean ~what c =
  let errors =
    List.filter
      (fun d -> d.Diag.severity = Diag.Error)
      (Netlist_rules.combinational_cycles c @ Netlist_rules.structure c)
  in
  match errors with
  | [] -> ()
  | ds ->
    let msgs = List.map (fun d -> Fmt.str "%a" Diag.pp d) ds in
    failwith
      (Printf.sprintf "lint gate failed after %s: %s" what
         (String.concat "; " msgs))

(* --- text ------------------------------------------------------------------- *)

let pp_counts ppf diags =
  Fmt.pf ppf "%d error(s), %d warning(s), %d info"
    (Diag.count_severity Diag.Error diags)
    (Diag.count_severity Diag.Warning diags)
    (Diag.count_severity Diag.Info diags)

let pp_netlist ppf (name, s) =
  Fmt.pf ppf "lint %s: %a@." name pp_counts s.diags;
  List.iter (fun d -> Fmt.pf ppf "  %a@." Diag.pp d) s.diags;
  Fmt.pf ppf
    "  faults: %d collapsed, %d statically untestable%s; invariant \
     (gate/PI-site) untestable count %d@."
    s.total_faults s.untestable
    (match s.seq_redundant with
    | Some n -> Printf.sprintf ", %d proved sequentially redundant" n
    | None -> "")
    s.invariant_untestable

let pp_fsm ppf (name, diags) =
  Fmt.pf ppf "lint fsm %s: %a@." name pp_counts diags;
  List.iter (fun d -> Fmt.pf ppf "  %a@." Diag.pp d) diags

(* --- JSON ------------------------------------------------------------------- *)

let summary_json diags rest =
  Obs.Json.Obj
    ([
       ("errors", Obs.Json.Int (Diag.count_severity Diag.Error diags));
       ("warnings", Obs.Json.Int (Diag.count_severity Diag.Warning diags));
       ("infos", Obs.Json.Int (Diag.count_severity Diag.Info diags));
     ]
    @ rest)

let scoap_json c (s : Scoap.t) =
  Obs.Json.List
    (Array.to_list
       (Array.map
          (fun (nd : Netlist.Node.node) ->
            let id = nd.Netlist.Node.id in
            Obs.Json.Obj
              [
                ("node", Obs.Json.String nd.Netlist.Node.name);
                ("cc0", Obs.Json.Int s.Scoap.cc0.(id));
                ("cc1", Obs.Json.Int s.Scoap.cc1.(id));
                ("sc0", Obs.Json.Int s.Scoap.sc0.(id));
                ("sc1", Obs.Json.Int s.Scoap.sc1.(id));
                ("co", Obs.Json.Int s.Scoap.co.(id));
                ("so", Obs.Json.Int s.Scoap.so.(id));
              ])
          c.Netlist.Node.nodes))

let netlist_to_json ?(include_scoap = false) ~name c s =
  Obs.Json.Obj
    ([
       ("name", Obs.Json.String name);
       ("kind", Obs.Json.String "netlist");
       ("diagnostics", Obs.Json.List (List.map Diag.to_json s.diags));
       ( "summary",
         summary_json s.diags
           ([
              ("total_faults", Obs.Json.Int s.total_faults);
              ("untestable", Obs.Json.Int s.untestable);
              ("invariant_untestable", Obs.Json.Int s.invariant_untestable);
            ]
           @
           match s.seq_redundant with
           | Some n -> [ ("seq_redundant", Obs.Json.Int n) ]
           | None -> []) );
     ]
    @
    match s.scoap with
    | Some sc when include_scoap -> [ ("scoap", scoap_json c sc) ]
    | _ -> [])

let fsm_to_json ~name diags =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String name);
      ("kind", Obs.Json.String "fsm");
      ("diagnostics", Obs.Json.List (List.map Diag.to_json diags));
      ("summary", summary_json diags []);
    ]
