(* Static untestability prover: cascade verdicts on known circuits, the
   shared fixpoint engine's bit-identity with the legacy constants loop,
   engine pruning, and the differential soundness fuzz (every prover
   verdict cross-checked against exhaustive product-machine fault
   simulation). *)

let v3 = Alcotest.testable Sim.Value3.pp Sim.Value3.equal

(* ------------------------------------------------------------ fixtures - *)

(* q0 <- a, q1 <- not a, g = and(q0, q1) -> z: state (1,1) is
   unreachable, so g/sa0 needs an unreachable activation state and the
   register stems' sa0 are masked in every reachable state. *)
let seq_redundant_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let q0 = Netlist.Build.add_dff b "q0" in
  let q1 = Netlist.Build.add_dff b "q1" in
  let na = Netlist.Build.add_gate b Netlist.Node.Not "na" [| a |] in
  let g = Netlist.Build.add_gate b Netlist.Node.And "g" [| q0; q1 |] in
  Netlist.Build.connect_dff b q0 a;
  Netlist.Build.connect_dff b q1 na;
  Netlist.Build.add_po b "z" g;
  (Netlist.Build.finalize b, g, q0, q1)

(* dead = and(a, b) drives nothing; z = or(a, b) is the only PO. *)
let unobservable_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let bb = Netlist.Build.add_pi b "b" in
  let dead = Netlist.Build.add_gate b Netlist.Node.And "dead" [| a; bb |] in
  let z = Netlist.Build.add_gate b Netlist.Node.Or "z" [| a; bb |] in
  Netlist.Build.add_po b "z" z;
  (Netlist.Build.finalize b, dead)

(* k is a constant-0 generator, g = and(a, k): g is constant 0 (g/sa0
   unexcitable) and a's fault effect is blocked at g (effect confined). *)
let const_blocked_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let k = Netlist.Build.add_const b "k" false in
  let g = Netlist.Build.add_gate b Netlist.Node.And "g" [| a; k |] in
  Netlist.Build.add_po b "z" g;
  (Netlist.Build.finalize b, a, k, g)

let verdict_of t (f : Fsim.Fault.t) = Analysis.Untest.lookup t f

let check_proved t fault cause evidence msg =
  match verdict_of t fault with
  | Analysis.Untest.Untestable p ->
    Alcotest.(check string)
      (msg ^ " cause")
      (Analysis.Untest.cause_to_string cause)
      (Analysis.Untest.cause_to_string p.Analysis.Untest.cause);
    Alcotest.(check string)
      (msg ^ " evidence")
      (Analysis.Untest.evidence_to_string evidence)
      (Analysis.Untest.evidence_to_string p.Analysis.Untest.evidence)
  | Analysis.Untest.Unknown -> Alcotest.failf "%s: expected a proof" msg

(* ------------------------------------------- fixpoint engine identity - *)

(* The legacy ternary constants sweep loop, verbatim (pre-Fixpoint),
   kept here as the regression reference for bit-identical output. *)
let legacy_constants (c : Netlist.Node.t) =
  let n = Netlist.Node.num_nodes c in
  let value = Array.make n Sim.Value3.X in
  let state =
    Array.map
      (fun id -> Sim.Value3.of_bool (Netlist.Node.dff_init c id))
      c.Netlist.Node.dffs
  in
  let eval () =
    Array.iter (fun id -> value.(id) <- Sim.Value3.X) c.Netlist.Node.pis;
    Array.iteri (fun i id -> value.(id) <- state.(i)) c.Netlist.Node.dffs;
    Array.iter
      (fun id ->
        let nd = Netlist.Node.node c id in
        match nd.Netlist.Node.kind with
        | Netlist.Node.Gate fn ->
          let ins = Array.map (fun f -> value.(f)) nd.Netlist.Node.fanins in
          value.(id) <- Sim.Value3.eval_gate fn ins
        | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
      c.Netlist.Node.order
  in
  let changed = ref true in
  let max_sweeps = Netlist.Node.num_dffs c + 2 in
  let sweeps = ref 0 in
  while !changed && !sweeps < max_sweeps do
    changed := false;
    incr sweeps;
    eval ();
    Array.iteri
      (fun i id ->
        let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
        let next =
          if Sim.Value3.equal state.(i) value.(data) then state.(i)
          else Sim.Value3.X
        in
        if not (Sim.Value3.equal next state.(i)) then begin
          state.(i) <- next;
          changed := true
        end)
      c.Netlist.Node.dffs
  done;
  eval ();
  value

let test_fixpoint_matches_legacy () =
  let circuits =
    [ ("seq-redundant", (fun () -> let c, _, _, _ = seq_redundant_circuit () in c) ());
      ("const-blocked", (fun () -> let c, _, _, _ = const_blocked_circuit () in c) ());
      ("synthesized", (Helpers.synthesize_small ()).Synth.Flow.circuit) ]
  in
  List.iter
    (fun (name, c) ->
      let legacy = legacy_constants c in
      let shared = Analysis.Fixpoint.constants c in
      Array.iteri
        (fun id v ->
          Alcotest.check v3 (Printf.sprintf "%s node %d" name id) v
            shared.(id))
        legacy)
    circuits

(* ------------------------------------------------------ cascade stages - *)

let test_unobservable () =
  let c, dead = unobservable_circuit () in
  (* the collapsed list drops faults on dangling nodes, so hand the
     classifier the dead gate's faults explicitly *)
  let faults =
    [| { Fsim.Fault.site = Fsim.Fault.Stem dead; stuck = true };
       { Fsim.Fault.site = Fsim.Fault.Stem dead; stuck = false } |]
  in
  let t = Analysis.Untest.classify ~faults c in
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem dead; stuck = true }
    Analysis.Untest.Unobservable Analysis.Untest.Structural "dead/sa1";
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem dead; stuck = false }
    Analysis.Untest.Unobservable Analysis.Untest.Structural "dead/sa0"

let test_ternary_stages () =
  let c, a, k, g = const_blocked_circuit () in
  let t = Analysis.Untest.classify ~symbolic:false c in
  (* g is proved constant 0 from power-up: sa0 on it is unexcitable *)
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem g; stuck = false }
    Analysis.Untest.Unexcitable Analysis.Untest.Ternary "g/sa0";
  (* a toggles freely but its effect is blocked by the constant side
     input at g's controlling value *)
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem a; stuck = false }
    Analysis.Untest.Effect_confined Analysis.Untest.Ternary "a/sa0";
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem a; stuck = true }
    Analysis.Untest.Effect_confined Analysis.Untest.Ternary "a/sa1";
  (* the constant generator's own sa1 is excitable (k reads 0, fault
     drives 1) and propagates: the engines must still see it *)
  Alcotest.(check bool)
    "k/sa1 stays unknown" true
    (verdict_of t { Fsim.Fault.site = Fsim.Fault.Stem k; stuck = true }
     = Analysis.Untest.Unknown);
  Alcotest.(check bool) "no symbolic stage ran" false
    t.Analysis.Untest.summary.Analysis.Untest.symbolic_ran

let test_symbolic_stages () =
  let c, g, q0, q1 = seq_redundant_circuit () in
  let t = Analysis.Untest.classify c in
  (* activation state (1,1) proved unreachable *)
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem g; stuck = false }
    Analysis.Untest.Unreachable_activation Analysis.Untest.Symbolic "g/sa0";
  (* register stems stuck at 0: masked in every reachable state — only
     the single-frame product check sees this cross-line correlation *)
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem q0; stuck = false }
    Analysis.Untest.Effect_confined Analysis.Untest.Symbolic "q0/sa0";
  check_proved t
    { Fsim.Fault.site = Fsim.Fault.Stem q1; stuck = false }
    Analysis.Untest.Effect_confined Analysis.Untest.Symbolic "q1/sa0";
  (* sa1 faults on the registers force g observable high: detectable *)
  Alcotest.(check bool)
    "q0/sa1 stays unknown" true
    (verdict_of t { Fsim.Fault.site = Fsim.Fault.Stem q0; stuck = true }
     = Analysis.Untest.Unknown);
  (* without the symbolic stage none of these are provable *)
  let t0 = Analysis.Untest.classify ~symbolic:false c in
  Alcotest.(check int) "static-only proves nothing here" 0
    t0.Analysis.Untest.summary.Analysis.Untest.proved;
  Alcotest.(check bool) "summary says symbolic ran" true
    t.Analysis.Untest.summary.Analysis.Untest.symbolic_ran;
  Alcotest.(check int) "three symbolic proofs" 3
    t.Analysis.Untest.summary.Analysis.Untest.symbolic

let test_invariant_universe () =
  let c, _, _, _ = seq_redundant_circuit () in
  let faults = Analysis.Untest.invariant_faults c in
  Array.iter
    (fun (f : Fsim.Fault.t) ->
      let site = Fsim.Fault.site_node f.Fsim.Fault.site in
      match (Netlist.Node.node c site).Netlist.Node.kind with
      | Netlist.Node.Dff _ -> Alcotest.fail "DFF site in invariant universe"
      | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> ())
    faults;
  (* 1 PI stem + not(1 stem + 1 pin) + and(1 stem + 2 pins), 2 polarities *)
  Alcotest.(check int) "universe size" 12 (Array.length faults);
  let t = Analysis.Untest.classify ~faults c in
  let names = Analysis.Untest.proved_names c t in
  Alcotest.(check bool) "g/sa0 proved in invariant universe" true
    (List.mem "g/sa0" names);
  Alcotest.(check bool) "sorted" true (List.sort compare names = names)

(* -------------------------------------------------------- engine prune - *)

(* C4: faults whose state divergence exists but never reaches a PO.
   a/sa0 pins q0=0, q1=1 — the state genuinely differs from the good
   machine's, yet g = q0 AND q1 stays 0 exactly as in every good
   reachable state, so no stage short of the exact product machine can
   prove it. *)
let test_product_stage () =
  let c, _, q0, _ = seq_redundant_circuit () in
  let a = (Netlist.Node.node c q0).Netlist.Node.fanins.(0) in
  let na =
    match
      Array.find_opt
        (fun (nd : Netlist.Node.node) ->
          nd.Netlist.Node.kind = Netlist.Node.Gate Netlist.Node.Not)
        c.Netlist.Node.nodes
    with
    | Some nd -> nd.Netlist.Node.id
    | None -> Alcotest.fail "fixture lost its inverter"
  in
  let t = Analysis.Untest.classify ~product:true c in
  List.iter
    (fun (site, stuck, msg) ->
      check_proved t
        { Fsim.Fault.site; stuck }
        Analysis.Untest.Machine_equivalent Analysis.Untest.Symbolic msg)
    [ (Fsim.Fault.Stem a, false, "a/sa0");
      (Fsim.Fault.Stem a, true, "a/sa1");
      (Fsim.Fault.Stem na, false, "na/sa0") ];
  (* na/sa1 forces q1=1 next to a reachable q0=1: truly detectable *)
  Alcotest.(check bool)
    "na/sa1 stays unknown" true
    (verdict_of t { Fsim.Fault.site = Fsim.Fault.Stem na; stuck = true }
     = Analysis.Untest.Unknown);
  (* the cheaper stages keep priority: g/sa0 still credited to C1 *)
  (match c.Netlist.Node.pos with
  | [| (_, g) |] ->
    check_proved t
      { Fsim.Fault.site = Fsim.Fault.Stem g; stuck = false }
      Analysis.Untest.Unreachable_activation Analysis.Untest.Symbolic
      "g/sa0 under product"
  | _ -> Alcotest.fail "fixture lost its PO");
  (* with the product stage every undetectable collapsed fault is proved *)
  Alcotest.(check int) "six proofs" 6 t.Analysis.Untest.summary.Analysis.Untest.proved

let test_engine_pruning () =
  let c, _, _, _ = seq_redundant_circuit () in
  let t = Analysis.Untest.classify ~product:true c in
  let prune = Analysis.Untest.prune t in
  let check_engine name (r : Atpg.Types.result) =
    let proved = ref 0 in
    Array.iteri
      (fun i (f : Fsim.Fault.t) ->
        if prune f then begin
          incr proved;
          Alcotest.(check string)
            (Printf.sprintf "%s fault %d pruned" name i)
            "proved_untestable"
            (Fsim.Fault.status_to_string r.Atpg.Types.status.(i))
        end)
      r.Atpg.Types.faults;
    Alcotest.(check bool) (name ^ " pruned something") true (!proved > 0);
    (* pruned faults count toward efficiency, not coverage *)
    Alcotest.(check bool)
      (name ^ " efficiency >= coverage") true
      (r.Atpg.Types.fault_efficiency >= r.Atpg.Types.fault_coverage);
    Alcotest.(check bool)
      (name ^ " full efficiency") true
      (r.Atpg.Types.fault_efficiency > 99.9)
  in
  check_engine "hitec" (Atpg.Hitec.generate ~prune c);
  check_engine "sest" (Atpg.Sest.generate ~prune c);
  check_engine "attest" (Atpg.Attest.generate ~prune c)

let test_prune_unpruned_identical () =
  (* a prune predicate that fires on nothing must leave the result
     bit-identical to an unpruned run *)
  let c = (Helpers.synthesize_small ()).Synth.Flow.circuit in
  let r0 = Atpg.Hitec.generate c in
  let r1 = Atpg.Hitec.generate ~prune:(fun _ -> false) c in
  Alcotest.(check (array string))
    "statuses identical"
    (Array.map Fsim.Fault.status_to_string r0.Atpg.Types.status)
    (Array.map Fsim.Fault.status_to_string r1.Atpg.Types.status);
  Alcotest.(check int) "work identical" r0.Atpg.Types.stats.Atpg.Types.work
    r1.Atpg.Types.stats.Atpg.Types.work

(* ------------------------------------------------ prefilter invariants - *)

let verdict_string = function
  | Analysis.Untest.Unknown -> "?"
  | Analysis.Untest.Untestable p ->
    Analysis.Untest.cause_to_string p.Analysis.Untest.cause
    ^ ":"
    ^ Analysis.Untest.evidence_to_string p.Analysis.Untest.evidence

let verdict_digest c (t : Analysis.Untest.t) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i f ->
      Printf.bprintf b "%s=%s\n" (Fsim.Fault.to_string c f)
        (verdict_string t.Analysis.Untest.verdicts.(i)))
    t.Analysis.Untest.faults;
  Digest.to_hex (Digest.string (Buffer.contents b))

let small_pair () =
  let c = (Helpers.synthesize_small ()).Synth.Flow.circuit in
  let re, _, _ = Retime.Apply.retime_aggressive ~period_slack:0.15 c in
  (c, re)

(* Per-fault verdicts pinned as digests taken before the prefilter
   fronted C3: skipping C3 on simulation-detected faults must not move a
   single verdict, with or without the product stage. *)
let test_verdict_digests () =
  let seq, _, _, _ = seq_redundant_circuit () in
  let o, re = small_pair () in
  List.iter
    (fun (name, c, product, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s product=%b" name product)
        want
        (verdict_digest c (Analysis.Untest.classify ~product c)))
    [ ("seq-redundant (C3 proofs)", seq, false,
       "ae5b2dd4114e358af4be4350f523d6a4");
      ("seq-redundant (C4 proofs)", seq, true,
       "462a431217e14f83b8ca7e15f88da75a");
      ("small", o, false, "52c2d68e143adc160116081994b40c69");
      ("small", o, true, "52c2d68e143adc160116081994b40c69");
      ("small.re", re, false, "ab8f6c507b442621dc4d888dcfd5d73c");
      ("small.re", re, true, "ab8f6c507b442621dc4d888dcfd5d73c") ]

(* A fault the prefilter detects is testable: no stage, before or behind
   the prefilter, may call it untestable. *)
let check_no_detected_proof name c =
  let t = Analysis.Untest.classify ~product:true c in
  let detected =
    Analysis.Untest.presimulate ~work:(ref 0) c t.Analysis.Untest.faults
  in
  Array.iteri
    (fun i d ->
      if d && t.Analysis.Untest.verdicts.(i) <> Analysis.Untest.Unknown then
        Alcotest.failf "%s: prefilter detected %s, yet it was proved untestable"
          name
          (Fsim.Fault.to_string c t.Analysis.Untest.faults.(i)))
    detected;
  Array.fold_left (fun a d -> if d then a + 1 else a) 0 detected

(* Reachability out of budget with the product stage on: the prefilter
   still runs (its cycles show in the work account) and nothing raises.
   C4's per-fault budget is a tenth of [max_nodes] and the product
   machine contains the good machine, so a budget that starves
   reachability starves C4 too; at [max_nodes] 10 it gets one node and
   stops before its first gate, which makes the work exact. *)
let test_prefilter_without_reachability () =
  let c, _, _, _ = seq_redundant_circuit () in
  let static = Analysis.Untest.classify ~symbolic:false c in
  let starved = Analysis.Untest.classify ~product:true ~max_nodes:10 c in
  let presim_work = ref 0 in
  ignore (Analysis.Untest.presimulate ~work:presim_work c static.Analysis.Untest.faults);
  Alcotest.(check bool) "reachability out of budget" false
    starved.Analysis.Untest.summary.Analysis.Untest.symbolic_ran;
  Alcotest.(check bool) "prefilter simulated something" true
    (!presim_work > 0);
  Alcotest.(check int) "work = static stages + prefilter"
    (static.Analysis.Untest.summary.Analysis.Untest.work + !presim_work)
    starved.Analysis.Untest.summary.Analysis.Untest.work;
  Alcotest.(check (array string)) "verdicts of the static stages"
    (Array.map verdict_string static.Analysis.Untest.verdicts)
    (Array.map verdict_string starved.Analysis.Untest.verdicts);
  (* every budget degrades to fewer proofs, never to an exception: the
     full budget proves every undetectable fault of this fixture, so a
     proof outside that set would be unsound *)
  let full = Analysis.Untest.classify ~product:true c in
  for max_nodes = 1 to 600 do
    match Analysis.Untest.classify ~product:true ~max_nodes c with
    | t ->
      Array.iteri
        (fun i v ->
          if v <> Analysis.Untest.Unknown
             && full.Analysis.Untest.verdicts.(i) = Analysis.Untest.Unknown
          then
            Alcotest.failf "max_nodes %d: proof of %s the full budget lacks"
              max_nodes
              (Fsim.Fault.to_string c t.Analysis.Untest.faults.(i)))
        t.Analysis.Untest.verdicts
    | exception e ->
      Alcotest.failf "max_nodes %d: classify raised %s" max_nodes
        (Printexc.to_string e)
  done

(* ------------------------------------------- differential soundness fuzz - *)

(* Exact single-stuck-at detectability by exhaustive product-machine
   BFS: run good and faulty machines in lockstep over every input from
   the shared power-up state; the fault is detectable iff some reachable
   (good, faulty) state pair shows a PO difference under some input.
   Small circuits only — the pair space is 4^#DFF. *)
let eval_gate_bool fn (ins : bool array) =
  let fold op =
    let acc = ref ins.(0) in
    for k = 1 to Array.length ins - 1 do
      acc := op !acc ins.(k)
    done;
    !acc
  in
  match fn with
  | Netlist.Node.And -> fold ( && )
  | Netlist.Node.Or -> fold ( || )
  | Netlist.Node.Nand -> not (fold ( && ))
  | Netlist.Node.Nor -> not (fold ( || ))
  | Netlist.Node.Not -> not ins.(0)
  | Netlist.Node.Buf -> ins.(0)
  | Netlist.Node.Xor -> ins.(0) <> ins.(1)
  | Netlist.Node.Xnor -> ins.(0) = ins.(1)

let eval_frame c ~fault state inputs =
  let n = Netlist.Node.num_nodes c in
  let value = Array.make n false in
  let apply_stem id v =
    match fault with
    | Some { Fsim.Fault.site = Fsim.Fault.Stem sid; stuck } when sid = id ->
      stuck
    | _ -> v
  in
  let faulty_pin id pin =
    match fault with
    | Some { Fsim.Fault.site = Fsim.Fault.Pin { gate; pin = p }; stuck }
      when gate = id && p = pin ->
      Some stuck
    | _ -> None
  in
  Array.iteri
    (fun i id -> value.(id) <- apply_stem id inputs.(i))
    c.Netlist.Node.pis;
  Array.iteri
    (fun i id -> value.(id) <- apply_stem id state.(i))
    c.Netlist.Node.dffs;
  Array.iter
    (fun id ->
      let nd = Netlist.Node.node c id in
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn ->
        let ins =
          Array.mapi
            (fun i fid ->
              match faulty_pin id i with
              | Some v -> v
              | None -> value.(fid))
            nd.Netlist.Node.fanins
        in
        value.(id) <- apply_stem id (eval_gate_bool fn ins)
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
    c.Netlist.Node.order;
  let pos = Array.map (fun (_, id) -> value.(id)) c.Netlist.Node.pos in
  let next =
    Array.mapi
      (fun i id ->
        let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
        match faulty_pin id 0 with
        | Some v -> v
        | None ->
          ignore i;
          value.(data))
      c.Netlist.Node.dffs
  in
  (pos, next)

let state_code bits =
  Array.fold_left (fun a b -> (a * 2) + if b then 1 else 0) 0 bits

let exhaustively_detectable c (fault : Fsim.Fault.t) =
  let npis = Netlist.Node.num_pis c in
  let init =
    Array.map (fun id -> Netlist.Node.dff_init c id) c.Netlist.Node.dffs
  in
  let inputs_of k = Array.init npis (fun i -> (k lsr i) land 1 = 1) in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push pair =
    let code = (state_code (fst pair) * 65536) + state_code (snd pair) in
    if not (Hashtbl.mem seen code) then begin
      Hashtbl.add seen code ();
      Queue.add pair queue
    end
  in
  push (init, init);
  let detected = ref false in
  while (not !detected) && not (Queue.is_empty queue) do
    let sg, sf = Queue.pop queue in
    for k = 0 to (1 lsl npis) - 1 do
      let inputs = inputs_of k in
      let pog, ng = eval_frame c ~fault:None sg inputs in
      let pof, nf = eval_frame c ~fault:(Some fault) sf inputs in
      if pog <> pof then detected := true else push (ng, nf)
    done
  done;
  !detected

let test_prefilter_never_proved () =
  let seq, _, _, _ = seq_redundant_circuit () in
  let cb, _, _, _ = const_blocked_circuit () in
  let o, re = small_pair () in
  let fixed =
    [ ("seq-redundant", seq); ("const-blocked", cb); ("small", o);
      ("small.re", re) ]
  in
  let rng = Random.State.make [| 0x5ea1; 7 |] in
  let fuzz =
    List.init 20 (fun k ->
        (Printf.sprintf "fuzz %d" k, Helpers.random_circuit rng))
  in
  let detected =
    List.fold_left
      (fun a (name, c) -> a + check_no_detected_proof name c)
      0 (fixed @ fuzz)
  in
  (* vacuous unless the prefilter detects something *)
  Alcotest.(check bool) "prefilter detected some faults" true (detected > 0)

(* Static-vs-symbolic cross-check: a fault proved Unexcitable has its
   source constant at the stuck value in every cycle from power-up,
   reachable or not, so the reachable-state constants must agree.  A
   disagreement would mean one of the two provers is wrong. *)
let check_unexcitable_reachable name c =
  let t = Analysis.Untest.classify ~symbolic:false c in
  match
    Analysis.Untest.reachable_constants
      ~max_nodes:Analysis.Symreach.default_max_nodes c
  with
  | None -> Alcotest.failf "%s: reachability ran out of nodes" name
  | Some (rc, _) ->
    let checked = ref 0 in
    Array.iteri
      (fun i (f : Fsim.Fault.t) ->
        match t.Analysis.Untest.verdicts.(i) with
        | Analysis.Untest.Untestable { cause = Analysis.Untest.Unexcitable; _ }
          ->
          incr checked;
          if rc.(Analysis.Untest.fault_source c f) <> Some f.Fsim.Fault.stuck
          then
            Alcotest.failf
              "%s: %s proved unexcitable, yet a reachable state activates it"
              name (Fsim.Fault.to_string c f)
        | _ -> ())
      t.Analysis.Untest.faults;
    !checked

let test_unexcitable_reachable () =
  let seq, _, _, _ = seq_redundant_circuit () in
  let cb, _, _, _ = const_blocked_circuit () in
  let o, re = small_pair () in
  (* the circuits of the differential soundness fuzz below *)
  let rng = Random.State.make [| 0x5ea1; 42 |] in
  let fuzz =
    List.init 30 (fun k ->
        (Printf.sprintf "fuzz %d" k, Helpers.random_circuit rng))
  in
  let checked =
    List.fold_left
      (fun a (name, c) -> a + check_unexcitable_reachable name c)
      0
      ([ ("seq-redundant", seq); ("const-blocked", cb); ("small", o);
         ("small.re", re) ]
      @ fuzz)
  in
  Alcotest.(check bool) "some unexcitable proofs checked" true (checked > 0)

let test_differential_soundness () =
  let rng = Random.State.make [| 0x5ea1; 42 |] in
  let circuits = 30 in
  let proved_total = ref 0 in
  for trial = 1 to circuits do
    let c = Helpers.random_circuit rng in
    let t = Analysis.Untest.classify ~product:true c in
    (* every prover verdict must agree with exhaustive fault simulation *)
    Array.iteri
      (fun i (f : Fsim.Fault.t) ->
        match t.Analysis.Untest.verdicts.(i) with
        | Analysis.Untest.Unknown -> ()
        | Analysis.Untest.Untestable _ ->
          incr proved_total;
          if exhaustively_detectable c f then
            Alcotest.failf
              "trial %d: prover called %s untestable but it is detectable"
              trial
              (Fsim.Fault.to_string c f))
      t.Analysis.Untest.faults;
    (* engine agreement: redundancy proofs from the search must also be
       exhaustively undetectable, and detections must be real *)
    let r = Atpg.Hitec.generate c in
    Array.iteri
      (fun i (f : Fsim.Fault.t) ->
        match r.Atpg.Types.status.(i) with
        | Fsim.Fault.Redundant ->
          if exhaustively_detectable c f then
            Alcotest.failf
              "trial %d: engine called %s redundant but it is detectable"
              trial
              (Fsim.Fault.to_string c f)
        | Fsim.Fault.Detected ->
          if Analysis.Untest.lookup t f <> Analysis.Untest.Unknown then
            Alcotest.failf
              "trial %d: engine detected %s the prover proved untestable"
              trial
              (Fsim.Fault.to_string c f)
        | Fsim.Fault.Aborted | Fsim.Fault.Untested
        | Fsim.Fault.Proved_untestable ->
          ())
      r.Atpg.Types.faults
  done;
  (* the fuzz is vacuous if the generator never yields provable faults *)
  Alcotest.(check bool)
    (Printf.sprintf "prover fired on some fuzz fault (%d)" !proved_total)
    true (!proved_total > 0)

let suite =
  [
    Alcotest.test_case "fixpoint matches legacy constants" `Quick
      test_fixpoint_matches_legacy;
    Alcotest.test_case "structural: unobservable site" `Quick
      test_unobservable;
    Alcotest.test_case "ternary: unexcitable + confined" `Quick
      test_ternary_stages;
    Alcotest.test_case "symbolic: activation + product" `Quick
      test_symbolic_stages;
    Alcotest.test_case "exact product-machine stage" `Quick
      test_product_stage;
    Alcotest.test_case "invariant fault universe" `Quick
      test_invariant_universe;
    Alcotest.test_case "engines consume prune verdicts" `Quick
      test_engine_pruning;
    Alcotest.test_case "empty prune is identity" `Quick
      test_prune_unpruned_identical;
    Alcotest.test_case "verdict digests pinned" `Quick test_verdict_digests;
    Alcotest.test_case "prefilter-detected faults never proved" `Quick
      test_prefilter_never_proved;
    Alcotest.test_case "prefilter without reachability" `Quick
      test_prefilter_without_reachability;
    Alcotest.test_case "unexcitable agrees with reachable constants" `Quick
      test_unexcitable_reachable;
    Alcotest.test_case "differential soundness fuzz" `Slow
      test_differential_soundness;
  ]
