(* Static untestability prover.

   Classifies stuck-at faults before any ATPG engine spends budget,
   through a soundness-ordered cascade — each stage is strictly more
   expensive and strictly sharper than the last, and the first proof
   wins so the recorded evidence names the cheapest sufficient stage:

     A. structural   the fault site has no connectivity path to any PO
                     (pure graph reachability; retiming-invariant)
     B1. ternary     the fault's source line is proved constant at the
                     stuck value in every cycle from power-up
                     ({!Fixpoint.constants}), so it can never be excited
     B2. ternary     the fault *effect cone* — the least set of lines
                     the good/faulty machines can ever disagree on —
                     contains no PO driver, with propagation blocked by
                     proved-constant side inputs
     C1. symbolic    no reachable state under any input drives the
                     source line to the activation value (BDD reachable
                     set, {!Symreach})
     C2. symbolic    the effect cone recomputed with reachable-state
                     constants as blockers is confined; valid only when
                     the cone also contains no register, which pins the
                     faulty machine inside the good reachable set
     C3. symbolic    single-frame product check: the fault is injected
                     into the BDD node functions and the good and faulty
                     machines proved to agree on every PO and every
                     next-state function over reached x inputs — the
                     faulty machine then tracks the good machine's state
                     exactly, cycle by cycle, so no sequence ever
                     distinguishes them.  This is the stage that sees
                     cross-line correlations (e.g. retimed register
                     copies that are equal in every reachable state)
                     which per-line constants cannot express.
     C4. symbolic    exact product-machine reachability (opt-in,
                     [product:true]): breadth-first image computation
                     over (good state, faulty state) pairs from the
                     shared power-up state, in a fresh per-fault
                     manager.  The fault is undetectable iff no
                     reachable pair shows a PO difference under any
                     input — this is the *exact* sequential redundancy
                     criterion, catching faults whose state divergence
                     exists but never propagates to an output (e.g. a
                     register feeding only masked logic).

   Soundness of the cone (stages B2/C2): E is computed as a least
   fixpoint where a gate joins the effect through fanin i unless some
   *other* fanin j with E(j) = false is proved constant at the gate's
   controlling value.  The ¬E(j) guard is essential: a sibling whose own
   value the fault can corrupt is no blocker (reconvergence through the
   fault line).  By lexicographic induction on (cycle, topological
   level), any line where good and faulty machines disagree is in E: an
   uncorrupted side input (¬E(j), by induction equal in both machines)
   at the controlling value forces the gate output in both machines, and
   a register differs at t+1 only if its data line differed at t.  For
   B2 the blockers are power-up-sound ternary constants, valid in the
   faulty machine on every uncorrupted line, so E ∩ PO-drivers = ∅ means
   no output ever differs — undetectable.  For C2 the blockers only hold
   in *reachable good* states, so the proof additionally requires
   E ∩ DFFs = ∅: then the faulty machine's state equals the good
   machine's state at every cycle and never leaves the reachable set.

   Prefilter (in front of C3 and C4): before the per-fault BDD stages
   run, every fault goes through 4×128 seeded random vectors on the
   word-parallel fault simulator.  A fault some vector detects is
   testable, so a sound stage could only answer "unknown" for it; C3 and
   C4 are skipped for it and spent on the random-resistant residue,
   where the undetectable faults live.  Stages A–C2 run first and are
   unaffected.  The prefilter runs whenever C3 or C4 can: after a
   completed reachability pass, or with the product stage on even when
   reachability ran out of nodes.

   The symbolic stage is budgeted: {!Bdd.Node_limit} (at exploration or
   during any later oracle query) degrades the whole stage to "unknown",
   never to a wrong verdict.

   Like every [order]-trusting analysis, requires a cycle-free circuit. *)

type cause =
  | Unobservable
  | Unexcitable
  | Effect_confined
  | Unreachable_activation
  | Machine_equivalent

type evidence = Structural | Ternary | Symbolic
type proof = { cause : cause; evidence : evidence }
type verdict = Unknown | Untestable of proof

type summary = {
  total : int;
  proved : int;
  structural : int;
  ternary : int;
  symbolic : int;
  symbolic_ran : bool;
  bdd_nodes : int;
  work : int;
}

type t = {
  faults : Fsim.Fault.t array;
  verdicts : verdict array;
  summary : summary;
}

let cause_to_string = function
  | Unobservable -> "unobservable"
  | Unexcitable -> "unexcitable"
  | Effect_confined -> "effect_confined"
  | Unreachable_activation -> "unreachable_activation"
  | Machine_equivalent -> "machine_equivalent"

let cause_of_string = function
  | "unobservable" -> Some Unobservable
  | "unexcitable" -> Some Unexcitable
  | "effect_confined" -> Some Effect_confined
  | "unreachable_activation" -> Some Unreachable_activation
  | "machine_equivalent" -> Some Machine_equivalent
  | _ -> None

let evidence_to_string = function
  | Structural -> "structural"
  | Ternary -> "ternary"
  | Symbolic -> "symbolic"

let evidence_of_string = function
  | "structural" -> Some Structural
  | "ternary" -> Some Ternary
  | "symbolic" -> Some Symbolic
  | _ -> None

let v ~faults ~verdicts ~summary = { faults; verdicts; summary }

(* ------------------------------------------------------------- metrics - *)

let m_classified = Obs.Metrics.counter "untest.faults_classified"
let m_proved = Obs.Metrics.counter "untest.proved"
let m_structural = Obs.Metrics.counter "untest.proved_structural"
let m_ternary = Obs.Metrics.counter "untest.proved_ternary"
let m_symbolic = Obs.Metrics.counter "untest.proved_symbolic"
let m_work = Obs.Metrics.counter "untest.work"

(* ------------------------------------------------------- fault universe - *)

(* The Theorem-1 comparison universe: the full (uncollapsed) stuck-at
   fault set of the gate and PI sites.  Gates and PIs — names included —
   are preserved verbatim by retiming, which only moves registers along
   wires, so a correct retiming must leave this set's untestability
   pointwise invariant; DFF-site faults are excluded because the
   register count itself legitimately changes. *)
let invariant_faults c =
  let out = ref [] in
  let add site = out := { Fsim.Fault.site; stuck = true } :: { Fsim.Fault.site; stuck = false } :: !out
  in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      let id = nd.Netlist.Node.id in
      match nd.Netlist.Node.kind with
      | Netlist.Node.Dff _ -> ()
      | Netlist.Node.Pi _ -> add (Fsim.Fault.Stem id)
      | Netlist.Node.Gate _ ->
        add (Fsim.Fault.Stem id);
        Array.iteri
          (fun pin _ -> add (Fsim.Fault.Pin { gate = id; pin }))
          nd.Netlist.Node.fanins)
    c.Netlist.Node.nodes;
  Array.of_list (List.rev !out)

(* ----------------------------------------------------------- effect cone - *)

let controlling = function
  | Netlist.Node.And | Netlist.Node.Nand -> Some false
  | Netlist.Node.Or | Netlist.Node.Nor -> Some true
  | Netlist.Node.Not | Netlist.Node.Buf | Netlist.Node.Xor | Netlist.Node.Xnor
    ->
    None

let fault_source c (f : Fsim.Fault.t) =
  match f.Fsim.Fault.site with
  | Fsim.Fault.Stem id -> id
  | Fsim.Fault.Pin { gate; pin } ->
    (Netlist.Node.node c gate).Netlist.Node.fanins.(pin)

(* E(n): can the fault effect ever appear on line n?  [const id] supplies
   the blocking side-input constants (ternary or reachable-symbolic). *)
let effect_cone c ~const ~work (f : Fsim.Fault.t) =
  let site_gate, site_pin =
    match f.Fsim.Fault.site with
    | Fsim.Fault.Stem id -> (id, -1)
    | Fsim.Fault.Pin { gate; pin } -> (gate, pin)
  in
  (* A stem fault corrupts its node's output directly; a fault on a DFF
     data pin corrupts the register itself. *)
  let forced =
    match f.Fsim.Fault.site with
    | Fsim.Fault.Stem id -> id
    | Fsim.Fault.Pin { gate; _ } ->
      (match (Netlist.Node.node c gate).Netlist.Node.kind with
      | Netlist.Node.Dff _ -> gate
      | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> -1)
  in
  let force id = if id = forced then Some true else None in
  let gate (nd : Netlist.Node.node) ins =
    incr work;
    let id = nd.Netlist.Node.id in
    let fn =
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn -> fn
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> assert false
    in
    let nfan = Array.length nd.Netlist.Node.fanins in
    let corrupted i = ins.(i) || (id = site_gate && i = site_pin) in
    let propagates i =
      match controlling fn with
      | None -> true
      | Some cv ->
        let blocked = ref false in
        for j = 0 to nfan - 1 do
          if
            j <> i
            && (not (corrupted j))
            && const nd.Netlist.Node.fanins.(j) = Some cv
          then blocked := true
        done;
        not !blocked
    in
    let e = ref false in
    for i = 0 to nfan - 1 do
      if corrupted i && propagates i then e := true
    done;
    !e
  in
  Fixpoint.run ~equal:Bool.equal ~join:( || ) ~default:false
    ~pi:(fun _ -> false)
    ~dff_seed:(fun _ -> false)
    ~gate ~force c

let po_hit c e = Array.exists (fun (_, id) -> e.(id)) c.Netlist.Node.pos
let dff_hit c e = Array.exists (fun id -> e.(id)) c.Netlist.Node.dffs

(* ------------------------------------------------- structural stage (A) - *)

(* Backward connectivity from the POs, registers transparent: pure
   graph reachability, invariant under retiming (also lint's NET004). *)
let structurally_observable c =
  let n = Netlist.Node.num_nodes c in
  let obs = Array.make n false in
  let queue = Queue.create () in
  let mark id =
    if not obs.(id) then begin
      obs.(id) <- true;
      Queue.add id queue
    end
  in
  Array.iter (fun (_, id) -> mark id) c.Netlist.Node.pos;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    Array.iter mark (Netlist.Node.node c id).Netlist.Node.fanins
  done;
  obs

(* -------------------------------------------------------- symbolic stage - *)

(* Per-line reachable-state constants: [Some v] when the line holds [v]
   in every reachable state under every input.  One upfront pass keeps
   the exploration and every constant query inside a single Node_limit
   guard; per-fault C1/C2 classification is then pure array lookups. *)
let symbolic_env ~max_nodes c =
  (* the constant queries allocate in the exploration's manager too, so
     they sit inside the same guard *)
  match
    let r = Symreach.explore ~max_nodes c in
    let n = Netlist.Node.num_nodes c in
    let rc = Array.make n None in
    for id = 0 to n - 1 do
      if not (Symreach.can_take r id true) then rc.(id) <- Some false
      else if not (Symreach.can_take r id false) then rc.(id) <- Some true
    done;
    (r, rc)
  with
  | env -> Some env
  | exception (Bdd.Node_limit | Invalid_argument _) -> None

let reachable_constants ~max_nodes c =
  Option.map
    (fun (r, rc) -> (rc, r.Symreach.summary.Symreach.bdd_nodes))
    (symbolic_env ~max_nodes c)

let gate_func man fn (ins : Bdd.t array) =
  let fold op =
    let acc = ref ins.(0) in
    for k = 1 to Array.length ins - 1 do
      acc := op man !acc ins.(k)
    done;
    !acc
  in
  match fn with
  | Netlist.Node.And -> fold Bdd.and_
  | Netlist.Node.Or -> fold Bdd.or_
  | Netlist.Node.Nand -> Bdd.not_ (fold Bdd.and_)
  | Netlist.Node.Nor -> Bdd.not_ (fold Bdd.or_)
  | Netlist.Node.Not -> Bdd.not_ ins.(0)
  | Netlist.Node.Buf -> ins.(0)
  | Netlist.Node.Xor -> Bdd.xor_ man ins.(0) ins.(1)
  | Netlist.Node.Xnor -> Bdd.xnor_ man ins.(0) ins.(1)

(* C3.  Inject the fault into the per-node BDD functions (recomputing
   only the combinational fanout cone of the site) and test whether some
   reachable state under some input produces a difference at a PO or at
   a register's data input.  [true] means no frame starting from a good
   reachable state can ever excite an observable difference; since the
   next-state functions agree the faulty machine's state equals the good
   machine's at every cycle (induction from the shared power-up state,
   never leaving the reachable set), so agreement holds at all cycles
   and the fault is undetectable.  May raise {!Bdd.Node_limit}. *)
let single_frame_confined (r : Symreach.result) ~work (f : Fsim.Fault.t) =
  let c = r.Symreach.circuit in
  let man = r.Symreach.man in
  let good = r.Symreach.node_funcs in
  let stuck = if f.Fsim.Fault.stuck then Bdd.one else Bdd.zero in
  let faulty = Array.copy good in
  let n = Netlist.Node.num_nodes c in
  let recompute = Array.make n false in
  (* [root]: first corrupted node.  A stem fault overwrites the root's
     own function; a gate-pin fault recomputes the root with one input
     replaced; a DFF data-pin fault corrupts no in-frame function, only
     the register's next-state comparison below. *)
  let mark_cone root =
    List.iter
      (fun id ->
        match (Netlist.Node.node c id).Netlist.Node.kind with
        | Netlist.Node.Gate _ -> recompute.(id) <- true
        | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
      (Netlist.Stats.comb_fanout_cone c root)
  in
  (match f.Fsim.Fault.site with
  | Fsim.Fault.Stem id ->
    faulty.(id) <- stuck;
    mark_cone id;
    recompute.(id) <- false
  | Fsim.Fault.Pin { gate; _ } -> (
    match (Netlist.Node.node c gate).Netlist.Node.kind with
    | Netlist.Node.Dff _ -> ()
    | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> mark_cone gate));
  Array.iter
    (fun id ->
      if recompute.(id) then begin
        incr work;
        let nd = Netlist.Node.node c id in
        let fn =
          match nd.Netlist.Node.kind with
          | Netlist.Node.Gate fn -> fn
          | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> assert false
        in
        let ins =
          Array.mapi
            (fun i fid ->
              match f.Fsim.Fault.site with
              | Fsim.Fault.Pin { gate; pin } when gate = id && pin = i ->
                stuck
              | _ -> faulty.(fid))
            nd.Netlist.Node.fanins
        in
        faulty.(id) <- gate_func man fn ins
      end)
    c.Netlist.Node.order;
  let diff = ref Bdd.zero in
  let note g f = if not (Bdd.equal g f) then diff := Bdd.or_ man !diff (Bdd.xor_ man g f)
  in
  Array.iter (fun (_, id) -> note good.(id) faulty.(id)) c.Netlist.Node.pos;
  Array.iter
    (fun id ->
      let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
      let faulty_next =
        match f.Fsim.Fault.site with
        | Fsim.Fault.Pin { gate; pin = 0 } when gate = id -> stuck
        | _ -> faulty.(data)
      in
      note good.(data) faulty_next)
    c.Netlist.Node.dffs;
  Bdd.is_false (Bdd.and_ man r.Symreach.reached !diff)

(* C4.  Exact product-machine reachability: explore the pair space
   (good state, faulty state) from the shared power-up state and test
   every reached pair, under every input, for a PO difference.  This is
   the textbook sequential-redundancy criterion — detectable iff some
   input sequence distinguishes the two machines — so a completed
   fixpoint with an empty detect intersection is an unconditional
   undetectability proof.

   Variable layout (one interleaved rail of four per register, PIs at
   the bottom): good-current [4i], good-next [4i+1], faulty-current
   [4i+2], faulty-next [4i+3], PI [idx] at [4*nff + idx].  Keeping a
   register's four rails adjacent keeps the transition relation's
   next-state constraints local, and the [v -> v-1] rename that maps a
   next-state image back onto current-state variables is
   order-preserving as {!Bdd.rename} requires.

   A fresh manager per fault: the faulty copy's functions differ per
   fault, and an analysis-lifetime shared manager (no GC) would
   accumulate dead nodes across thousands of faults straight into
   {!Bdd.Node_limit}.  The budget is therefore per-fault, and a blow-up
   costs only that fault its verdict. *)
let product_undetectable ~max_nodes ~work c (f : Fsim.Fault.t) =
  let exception Detectable in
  try
    let nff = Netlist.Node.num_dffs c in
    let man = Bdd.create ~max_nodes () in
    let stuck = if f.Fsim.Fault.stuck then Bdd.one else Bdd.zero in
    (* per-node functions of one machine copy over its own current-state
       rail; [inject] turns on fault injection for the faulty copy *)
    let copy_funcs ~cur ~inject =
      let funcs = Array.make (Netlist.Node.num_nodes c) Bdd.zero in
      Array.iteri (fun i id -> funcs.(id) <- cur i) c.Netlist.Node.dffs;
      Array.iteri
        (fun idx id -> funcs.(id) <- Bdd.var man ((4 * nff) + idx))
        c.Netlist.Node.pis;
      let stem_override id =
        inject
        &&
        match f.Fsim.Fault.site with
        | Fsim.Fault.Stem sid -> sid = id
        | Fsim.Fault.Pin _ -> false
      in
      Array.iter
        (fun id -> if stem_override id then funcs.(id) <- stuck)
        c.Netlist.Node.pis;
      Array.iter
        (fun id -> if stem_override id then funcs.(id) <- stuck)
        c.Netlist.Node.dffs;
      Array.iter
        (fun id ->
          let nd = Netlist.Node.node c id in
          match nd.Netlist.Node.kind with
          | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ()
          | Netlist.Node.Gate fn ->
            incr work;
            let ins =
              Array.mapi
                (fun i fid ->
                  match f.Fsim.Fault.site with
                  | Fsim.Fault.Pin { gate; pin }
                    when inject && gate = id && pin = i ->
                    stuck
                  | _ -> funcs.(fid))
                nd.Netlist.Node.fanins
            in
            funcs.(id) <- gate_func man fn ins;
            if stem_override id then funcs.(id) <- stuck)
        c.Netlist.Node.order;
      funcs
    in
    let good = copy_funcs ~cur:(fun i -> Bdd.var man (4 * i)) ~inject:false in
    let faulty =
      copy_funcs ~cur:(fun i -> Bdd.var man ((4 * i) + 2)) ~inject:true
    in
    (* a fault on a DFF's data pin bypasses the data line of that
       register only, in the faulty copy only *)
    let next_of funcs ~inject id =
      let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
      match f.Fsim.Fault.site with
      | Fsim.Fault.Pin { gate; pin = 0 } when inject && gate = id -> stuck
      | _ -> funcs.(data)
    in
    let trans = ref Bdd.one in
    Array.iteri
      (fun i id ->
        let ng = Bdd.xnor_ man (Bdd.var man ((4 * i) + 1)) (next_of good ~inject:false id)
        and nf = Bdd.xnor_ man (Bdd.var man ((4 * i) + 3)) (next_of faulty ~inject:true id)
        in
        trans := Bdd.and_ man !trans (Bdd.and_ man ng nf))
      c.Netlist.Node.dffs;
    let trans = !trans in
    let detect = ref Bdd.zero in
    Array.iter
      (fun (_, id) ->
        if not (Bdd.equal good.(id) faulty.(id)) then
          detect := Bdd.or_ man !detect (Bdd.xor_ man good.(id) faulty.(id)))
      c.Netlist.Node.pos;
    let detect = !detect in
    if Bdd.is_false detect && nff = 0 then true
    else begin
      let quantified v = v >= 4 * nff || v land 1 = 0 in
      let image s =
        Bdd.rename man (fun v -> v - 1) (Bdd.and_exists man quantified trans s)
      in
      let init = ref Bdd.one in
      Array.iteri
        (fun i id ->
          let v = Netlist.Node.dff_init c id in
          let lg = Bdd.var man (4 * i) and lf = Bdd.var man ((4 * i) + 2) in
          init := Bdd.and_ man !init (if v then lg else Bdd.not_ lg);
          init := Bdd.and_ man !init (if v then lf else Bdd.not_ lf))
        c.Netlist.Node.dffs;
      let reached = ref !init in
      let frontier = ref !init in
      while not (Bdd.is_false !frontier) do
        incr work;
        if not (Bdd.is_false (Bdd.and_ man !frontier detect)) then
          raise Detectable;
        let next = image !frontier in
        frontier := Bdd.and_ man next (Bdd.not_ !reached);
        reached := Bdd.or_ man !reached next
      done;
      true
    end
  with
  | Detectable -> false
  | Bdd.Node_limit | Invalid_argument _ -> false

(* Prefilter for C3 and C4: word-parallel random fault simulation
   (fixed seed, so classification stays deterministic).  Any fault some
   random sequence detects is testable — a sound check could only come
   back "unknown" or "detectable" for it — so the per-fault BDD stages
   are spent on the hard residue only: random-resistant faults, which
   is exactly where the undetectable ones live.  Unsound in neither
   direction: detection here yields [Unknown] (correct for a testable
   fault), and undetected faults still get the full checks. *)
let presimulate ~work c faults =
  let rng = Random.State.make [| 0x9e37; Netlist.Node.num_nodes c |] in
  let detected = Array.make (Array.length faults) false in
  for _round = 1 to 4 do
    let vectors =
      Sim.Vectors.random_sequence rng ~width:(Netlist.Node.num_pis c)
        ~length:128
    in
    (* fault dropping: lanes already detected in earlier rounds are free *)
    let run = Fsim.Engine.simulate ~skip:(Array.copy detected) c faults vectors in
    work := !work + run.Fsim.Engine.cycles;
    Array.iteri
      (fun i d -> if d then detected.(i) <- true)
      run.Fsim.Engine.detected
  done;
  detected

(* --------------------------------------------------------------- cascade - *)

type env = {
  c : Netlist.Node.t;
  sobs : bool array;
  values : Sim.Value3.t array;
  has_consts : bool;
  reach : (Symreach.result * bool option array) option;
  sharper : bool;
  single_frame_live : bool ref;
      (* cleared on the first Node_limit inside C3: the shared manager
         is full, so later single-frame checks would only fail again.
         Prefiltered faults never reach C3, so the manager holds a
         subset of the nodes it would hold without the prefilter and the
         latch can only fire later: skipping can add proofs, never lose
         one. *)
  product_nodes : int;  (* per-fault C4 budget; 0 disables the stage *)
  presim_detected : bool array;
      (* C3/C4 prefilter: faults random simulation already detects *)
  work : int ref;
}

let static_const env id = Sim.Value3.to_bool_opt env.values.(id)

let classify_fault env i (f : Fsim.Fault.t) =
  let site = Fsim.Fault.site_node f.Fsim.Fault.site in
  let src = fault_source env.c f in
  if not env.sobs.(site) then
    Untestable { cause = Unobservable; evidence = Structural }
  else if static_const env src = Some f.Fsim.Fault.stuck then
    Untestable { cause = Unexcitable; evidence = Ternary }
  else if
    (* without any proved constant the cone degenerates to forward
       connectivity, which stage A already decided *)
    env.has_consts
    && not (po_hit env.c (effect_cone env.c ~const:(static_const env) ~work:env.work f))
  then Untestable { cause = Effect_confined; evidence = Ternary }
  else
    let sym =
      match env.reach with
      | None -> Unknown
      | Some (r, rc) ->
        if rc.(src) = Some f.Fsim.Fault.stuck then
          Untestable { cause = Unreachable_activation; evidence = Symbolic }
        else if
          env.sharper
          &&
          let e =
            effect_cone env.c ~const:(fun id -> rc.(id)) ~work:env.work f
          in
          (not (po_hit env.c e)) && not (dff_hit env.c e)
        then Untestable { cause = Effect_confined; evidence = Symbolic }
        else if (not env.presim_detected.(i)) && !(env.single_frame_live)
        then begin
          match single_frame_confined r ~work:env.work f with
          | true -> Untestable { cause = Effect_confined; evidence = Symbolic }
          | false -> Unknown
          | exception (Bdd.Node_limit | Invalid_argument _) ->
            env.single_frame_live := false;
            Unknown
        end
        else Unknown
    in
    match sym with
    | Untestable _ -> sym
    | Unknown ->
      if
        env.product_nodes > 0
        && (not env.presim_detected.(i))
        && product_undetectable ~max_nodes:env.product_nodes ~work:env.work
             env.c f
      then Untestable { cause = Machine_equivalent; evidence = Symbolic }
      else Unknown

let classify ?(symbolic = true) ?(max_nodes = Symreach.default_max_nodes)
    ?(product = false) ?faults c =
  Obs.Trace.span "untest.classify" @@ fun () ->
  let faults =
    match faults with Some fs -> fs | None -> Fsim.Collapse.list c
  in
  let work = ref 0 in
  let sobs =
    Obs.Trace.span "untest.structural" (fun () -> structurally_observable c)
  in
  let values =
    Obs.Trace.span "untest.ternary" (fun () ->
        work := !work + Netlist.Node.num_nodes c;
        Fixpoint.constants c)
  in
  let has_consts =
    Array.exists (fun v -> Sim.Value3.to_bool_opt v <> None) values
  in
  let reach =
    if not symbolic then None
    else
      Obs.Trace.span "untest.symbolic" (fun () -> symbolic_env ~max_nodes c)
  in
  (* reachable constants only sharpen the cone when they prove a line
     the power-up ternary pass could not *)
  let sharper =
    match reach with
    | None -> false
    | Some (_, rc) ->
      let s = ref false in
      Array.iteri
        (fun id v ->
          if v <> None && Sim.Value3.to_bool_opt values.(id) = None then
            s := true)
        rc;
      !s
  in
  (* C4 rides on the symbolic opt-in: static-only classification must
     stay BDD-free.  A tenth of the reachable-set budget per fault: the
     pair space squares the state space, so a fault that needs more nodes
     than that is almost always a blow-up, and blow-ups cost wall time
     proportional to the budget — per-fault, across potentially
     thousands of faults. *)
  let product_nodes =
    if symbolic && product then max 1 (max_nodes / 10) else 0
  in
  (* The prefilter fronts every per-fault BDD stage: C3 when reachability
     completed, C4 when the product stage is on — the latter even when
     reachability hit its node limit and C3 cannot run. *)
  let presim_detected =
    if reach <> None || product_nodes > 0 then
      Obs.Trace.span "untest.presim" (fun () -> presimulate ~work c faults)
    else Array.make (Array.length faults) false
  in
  let env =
    { c; sobs; values; has_consts; reach; sharper;
      single_frame_live = ref true; product_nodes; presim_detected; work }
  in
  let verdicts = Array.mapi (classify_fault env) faults in
  let count p = Array.fold_left (fun a v -> if p v then a + 1 else a) 0 verdicts in
  let by_evidence ev =
    count (function Untestable p -> p.evidence = ev | Unknown -> false)
  in
  let summary =
    {
      total = Array.length faults;
      proved = count (function Untestable _ -> true | Unknown -> false);
      structural = by_evidence Structural;
      ternary = by_evidence Ternary;
      symbolic = by_evidence Symbolic;
      symbolic_ran = reach <> None;
      bdd_nodes =
        (match reach with
        | Some (r, _) -> r.Symreach.summary.Symreach.bdd_nodes
        | None -> 0);
      work = !work;
    }
  in
  Obs.Metrics.add m_classified summary.total;
  Obs.Metrics.add m_proved summary.proved;
  Obs.Metrics.add m_structural summary.structural;
  Obs.Metrics.add m_ternary summary.ternary;
  Obs.Metrics.add m_symbolic summary.symbolic;
  Obs.Metrics.add m_work summary.work;
  { faults; verdicts; summary }

(* --------------------------------------------------------------- lookups - *)

let summary_fields s =
  [
    ("faults", Obs.Json.Int s.total);
    ("proved_untestable", Obs.Json.Int s.proved);
    ("structural", Obs.Json.Int s.structural);
    ("ternary", Obs.Json.Int s.ternary);
    ("symbolic", Obs.Json.Int s.symbolic);
    ("symbolic_ran", Obs.Json.Bool s.symbolic_ran);
    ("bdd_nodes", Obs.Json.Int s.bdd_nodes);
    ("work_units", Obs.Json.Int s.work);
  ]

let lookup t =
  let h = Hashtbl.create (max 16 (Array.length t.faults)) in
  Array.iteri (fun i f -> Hashtbl.replace h f t.verdicts.(i)) t.faults;
  fun f ->
    match Hashtbl.find_opt h f with Some v -> v | None -> Unknown

let prune t =
  let look = lookup t in
  fun f -> look f <> Unknown

let proved_names c t =
  let out = ref [] in
  Array.iteri
    (fun i f ->
      match t.verdicts.(i) with
      | Untestable _ -> out := Fsim.Fault.to_string c f :: !out
      | Unknown -> ())
    t.faults;
  List.sort compare !out
