(* PODEM over the iterative-array model, in two phases:

   Phase A (excitation + propagation): decision variables are the primary
   inputs of every frame and the present state of frame 0 (treated as free
   pseudo-inputs, exactly the structural-ATPG blindness the paper studies).
   Success is a D/D' on some primary output within the frame window.

   Phase B (state justification): the frame-0 state cube required by the
   phase-A solution is justified backwards one frame at a time on the good
   machine, until the requirement is compatible with the power-up state.
   With SEST-style learning enabled, failed requirement cubes are cached and
   pruned, and successful justification sequences are reused.

   A fault is declared redundant only on sound grounds: phase A exhausted
   the whole search space and no D ever escaped into the last frame's next
   state (so no longer window could succeed either). *)

exception Out_of_budget

(* Global hot-path counters for `satpg --metrics`: plain O(1) increments
   beside the per-run [Types.stats] bookkeeping (which stays the source of
   truth for work units). *)
let m_decisions = Obs.Metrics.counter "atpg.podem.decisions"
let m_backtracks = Obs.Metrics.counter "atpg.podem.backtracks"
let m_conflicts = Obs.Metrics.counter "atpg.podem.conflicts"
let m_learn_failed = Obs.Metrics.counter "atpg.learn.failed_cube_hits"
let m_learn_prefix = Obs.Metrics.counter "atpg.learn.prefix_reuses"
let m_directory = Obs.Metrics.counter "atpg.justify.directory_hits"

type var = Pi of int * int | Ps of int

type decision = { var : var; mutable value : bool; mutable flipped : bool }

type phase_a_result =
  | Detected
  | Exhausted of { escape_seen : bool }

type learn_state = {
  failed_cubes : (string, unit) Hashtbl.t;
  proven_prefix : (string, Sim.Vectors.sequence) Hashtbl.t;
}

let new_learn_state () =
  { failed_cubes = Hashtbl.create 256; proven_prefix = Hashtbl.create 256 }

(* --- assignment helpers ---------------------------------------------------- *)

let assign fr var v =
  match var with
  | Pi (t, i) -> fr.Frames.pi.(t).(i) <- Sim.Value3.of_bool v
  | Ps j -> fr.Frames.ps0.(j) <- Sim.Value3.of_bool v

let unassign fr var =
  match var with
  | Pi (t, i) -> fr.Frames.pi.(t).(i) <- Sim.Value3.X
  | Ps j -> fr.Frames.ps0.(j) <- Sim.Value3.X

let reimply fr var =
  let from = match var with Pi (t, _) -> t | Ps _ -> 0 in
  Frames.imply ~from fr

(* --- backtrace -------------------------------------------------------------- *)

let gate_inverts = function
  | Netlist.Node.Nand | Netlist.Node.Nor | Netlist.Node.Not
  | Netlist.Node.Xnor -> true
  | Netlist.Node.And | Netlist.Node.Or | Netlist.Node.Buf | Netlist.Node.Xor
    -> false

let controlling = function
  | Netlist.Node.And | Netlist.Node.Nand -> Some false
  | Netlist.Node.Or | Netlist.Node.Nor -> Some true
  | Netlist.Node.Not | Netlist.Node.Buf | Netlist.Node.Xor | Netlist.Node.Xnor
    -> None

(* Pick an X-valued fanin pin of [nd], or -1.  Unguided: the first X in
   pin order (the historical behaviour).  With SCOAP guidance: when one
   input suffices ([choice]), the cheapest one to drive to [target];
   when all inputs must be set, the hardest first, so an infeasible
   requirement fails as early as possible. *)
let pick_x_input fr frame (nd : Netlist.Node.node) ~target ~choice =
  match fr.Frames.guide with
  | None ->
    let x_input = ref (-1) in
    Array.iteri
      (fun p s ->
        if !x_input < 0 && fr.Frames.good.(frame).(s) = Sim.Value3.X then
          x_input := p)
      nd.Netlist.Node.fanins;
    !x_input
  | Some (cc0, cc1) ->
    let cost s = if target then cc1.(s) else cc0.(s) in
    let best = ref (-1) and best_cost = ref 0 in
    Array.iteri
      (fun p s ->
        if fr.Frames.good.(frame).(s) = Sim.Value3.X then begin
          let k = cost s in
          if !best < 0 || (if choice then k < !best_cost else k > !best_cost)
          then begin
            best := p;
            best_cost := k
          end
        end)
      nd.Netlist.Node.fanins;
    !best

(* Walk an objective (frame, node, value) in the good machine down to an
   unassigned pseudo-input decision, or None if every path is assigned. *)
let backtrace fr frame node value =
  let c = fr.Frames.circuit in
  let rec go frame node value steps =
    if steps > 4000 then None
    else
      let nd = Netlist.Node.node c node in
      match nd.Netlist.Node.kind with
      | Netlist.Node.Pi i ->
        if fr.Frames.pi.(frame).(i) = Sim.Value3.X then Some (Pi (frame, i), value)
        else None
      | Netlist.Node.Dff _ ->
        let pos = fr.Frames.dff_pos.(node) in
        if frame = 0 then
          if fr.Frames.ps0.(pos) = Sim.Value3.X then Some (Ps pos, value)
          else None
        else go (frame - 1) nd.Netlist.Node.fanins.(0) value (steps + 1)
      | Netlist.Node.Gate fn ->
        let inv = gate_inverts fn in
        let v_in = if inv then not value else value in
        (match fn with
         | Netlist.Node.Xor | Netlist.Node.Xnor ->
           let a = nd.Netlist.Node.fanins.(0)
           and b = nd.Netlist.Node.fanins.(1) in
           let va = fr.Frames.good.(frame).(a)
           and vb = fr.Frames.good.(frame).(b) in
           (match va, vb with
            | Sim.Value3.X, (Sim.Value3.Zero | Sim.Value3.One) ->
              let d = vb = Sim.Value3.One in
              go frame a (v_in <> d) (steps + 1)
            | (Sim.Value3.Zero | Sim.Value3.One), Sim.Value3.X ->
              let d = va = Sim.Value3.One in
              go frame b (v_in <> d) (steps + 1)
            | Sim.Value3.X, Sim.Value3.X -> go frame a v_in (steps + 1)
            | _ -> None)
         | Netlist.Node.And | Netlist.Node.Nand | Netlist.Node.Or
         | Netlist.Node.Nor | Netlist.Node.Not | Netlist.Node.Buf ->
           let ctrl = controlling fn in
           let target, choice =
             match ctrl with
             | None -> (v_in, true) (* Buf/Not chains *)
             | Some cv ->
               if v_in = cv then (cv, true) (* one controlling input suffices *)
               else (not cv, false) (* all inputs must be non-controlling *)
           in
           let pin = pick_x_input fr frame nd ~target ~choice in
           if pin < 0 then None
           else go frame nd.Netlist.Node.fanins.(pin) target (steps + 1))
  in
  go frame node value 0

(* --- phase A ----------------------------------------------------------------- *)

let check_budget (cfg : Types.config) stats =
  if stats.Types.work > cfg.Types.work_limit
     || stats.Types.backtracks > cfg.Types.backtrack_limit
  then raise Out_of_budget

let fault_source c (f : Fsim.Fault.t) =
  match f.Fsim.Fault.site with
  | Fsim.Fault.Stem id -> id
  | Fsim.Fault.Pin { gate; pin } ->
    (Netlist.Node.node c gate).Netlist.Node.fanins.(pin)

(* Pick the next objective, or None when the current assignment is a dead
   end (must backtrack), or Some None when... encoded as variant: *)
type objective = Obj of int * int * bool | Dead_end | Success

let choose_objective fr (fault : Fsim.Fault.t) =
  if Frames.detected fr then Success
  else begin
    let c = fr.Frames.circuit in
    let src = fault_source c fault in
    match fr.Frames.good.(0).(src) with
    | Sim.Value3.X -> Obj (0, src, not fault.Fsim.Fault.stuck)
    | v when v = Sim.Value3.of_bool fault.Fsim.Fault.stuck -> Dead_end
    | _ ->
      (* excited; advance the D-frontier if the effect can still reach a PO *)
      (match Frames.d_frontier fr with
       | [] -> Dead_end
       | (frame, gate) :: _ when (Frames.x_path fr).Frames.reaches_po ->
         let nd = Netlist.Node.node c gate in
         let fn =
           match nd.Netlist.Node.kind with
           | Netlist.Node.Gate fn -> fn
           | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> assert false
         in
         (* set an X input to the gate's non-controlling value; to advance
            the frontier every X input must eventually be non-controlling,
            so guided selection takes the hardest first *)
         let nc =
           match controlling fn with Some cv -> not cv | None -> true
         in
         let pin = pick_x_input fr frame nd ~target:nc ~choice:false in
         if pin < 0 then Dead_end
         else Obj (frame, nd.Netlist.Node.fanins.(pin), nc)
       | _ :: _ -> Dead_end)
  end

let phase_a ?slearn fr (fault : Fsim.Fault.t) cfg stats =
  let site = Learn.anchor fault in
  let stack : decision list ref = ref [] in
  let escape_seen = ref false in
  let note_escape () =
    if not !escape_seen then begin
      if Frames.d_escapes fr then escape_seen := true
      else if (Frames.x_path fr).Frames.escapes then escape_seen := true
    end
  in
  let rec backtrack () =
    stats.Types.backtracks <- stats.Types.backtracks + 1;
    Obs.Metrics.incr m_backtracks;
    check_budget cfg stats;
    match !stack with
    | [] -> Exhausted { escape_seen = !escape_seen }
    | d :: rest ->
      if d.flipped then begin
        unassign fr d.var;
        reimply fr d.var;
        stack := rest;
        backtrack ()
      end
      else begin
        d.value <- not d.value;
        d.flipped <- true;
        assign fr d.var d.value;
        reimply fr d.var;
        note_escape ();
        search ()
      end
  and search () =
    check_budget cfg stats;
    (* consult the learned store before branching: a clause match proves
       the whole subtree under the current assignment fruitless (the
       escape accounting for this state already ran via [note_escape]
       right after the implication that produced it) *)
    let learned_prune =
      match slearn with
      | Some sl -> Learn.blocked sl ~site ~stats fr
      | None -> false
    in
    if learned_prune then backtrack ()
    else
    match choose_objective fr fault with
    | Success -> Detected
    | Dead_end ->
      Obs.Metrics.incr m_conflicts;
      (match slearn with
       | Some sl -> ignore (Learn.analyze sl ~site ~stats fr)
       | None -> ());
      backtrack ()
    | Obj (frame, node, v) ->
      (match backtrace fr frame node v with
       | None -> backtrack ()
       | Some (var, value) ->
         stats.Types.decisions <- stats.Types.decisions + 1;
         Obs.Metrics.incr m_decisions;
         let d = { var; value; flipped = false } in
         stack := d :: !stack;
         assign fr var value;
         reimply fr var;
         note_escape ();
         search ())
  in
  Frames.imply fr;
  note_escape ();
  search ()

(* --- phase B: backward justification ----------------------------------------- *)

let cube_signature cube =
  String.init (Array.length cube) (fun j -> Sim.Value3.to_char cube.(j))

let compatible_with_init c cube =
  let ok = ref true in
  Array.iteri
    (fun j id ->
      match cube.(j) with
      | Sim.Value3.X -> ()
      | v ->
        if v <> Sim.Value3.of_bool (Netlist.Node.dff_init c id) then ok := false)
    c.Netlist.Node.dffs;
  !ok

(* Justify [required] (a Value3 cube over the DFFs) on the good machine;
   returns the input vectors (power-up onward) reaching a compatible state.
   Depth-first over frames with per-frame PODEM. *)
let cube_matches_code cube code =
  let ok = ref true in
  Array.iteri
    (fun j v ->
      match v with
      | Sim.Value3.X -> ()
      | v ->
        if v <> Sim.Value3.of_bool (Sim.Statekey.bit code j) then ok := false)
    cube;
  !ok

let justify ?(directory = []) ?guide ?slearn (tape : Sim.Tape.t) ~required
    ~cfg ~stats ~(learn : learn_state option) =
  let c = tape.Sim.Tape.circuit in
  let nbits = Array.length required in
  let visited = Hashtbl.create 64 in
  (* simulation-seeded shortcut: a state already visited by the random phase
     that satisfies the cube is justified by its recorded input prefix *)
  let lookup_directory cube =
    let rec find = function
      | [] -> None
      | (code, prefix) :: rest ->
        if cube_matches_code cube code then Some prefix else find rest
    in
    find directory
  in
  (* [complete] tracks whether the refutation below this point hit any
     cutoff (depth limit, visited table, backtrace step cap, an
     incompletely refuted cached cube): only cutoff-free failures are
     unreachability proofs, and only those may generalize into
     subset-matching clauses (Learn).  Pure bookkeeping: no branch of the
     original search depends on it. *)
  let rec solve required depth ~complete =
    check_budget cfg stats;
    let sg = cube_signature required in
    Hashtbl.replace stats.Types.state_cubes sg ();
    if compatible_with_init c required then Some []
    else if depth >= cfg.Types.max_frames_bwd then begin
      complete := false;
      None
    end
    else if Hashtbl.mem visited sg then begin
      complete := false;
      None
    end
    else
      match lookup_directory required with
      | Some prefix ->
        Obs.Metrics.incr m_directory;
        Some prefix
      | None ->
    let struct_cut =
      match slearn with
      | None -> None
      | Some sl ->
        (match Learn.failed_exact sl sg with
         | Some was_complete ->
           Obs.Metrics.incr m_learn_failed;
           if not was_complete then complete := false;
           Some `Fail
         | None ->
           if Learn.cube_blocked sl ~stats required then Some `Fail
           else (
             match Learn.proven_prefix sl sg with
             | Some p -> Some (`Prefix p)
             | None -> None))
    in
    (match struct_cut with
    | Some `Fail -> None
    | Some (`Prefix p) -> Some p
    | None ->
    begin
      match learn with
      | Some l when Hashtbl.mem l.failed_cubes sg ->
        Obs.Metrics.incr m_learn_failed;
        complete := false;
        None
      | _ ->
        (match learn with
         | Some l ->
           (match Hashtbl.find_opt l.proven_prefix sg with
            | Some prefix ->
              Obs.Metrics.incr m_learn_prefix;
              Some prefix
            | None -> solve_frame required depth sg ~complete)
         | None -> solve_frame required depth sg ~complete)
    end)
  and solve_frame required depth sg ~complete =
    Hashtbl.replace visited sg ();
    let read = Array.make nbits false in
    let sub = ref true in
    match attempt_frame required depth ~from_init:true ~read ~complete:(ref true)
    with
    | Some r -> Some r
    | None ->
      (match
         attempt_frame required depth ~from_init:false ~read ~complete:sub
       with
      | Some r -> Some r
      | None ->
        (* the free-previous-state attempt subsumes the reset probe, so
           its completeness alone decides whether this failure proves
           unreachability *)
        (match slearn with
         | Some sl ->
           Learn.note_failed_cube sl ~complete:!sub ~read ~stats required
         | None -> ());
        if not !sub then complete := false;
        None)

  (* One backward frame.  [from_init] pins the previous state to the
     power-up state (the reset-first probe: on densely encoded machines most
     requirement cubes are a short hop from reset, and this prunes the
     regression enormously); otherwise the previous state is free and the
     search recurses on whatever cube it needs. *)
  and attempt_frame required depth ~from_init ~read ~complete =
    let local_backtracks = ref 0 in
    let probe_limit = 60 in
    let sg = cube_signature required in
    let fr = Frames.create ?guide tape ~frames:1 ~stats in
    if from_init then
      Array.iteri
        (fun j id ->
          fr.Frames.ps0.(j) <-
            Sim.Value3.of_bool (Netlist.Node.dff_init c id))
        c.Netlist.Node.dffs;
    let stack : decision list ref = ref [] in
    (* objectives: next-state bits equal to the required cube *)
    let objective () =
      (* Success when every required NS bit matches; Dead_end on mismatch *)
      let result = ref Success in
      (try
         Array.iteri
           (fun j id ->
             match required.(j) with
             | Sim.Value3.X -> ()
             | want ->
               read.(j) <- true;
               let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
               let got = fr.Frames.good.(0).(data) in
               if got = Sim.Value3.X then begin
                 result :=
                   Obj (0, data, want = Sim.Value3.One);
                 raise Exit
               end
               else if got <> want then begin
                 result := Dead_end;
                 raise Exit
               end)
           c.Netlist.Node.dffs
       with Exit -> ());
      !result
    in
    let rec backtrack () =
      stats.Types.backtracks <- stats.Types.backtracks + 1;
      Obs.Metrics.incr m_backtracks;
      incr local_backtracks;
      check_budget cfg stats;
      if from_init && !local_backtracks > probe_limit then begin
        complete := false;
        None
      end
      else
        match !stack with
        | [] -> None
        | d :: rest ->
          if d.flipped then begin
            unassign fr d.var;
            reimply fr d.var;
            stack := rest;
            backtrack ()
          end
          else begin
            d.value <- not d.value;
            d.flipped <- true;
            assign fr d.var d.value;
            reimply fr d.var;
            search ()
          end
    and search () =
      check_budget cfg stats;
      match objective () with
      | Dead_end ->
        Obs.Metrics.incr m_conflicts;
        backtrack ()
      | Success ->
        let vector () =
          Array.map
            (fun v ->
              match Sim.Value3.to_bool_opt v with
              | Some b -> b
              | None -> false)
            fr.Frames.pi.(0)
        in
        if from_init then begin
          (* previous state is the power-up state: done *)
          let seq = [ vector () ] in
          (match learn with
           | Some l -> Hashtbl.replace l.proven_prefix sg seq
           | None -> ());
          (match slearn with
           | Some sl -> Learn.note_proven_prefix sl sg seq
           | None -> ());
          Some seq
        end
        else begin
          (* recurse on the previous state requirement *)
          let new_required = Array.copy fr.Frames.ps0 in
          match solve new_required (depth + 1) ~complete with
          | Some prefix ->
            let seq = prefix @ [ vector () ] in
            (match learn with
             | Some l -> Hashtbl.replace l.proven_prefix sg seq
             | None -> ());
            (match slearn with
             | Some sl -> Learn.note_proven_prefix sl sg seq
             | None -> ());
            Some seq
          | None -> backtrack ()
        end
      | Obj (frame, node, v) ->
        (match backtrace fr frame node v with
         | None ->
           (* could be a genuine all-assigned dead end or the backtrace
              step cap: indistinguishable here, so count it against
              completeness *)
           complete := false;
           backtrack ()
         | Some (var, value) ->
           stats.Types.decisions <- stats.Types.decisions + 1;
           Obs.Metrics.incr m_decisions;
           let d = { var; value; flipped = false } in
           stack := d :: !stack;
           assign fr var value;
           reimply fr var;
           search ())
    in
    Frames.imply fr;
    let r = search () in
    (match r, learn with
     | None, Some l when not from_init -> Hashtbl.replace l.failed_cubes sg ()
     | _ -> ());
    r
  in
  ignore nbits;
  solve required 0 ~complete:(ref true)
