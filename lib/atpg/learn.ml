(* Conflict-driven structural learning (see learn.mli for the soundness
   argument).  One store per ATPG run, shared across every fault of the
   run: phase-A blocking clauses are keyed by the fault's anchor node
   (both polarities and same-site equivalence-class members share), the
   phase-B failed-cube clauses are good-machine facts and therefore
   global.  All mutation is single-threaded by construction — Run forces
   the sequential driver whenever struct_learn is on. *)

let m_conflicts = Obs.Metrics.counter "atpg.learn.conflicts"
let m_clauses = Obs.Metrics.counter "atpg.learn.clauses"
let m_literals = Obs.Metrics.counter "atpg.learn.literals"
let m_hits = Obs.Metrics.counter "atpg.learn.hits"
let m_cube_hits = Obs.Metrics.counter "atpg.learn.cube_hits"
let m_cube_clauses = Obs.Metrics.counter "atpg.learn.cube_clauses"
let m_prefix = Obs.Metrics.counter "atpg.learn.prefix_reuses"

type literal = { key : int; frame : int; value : bool }

(* Keep clauses short and stores bounded: a long boundary almost never
   re-fires, and an unbounded store would turn consultation into the new
   hot loop.  Both caps are part of the deterministic search definition
   (they are the same on every machine). *)
let max_clause_literals = 24
let max_clauses_per_site = 64
let max_cube_clauses = 512

type site_store = {
  mutable clauses : literal array list; (* newest first *)
  seen : (string, unit) Hashtbl.t;      (* canonical clause signatures *)
}

type t = {
  circuit : Netlist.Node.t;
  key_of_node : int array;  (* node id -> stable tape-derived line key *)
  node_of_key : int array;
  sites : (int, site_store) Hashtbl.t;
  (* phase B *)
  failed_sig : (string, bool) Hashtbl.t;  (* cube signature -> complete *)
  mutable cube_clauses : Sim.Value3.t array list; (* generalized, newest first *)
  cube_seen : (string, unit) Hashtbl.t;
  proven : (string, Sim.Vectors.sequence) Hashtbl.t;
  (* scratch for conflict analysis, generation-stamped to avoid clears *)
  mutable stamp : int array;  (* [frame * n + node] *)
  mutable generation : int;
}

let create (tape : Sim.Tape.t) =
  let c = tape.Sim.Tape.circuit in
  let n = Netlist.Node.num_nodes c in
  let key_of_node = Array.make n (-1) in
  let num_gates = tape.Sim.Tape.num_gates in
  (* gates first, in tape topological order (the PR 8 IR's [topo_slot]),
     then primary inputs, then state outputs: stable for any two
     structurally identical circuits, independent of node numbering *)
  Array.iteri
    (fun t s -> key_of_node.(tape.Sim.Tape.node_of_slot.(s)) <- t)
    tape.Sim.Tape.topo_slot;
  Array.iteri (fun i id -> key_of_node.(id) <- num_gates + i)
    c.Netlist.Node.pis;
  let num_pis = Netlist.Node.num_pis c in
  Array.iteri
    (fun j id -> key_of_node.(id) <- num_gates + num_pis + j)
    c.Netlist.Node.dffs;
  let node_of_key = Array.make n (-1) in
  Array.iteri
    (fun id k -> if k >= 0 then node_of_key.(k) <- id)
    key_of_node;
  {
    circuit = c;
    key_of_node;
    node_of_key;
    sites = Hashtbl.create 64;
    failed_sig = Hashtbl.create 256;
    cube_clauses = [];
    cube_seen = Hashtbl.create 64;
    proven = Hashtbl.create 256;
    stamp = [||];
    generation = 0;
  }

let key_of_node t id = t.key_of_node.(id)

let anchor (f : Fsim.Fault.t) =
  match f.Fsim.Fault.site with
  | Fsim.Fault.Stem id -> id
  | Fsim.Fault.Pin { gate; _ } -> gate

let site_store t site =
  match Hashtbl.find_opt t.sites site with
  | Some s -> s
  | None ->
    let s = { clauses = []; seen = Hashtbl.create 16 } in
    Hashtbl.add t.sites site s;
    s

let clause_signature lits =
  String.concat ";"
    (List.map
       (fun l ->
         Printf.sprintf "%d.%d.%c" l.frame l.key (if l.value then '1' else '0'))
       (List.sort compare lits))

(* --- phase A: conflict analysis ------------------------------------------- *)

exception Reaches_po
exception Too_long

let analyze t ~site ~(stats : Types.stats) (fr : Frames.t) =
  let store = site_store t site in
  if List.length store.clauses >= max_clauses_per_site then None
  else begin
    let c = t.circuit in
    let n = Netlist.Node.num_nodes c in
    let k = fr.Frames.k in
    if Array.length t.stamp < k * n then t.stamp <- Array.make (k * n) 0;
    t.generation <- t.generation + 1;
    let gen = t.generation in
    let stamp = t.stamp in
    let walls = ref [] in
    let nwalls = ref 0 in
    let todo = Stack.create () in
    for f = 0 to k - 1 do
      Stack.push (f, site) todo
    done;
    match
      while not (Stack.is_empty todo) do
        let f, id = Stack.pop todo in
        let key = (f * n) + id in
        if stamp.(key) <> gen then begin
          stamp.(key) <- gen;
          stats.Types.work <- stats.Types.work + 1;
          let g = fr.Frames.good.(f).(id)
          and fv = fr.Frames.faulty.(f).(id) in
          match g, fv with
          | Sim.Value3.Zero, Sim.Value3.Zero | Sim.Value3.One, Sim.Value3.One
            ->
            (* a wall: determinate and equal in both machines, so (by
               monotone refinement) never a D below this node *)
            incr nwalls;
            if !nwalls > max_clause_literals then raise Too_long;
            walls :=
              {
                key = t.key_of_node.(id);
                frame = f;
                value = g = Sim.Value3.One;
              }
              :: !walls
          | _ ->
            (* potentially a D here in some refinement *)
            if fr.Frames.po_driver.(id) then raise Reaches_po;
            Array.iter
              (fun s ->
                match (Netlist.Node.node c s).Netlist.Node.kind with
                | Netlist.Node.Gate _ -> Stack.push (f, s) todo
                | Netlist.Node.Dff _ ->
                  if f + 1 < k then Stack.push (f + 1, s) todo
                | Netlist.Node.Pi _ -> ())
              c.Netlist.Node.fanouts.(id)
        end
      done
    with
    | () ->
      let lits = !walls in
      let sg = clause_signature lits in
      if Hashtbl.mem store.seen sg then None
      else begin
        Hashtbl.add store.seen sg ();
        let clause =
          Array.of_list (List.sort (fun a b -> compare a b) lits)
        in
        store.clauses <- clause :: store.clauses;
        stats.Types.learn_conflicts <- stats.Types.learn_conflicts + 1;
        stats.Types.learn_clauses <- stats.Types.learn_clauses + 1;
        stats.Types.learn_literals <-
          stats.Types.learn_literals + Array.length clause;
        Obs.Metrics.incr m_conflicts;
        Obs.Metrics.incr m_clauses;
        Obs.Metrics.add m_literals (Array.length clause);
        Some clause
      end
    | exception (Reaches_po | Too_long) -> None
  end

let clause_matches t (fr : Frames.t) clause =
  Array.for_all
    (fun l ->
      let id = t.node_of_key.(l.key) in
      let v = Sim.Value3.of_bool l.value in
      fr.Frames.good.(l.frame).(id) = v
      && fr.Frames.faulty.(l.frame).(id) = v)
    clause

let blocked t ~site ~(stats : Types.stats) (fr : Frames.t) =
  match Hashtbl.find_opt t.sites site with
  | None -> false
  | Some store ->
    let hit =
      List.exists
        (fun clause ->
          stats.Types.work <- stats.Types.work + 1;
          clause_matches t fr clause)
        store.clauses
    in
    if hit then begin
      stats.Types.learn_hits <- stats.Types.learn_hits + 1;
      Obs.Metrics.incr m_hits
    end;
    hit

(* --- phase B: generalized failed cubes ------------------------------------- *)

let cube_signature cube =
  String.init (Array.length cube) (fun j -> Sim.Value3.to_char cube.(j))

let failed_exact t sg = Hashtbl.find_opt t.failed_sig sg

let note_failed_cube t ~complete ~read ~(stats : Types.stats) cube =
  let sg = cube_signature cube in
  (match Hashtbl.find_opt t.failed_sig sg with
   | Some true -> ()
   | Some false | None -> Hashtbl.replace t.failed_sig sg complete);
  if complete && List.length t.cube_clauses < max_cube_clauses then begin
    (* the refutation only ever examined the read-set bits, so the
       restriction to them is refuted by the identical search — and a
       complete refutation is an unreachability proof, which transfers
       to every refinement of the restriction *)
    let general =
      Array.mapi (fun j v -> if read.(j) then v else Sim.Value3.X) cube
    in
    let gsg = cube_signature general in
    if not (Hashtbl.mem t.cube_seen gsg) then begin
      Hashtbl.add t.cube_seen gsg ();
      t.cube_clauses <- general :: t.cube_clauses;
      let lits =
        Array.fold_left
          (fun a v -> if v = Sim.Value3.X then a else a + 1)
          0 general
      in
      stats.Types.learn_clauses <- stats.Types.learn_clauses + 1;
      stats.Types.learn_literals <- stats.Types.learn_literals + lits;
      Obs.Metrics.incr m_cube_clauses;
      Obs.Metrics.add m_literals lits
    end
  end

let subsumes general cube =
  let ok = ref true in
  Array.iteri
    (fun j v ->
      if !ok && v <> Sim.Value3.X && cube.(j) <> v then ok := false)
    general;
  !ok

let cube_blocked t ~(stats : Types.stats) cube =
  let hit =
    List.exists
      (fun general ->
        stats.Types.work <- stats.Types.work + 1;
        subsumes general cube)
      t.cube_clauses
  in
  if hit then begin
    stats.Types.learn_cube_hits <- stats.Types.learn_cube_hits + 1;
    Obs.Metrics.incr m_cube_hits
  end;
  hit

let proven_prefix t sg =
  let r = Hashtbl.find_opt t.proven sg in
  if Option.is_some r then Obs.Metrics.incr m_prefix;
  r

let note_proven_prefix t sg seq = Hashtbl.replace t.proven sg seq

let sizes t =
  let clauses = ref 0 and literals = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun cl ->
          incr clauses;
          literals := !literals + Array.length cl)
        s.clauses)
    t.sites;
  (!clauses, !literals, List.length t.cube_clauses)
