(* Scan-chain insertion — the DFT answer to the paper's finding.  A scanned
   register is a mux in front of the DFF:

       D' = scan_enable ? scan_in : D

   with the scanned DFFs chained scan_in <- previous DFF's output and the
   last element observable at a new primary output.  Full scan makes every
   state bit controllable/observable, which collapses sequential ATPG to
   combinational-style search: the density of encoding stops mattering
   because any state can be shifted in.

   [insert] returns the scanned circuit plus a description used by the
   scan-aware test-application helpers. *)

type chain = {
  circuit : Netlist.Node.t;      (* the scanned circuit *)
  scan_enable : int;             (* PI index *)
  scan_in : int;                 (* PI index *)
  scanned : int array;           (* positions (dff order) included, chain order *)
  length : int;
}

(* Insert a scan chain over the DFFs at positions [positions] (default: all
   non-constant DFFs).  PIs gain scan_enable and scan_in (appended after the
   existing inputs); POs gain scan_out. *)
let insert ?positions c =
  let is_const = Retime.Graph.const_dffs c in
  let default =
    Array.to_list c.Netlist.Node.dffs
    |> List.mapi (fun j id -> (j, id))
    |> List.filter (fun (_, id) -> not is_const.(id))
    |> List.map fst
  in
  let positions =
    match positions with Some p -> p | None -> Array.of_list default
  in
  let b = Netlist.Build.create () in
  let new_id = Array.make (Netlist.Node.num_nodes c) (-1) in
  Array.iter
    (fun id ->
      new_id.(id) <-
        Netlist.Build.add_pi b (Netlist.Node.node c id).Netlist.Node.name)
    c.Netlist.Node.pis;
  let scan_enable_pi = Netlist.Node.num_pis c in
  let scan_in_pi = scan_enable_pi + 1 in
  let se = Netlist.Build.add_pi b "scan_enable" in
  let si = Netlist.Build.add_pi b "scan_in" in
  (* DFFs keep their order and inits *)
  Array.iter
    (fun id ->
      new_id.(id) <-
        Netlist.Build.add_dff b
          ~init:(Netlist.Node.dff_init c id)
          (Netlist.Node.node c id).Netlist.Node.name)
    c.Netlist.Node.dffs;
  (* gates in topological order *)
  Array.iter
    (fun id ->
      let nd = Netlist.Node.node c id in
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn ->
        new_id.(id) <-
          Netlist.Build.add_gate b fn nd.Netlist.Node.name
            (Array.map (fun f -> new_id.(f)) nd.Netlist.Node.fanins)
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
    c.Netlist.Node.order;
  (* connect DFF data inputs, muxing the scanned ones:
     D' = (D AND NOT se) OR (chain_in AND se) *)
  let inv_se = Netlist.Build.add_gate b Netlist.Node.Not "scan_ninv" [| se |] in
  let in_scan = Array.make (Netlist.Node.num_dffs c) false in
  Array.iter (fun p -> in_scan.(p) <- true) positions;
  let prev = ref si in
  let chain_order = ref [] in
  Array.iteri
    (fun j id ->
      let nd = Netlist.Node.node c id in
      let data = new_id.(nd.Netlist.Node.fanins.(0)) in
      if in_scan.(j) && not is_const.(id) then begin
        let name k = Printf.sprintf "scan_%s_%s" k nd.Netlist.Node.name in
        let a =
          Netlist.Build.add_gate b Netlist.Node.And (name "d")
            [| data; inv_se |]
        in
        let s2 =
          Netlist.Build.add_gate b Netlist.Node.And (name "s") [| !prev; se |]
        in
        let mux =
          Netlist.Build.add_gate b Netlist.Node.Or (name "m") [| a; s2 |]
        in
        Netlist.Build.connect_dff b new_id.(id) mux;
        prev := new_id.(id);
        chain_order := j :: !chain_order
      end
      else Netlist.Build.connect_dff b new_id.(id) data)
    c.Netlist.Node.dffs;
  Array.iter
    (fun (name, id) -> Netlist.Build.add_po b name new_id.(id))
    c.Netlist.Node.pos;
  Netlist.Build.add_po b "scan_out" !prev;
  let scanned = Array.of_list (List.rev !chain_order) in
  let circuit = Netlist.Build.finalize b in
  Netlist.Check.assert_ok circuit;
  {
    circuit;
    scan_enable = scan_enable_pi;
    scan_in = scan_in_pi;
    scanned;
    length = Array.length scanned;
  }

(* Input vector for the scanned circuit in functional mode. *)
let functional_vector chain v =
  let npi = Netlist.Node.num_pis chain.circuit in
  let out = Array.make npi false in
  Array.blit v 0 out 0 (Array.length v);
  out.(chain.scan_enable) <- false;
  out

(* Shift sequence loading [state_code] into the scanned bits (the last
   chain element is loaded first, so bits enter in reverse chain order). *)
let load_sequence chain state_code =
  List.init chain.length (fun t ->
      let npi = Netlist.Node.num_pis chain.circuit in
      let v = Array.make npi false in
      v.(chain.scan_enable) <- true;
      (* after L shifts, chain element k holds the bit shifted in at time
         L-1-k' ... we feed bits so that chain element i ends with bit of
         scanned.(i) *)
      let pos = chain.scanned.(chain.length - 1 - t) in
      v.(chain.scan_in) <- Sim.Statekey.bit state_code pos;
      v)

(* Partial-scan selection: break register cycles with as few scanned DFFs
   as possible (greedy: repeatedly scan the DFF on the most cycles of the
   register graph, until the remaining graph is acyclic).  This is the
   classic cycle-breaking heuristic the paper's conclusions point toward. *)
let select_cycle_breaking c =
  let g = Analysis.Dffgraph.build c in
  let n = Analysis.Dffgraph.num_dffs g in
  let removed = Array.make n false in
  let has_cycle () =
    (* DFS for a cycle among non-removed vertices *)
    let color = Array.make n 0 in
    let rec visit v =
      if removed.(v) then false
      else if color.(v) = 1 then true
      else if color.(v) = 2 then false
      else begin
        color.(v) <- 1;
        let found = ref false in
        for w = 0 to n - 1 do
          if (not !found) && g.Analysis.Dffgraph.adj.(v).(w)
             && not removed.(w)
          then if visit w then found := true
        done;
        color.(v) <- 2;
        !found
      end
    in
    let any = ref false in
    for v = 0 to n - 1 do
      if (not !any) && not removed.(v) then if visit v then any := true
    done;
    !any
  in
  let degree v =
    let d = ref 0 in
    for w = 0 to n - 1 do
      if g.Analysis.Dffgraph.adj.(v).(w) && not removed.(w) then incr d;
      if g.Analysis.Dffgraph.adj.(w).(v) && not removed.(w) then incr d
    done;
    !d
  in
  let selected = ref [] in
  while has_cycle () do
    (* pick the non-removed vertex with the highest degree *)
    let best = ref (-1) and best_d = ref (-1) in
    for v = 0 to n - 1 do
      if not removed.(v) then begin
        let d = degree v in
        if d > !best_d then begin
          best_d := d;
          best := v
        end
      end
    done;
    removed.(!best) <- true;
    selected := !best :: !selected
  done;
  Array.of_list (List.rev !selected)
