(* Retiming graph (Leiserson–Saxe): vertices are the combinational gates
   plus a host vertex representing the environment (all PIs and POs); each
   edge carries the number of registers (DFFs) between its endpoints.

   Edges remember the physical source node (gate, PI or constant generator)
   so the retimed circuit can be materialized with per-source register-chain
   sharing.  Constant generators (self-looped DFFs used to model constants)
   are pinned to lag 0 like the host: their value never changes.

   Each edge also carries its endpoints' dense vertices, so a lag is an
   array read; the per-source and per-vertex edge lists (for incremental
   deepening) and each gate's fewest registers to a PO (for early FEAS
   refutation) are computed once here. *)

type edge = {
  src_node : int;               (* netlist id: gate output, PI, or const DFF *)
  weight : int;                 (* registers along the connection *)
  (* destination: either pin [dst_pin] of gate [dst_node], or primary output
     [po_index] when dst_node < 0 *)
  dst_node : int;
  dst_pin : int;
  po_index : int;
  src_vertex : int;             (* dense vertex of a gate source, else -1 *)
  dst_vertex : int;             (* dense vertex of the reading gate, or -1 *)
}

type t = {
  circuit : Netlist.Node.t;
  gates : int array;            (* netlist ids of gates, dense vertex order *)
  vertex_of_gate : int array;   (* netlist id -> dense vertex index, or -1 *)
  edges : edge array;
  delays : float array;         (* per dense vertex index *)
  fanout_edges : int array array;  (* netlist id -> indices of its out-edges *)
  fanin_edges : int array array;   (* dense vertex -> indices of its in-edges *)
  registers_to_po : int array;     (* dense vertex -> fewest registers on a
                                      path to a PO, [max_int] if none *)
}

let num_gates g = Array.length g.gates

(* Detect constant DFFs: registers whose data-input chain loops back to
   themselves without passing through a gate. *)
let const_dffs c =
  let is_const = Array.make (Netlist.Node.num_nodes c) false in
  Array.iter
    (fun d ->
      let rec walk id steps seen =
        if steps > Netlist.Node.num_dffs c + 1 then false
        else
          match (Netlist.Node.node c id).Netlist.Node.kind with
          | Netlist.Node.Dff _ ->
            if List.mem id seen then true
            else
              walk
                (Netlist.Node.node c id).Netlist.Node.fanins.(0)
                (steps + 1) (id :: seen)
          | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> false
      in
      if walk d 0 [] then is_const.(d) <- true)
    c.Netlist.Node.dffs;
  is_const

(* Walk backwards from a fanin through the DFF chain; returns (source node,
   register count).  Source is a gate, a PI, or a constant DFF. *)
let trace_back c is_const f =
  let rec walk id w =
    match (Netlist.Node.node c id).Netlist.Node.kind with
    | Netlist.Node.Dff _ when not is_const.(id) ->
      walk (Netlist.Node.node c id).Netlist.Node.fanins.(0) (w + 1)
    | Netlist.Node.Dff _ | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> (id, w)
  in
  walk f 0

(* Group edge indices by a key; [-1] keys are skipped. *)
let group size key edges =
  let lists = Array.make size [] in
  for i = Array.length edges - 1 downto 0 do
    let k = key edges.(i) in
    if k >= 0 then lists.(k) <- i :: lists.(k)
  done;
  Array.map Array.of_list lists

(* Fewest original registers on any path from each gate to a PO: a reverse
   shortest-path fixpoint from the PO edges (weights are non-negative). *)
let po_distances n edges fanin_edges =
  let dist = Array.make n max_int in
  let work = Queue.create () in
  let lower v d =
    if d < dist.(v) then begin
      dist.(v) <- d;
      Queue.add v work
    end
  in
  Array.iter
    (fun e ->
      if e.dst_node < 0 && e.src_vertex >= 0 then lower e.src_vertex e.weight)
    edges;
  while not (Queue.is_empty work) do
    let v = Queue.pop work in
    Array.iter
      (fun i ->
        let e = edges.(i) in
        if e.src_vertex >= 0 then lower e.src_vertex (e.weight + dist.(v)))
      fanin_edges.(v)
  done;
  dist

let of_netlist c =
  let is_const = const_dffs c in
  let gates = ref [] in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate _ -> gates := nd.Netlist.Node.id :: !gates
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
    c.Netlist.Node.nodes;
  let gates = Array.of_list (List.rev !gates) in
  let vertex_of_gate = Array.make (Netlist.Node.num_nodes c) (-1) in
  Array.iteri (fun i id -> vertex_of_gate.(id) <- i) gates;
  let edge src_node weight ~dst_node ~dst_pin ~po_index =
    {
      src_node;
      weight;
      dst_node;
      dst_pin;
      po_index;
      src_vertex = vertex_of_gate.(src_node);
      dst_vertex = (if dst_node < 0 then -1 else vertex_of_gate.(dst_node));
    }
  in
  let edges = ref [] in
  Array.iter
    (fun gid ->
      let nd = Netlist.Node.node c gid in
      Array.iteri
        (fun pin f ->
          let src_node, w = trace_back c is_const f in
          edges :=
            edge src_node w ~dst_node:gid ~dst_pin:pin ~po_index:(-1)
            :: !edges)
        nd.Netlist.Node.fanins)
    gates;
  Array.iteri
    (fun k (_, id) ->
      let src_node, w = trace_back c is_const id in
      edges := edge src_node w ~dst_node:(-1) ~dst_pin:0 ~po_index:k :: !edges)
    c.Netlist.Node.pos;
  let delays =
    Array.map
      (fun gid ->
        let nd = Netlist.Node.node c gid in
        match nd.Netlist.Node.kind with
        | Netlist.Node.Gate fn ->
          Netlist.Node.gate_delay fn (Array.length nd.Netlist.Node.fanins)
        | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> 0.0)
      gates
  in
  let edges = Array.of_list (List.rev !edges) in
  let n = Array.length gates in
  let fanin_edges = group n (fun e -> e.dst_vertex) edges in
  {
    circuit = c;
    gates;
    vertex_of_gate;
    edges;
    delays;
    fanout_edges =
      group (Netlist.Node.num_nodes c) (fun e -> e.src_node) edges;
    fanin_edges;
    registers_to_po = po_distances n edges fanin_edges;
  }

let retimed_weight _g r e =
  e.weight
  + (if e.dst_vertex >= 0 then r.(e.dst_vertex) else 0)
  - if e.src_vertex >= 0 then r.(e.src_vertex) else 0

let legal g r = Array.for_all (fun e -> retimed_weight g r e >= 0) g.edges

(* Register count of the materialized circuit with per-source register-chain
   sharing: each physical source drives one chain as deep as its deepest
   out-edge. *)
let total_registers_shared g r =
  Array.fold_left
    (fun acc out ->
      acc
      + Array.fold_left
          (fun d i -> max d (retimed_weight g r g.edges.(i)))
          0 out)
    0 g.fanout_edges
