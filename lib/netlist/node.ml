(* Gate-level sequential netlist shared by every tool in the stack.

   A circuit is an array of nodes.  Sources of combinational evaluation are
   primary inputs and DFF outputs; sinks are DFF data inputs and primary
   outputs.  DFFs are nodes whose single fanin is their data input and whose
   "value" during a cycle is the latched state bit. *)

type gate_fn = And | Or | Nand | Nor | Not | Buf | Xor | Xnor

type kind =
  | Pi of int             (* primary input, with its input-vector index *)
  | Dff of { init : bool } (* edge-triggered D flip-flop, power-up value *)
  | Gate of gate_fn

type node = {
  id : int;
  name : string;
  kind : kind;
  fanins : int array;
}

type t = {
  nodes : node array;
  pis : int array;                (* node ids, in input-vector order *)
  pos : (string * int) array;     (* output name, driving node id *)
  dffs : int array;               (* node ids of DFFs, state-vector order *)
  fanouts : int array array;      (* per node: ids of reading nodes *)
  order : int array;              (* gate ids in combinational topo order *)
  level : int array;              (* per node: combinational level, sources 0 *)
  name_index : (string, int) Hashtbl.t Lazy.t;
  (* name -> id, built on first lookup; first node wins on duplicates *)
}

let make ~nodes ~pis ~pos ~dffs ~fanouts ~order ~level =
  let name_index =
    lazy
      (let t = Hashtbl.create (2 * Array.length nodes) in
       Array.iter
         (fun nd -> if not (Hashtbl.mem t nd.name) then Hashtbl.add t nd.name nd.id)
         nodes;
       t)
  in
  { nodes; pis; pos; dffs; fanouts; order; level; name_index }

let gate_fn_name = function
  | And -> "AND" | Or -> "OR" | Nand -> "NAND" | Nor -> "NOR"
  | Not -> "NOT" | Buf -> "BUF" | Xor -> "XOR" | Xnor -> "XNOR"

(* Arity admitted for each gate function. *)
let arity_ok fn n =
  match fn with
  | Not | Buf -> n = 1
  | Xor | Xnor -> n = 2
  | And | Or | Nand | Nor -> n >= 1

let num_nodes c = Array.length c.nodes
let num_pis c = Array.length c.pis
let num_pos c = Array.length c.pos
let num_dffs c = Array.length c.dffs

let num_gates c =
  Array.fold_left
    (fun acc n -> match n.kind with Gate _ -> acc + 1 | Pi _ | Dff _ -> acc)
    0 c.nodes

let node c id = c.nodes.(id)

let dff_init c id =
  match c.nodes.(id).kind with
  | Dff { init } -> init
  | Pi _ | Gate _ -> invalid_arg "Node.dff_init: not a DFF"

let find_by_name c name = Hashtbl.find (Lazy.force c.name_index) name

(* Default per-gate delay model (arbitrary "nsec"-like units), loosely shaped
   after mcnc.genlib: inverters fast, wide gates slower. *)
let gate_delay fn arity =
  let base =
    match fn with
    | Not -> 1.0
    | Buf -> 1.0
    | Nand | Nor -> 1.2
    | And | Or -> 1.6
    | Xor | Xnor -> 2.2
  in
  base +. (0.35 *. float_of_int (max 0 (arity - 2)))

let gate_area fn arity =
  let base =
    match fn with
    | Not -> 1.0
    | Buf -> 1.5
    | Nand | Nor -> 2.0
    | And | Or -> 3.0
    | Xor | Xnor -> 5.0
  in
  base +. (1.0 *. float_of_int (max 0 (arity - 2)))

let dff_area = 6.0

(* Arrival-time longest combinational path using the delay model; DFF outputs
   and PIs arrive at t=0, path ends at PO or DFF input. *)
let critical_path c =
  let arrival = Array.make (num_nodes c) 0.0 in
  Array.iter
    (fun id ->
      let n = c.nodes.(id) in
      match n.kind with
      | Gate fn ->
        let worst = ref 0.0 in
        Array.iter
          (fun f -> if arrival.(f) > !worst then worst := arrival.(f))
          n.fanins;
        arrival.(id) <- !worst +. gate_delay fn (Array.length n.fanins)
      | Pi _ | Dff _ -> ())
    c.order;
  let best = ref 0.0 in
  let consider id = if arrival.(id) > !best then best := arrival.(id) in
  Array.iter (fun (_, id) -> consider id) c.pos;
  Array.iter
    (fun d ->
      let n = c.nodes.(d) in
      if Array.length n.fanins > 0 then consider n.fanins.(0))
    c.dffs;
  !best

let area c =
  let total = ref 0.0 in
  Array.iter
    (fun n ->
      match n.kind with
      | Gate fn -> total := !total +. gate_area fn (Array.length n.fanins)
      | Dff _ -> total := !total +. dff_area
      | Pi _ -> ())
    c.nodes;
  !total

let pp_summary ppf c =
  Fmt.pf ppf "netlist: %d PI, %d PO, %d DFF, %d gates, area %.1f, delay %.2f"
    (num_pis c) (num_pos c) (num_dffs c) (num_gates c) (area c)
    (critical_path c)
