(* One-time compiler from the pointer-rich netlist to a flat levelized
   instruction tape, plus the word-parallel evaluator that every hot
   simulation loop runs on.  See tape.mli for the layout and the
   levelization invariant. *)

type t = {
  circuit : Netlist.Node.t;
  num_nodes : int;
  num_gates : int;
  op : int array;
  node_of_slot : int array;
  slot_of_node : int array;
  fanin_base : int array;
  fanin : int array;
  level_off : int array;
  topo_slot : int array;
  fanout_base : int array;
  fanout : int array;
  pis : int array;
  pos : int array;
  dffs : int array;
  dff_data : int array;
  dff_init : bool array;
}

let op_buf = 0
let op_not = 1
let op_and = 2
let op_nand = 3
let op_or = 4
let op_nor = 5
let op_xor = 6
let op_xnor = 7

let op_of_fn = function
  | Netlist.Node.Buf -> op_buf
  | Netlist.Node.Not -> op_not
  | Netlist.Node.And -> op_and
  | Netlist.Node.Nand -> op_nand
  | Netlist.Node.Or -> op_or
  | Netlist.Node.Nor -> op_nor
  | Netlist.Node.Xor -> op_xor
  | Netlist.Node.Xnor -> op_xnor

let fn_of_op o =
  if o = op_buf then Netlist.Node.Buf
  else if o = op_not then Netlist.Node.Not
  else if o = op_and then Netlist.Node.And
  else if o = op_nand then Netlist.Node.Nand
  else if o = op_or then Netlist.Node.Or
  else if o = op_nor then Netlist.Node.Nor
  else if o = op_xor then Netlist.Node.Xor
  else if o = op_xnor then Netlist.Node.Xnor
  else invalid_arg (Printf.sprintf "Tape.fn_of_op: %d" o)

let compile (c : Netlist.Node.t) =
  let n = Netlist.Node.num_nodes c in
  let order = c.Netlist.Node.order in
  let num_gates = Array.length order in
  (* Level-major slot assignment by stable counting sort of the topo
     order on [level]: linear, and within a level the original order is
     preserved (so [order]-faithful walks stay cheap via [topo_slot]). *)
  let max_level =
    Array.fold_left (fun m id -> max m c.Netlist.Node.level.(id)) 0 order
  in
  let per_level = Array.make (max_level + 1) 0 in
  Array.iter
    (fun id ->
      let l = c.Netlist.Node.level.(id) in
      per_level.(l) <- per_level.(l) + 1)
    order;
  let level_off = Array.make (max_level + 2) 0 in
  for l = 0 to max_level do
    level_off.(l + 1) <- level_off.(l) + per_level.(l)
  done;
  let next = Array.copy level_off in
  let node_of_slot = Array.make num_gates (-1) in
  let topo_slot = Array.make num_gates (-1) in
  let slot_of_node = Array.make n (-1) in
  Array.iteri
    (fun topo_idx id ->
      let l = c.Netlist.Node.level.(id) in
      let s = next.(l) in
      next.(l) <- s + 1;
      node_of_slot.(s) <- id;
      slot_of_node.(id) <- s;
      topo_slot.(topo_idx) <- s)
    order;
  let op = Array.make num_gates 0 in
  let total_fanin = ref 0 in
  Array.iter
    (fun id ->
      total_fanin :=
        !total_fanin + Array.length (Netlist.Node.node c id).Netlist.Node.fanins)
    order;
  let fanin_base = Array.make (num_gates + 1) 0 in
  let fanin = Array.make (max 1 !total_fanin) 0 in
  let fp = ref 0 in
  for s = 0 to num_gates - 1 do
    let id = node_of_slot.(s) in
    let nd = Netlist.Node.node c id in
    (match nd.Netlist.Node.kind with
    | Netlist.Node.Gate fn ->
      let arity = Array.length nd.Netlist.Node.fanins in
      if not (Netlist.Node.arity_ok fn arity) then
        invalid_arg
          (Printf.sprintf "Tape.compile: gate %s has illegal arity %d"
             nd.Netlist.Node.name arity);
      op.(s) <- op_of_fn fn
    | Netlist.Node.Pi _ | Netlist.Node.Dff _ ->
      invalid_arg "Tape.compile: non-gate node in topological order");
    fanin_base.(s) <- !fp;
    Array.iter
      (fun src ->
        if src < 0 || src >= n then
          invalid_arg "Tape.compile: fanin id out of range";
        fanin.(!fp) <- src;
        incr fp)
      nd.Netlist.Node.fanins
  done;
  fanin_base.(num_gates) <- !fp;
  (* Verify the levelization invariant once here so [eval_range] can run
     unchecked: every fanin is a source or a strictly earlier slot. *)
  for s = 0 to num_gates - 1 do
    for p = fanin_base.(s) to fanin_base.(s + 1) - 1 do
      let src = fanin.(p) in
      let src_slot = slot_of_node.(src) in
      if src_slot >= s then
        invalid_arg "Tape.compile: levelization invariant violated"
    done
  done;
  (* Slot-level fanout index, the transpose of [fanin]: a counting pass,
     prefix sums, then a fill in slot order, so each node's consumer
     slots come out ascending. *)
  let fanout_base = Array.make (n + 1) 0 in
  for p = 0 to !fp - 1 do
    let src = fanin.(p) in
    fanout_base.(src + 1) <- fanout_base.(src + 1) + 1
  done;
  for id = 0 to n - 1 do
    fanout_base.(id + 1) <- fanout_base.(id + 1) + fanout_base.(id)
  done;
  let fanout = Array.make (max 1 !fp) 0 in
  let next = Array.sub fanout_base 0 n in
  for s = 0 to num_gates - 1 do
    for p = fanin_base.(s) to fanin_base.(s + 1) - 1 do
      let src = fanin.(p) in
      fanout.(next.(src)) <- s;
      next.(src) <- next.(src) + 1
    done
  done;
  let dffs = c.Netlist.Node.dffs in
  {
    circuit = c;
    num_nodes = n;
    num_gates;
    op;
    node_of_slot;
    slot_of_node;
    fanin_base;
    fanin;
    level_off;
    topo_slot;
    fanout_base;
    fanout;
    pis = Array.copy c.Netlist.Node.pis;
    pos = Array.map snd c.Netlist.Node.pos;
    dffs = Array.copy dffs;
    dff_data =
      Array.map
        (fun id -> (Netlist.Node.node c id).Netlist.Node.fanins.(0))
        dffs;
    dff_init = Array.map (fun id -> Netlist.Node.dff_init c id) dffs;
  }

(* The hot loop.  Unsafe accesses are justified by the checks in
   [compile] (every slot/fanin index is validated there, once) plus the
   range and length checks on entry; the dispatch is an int match over
   contiguous opcodes, which compiles to a jump table. *)
let eval_range tp ~values ~f0 ~f1 ~lo ~hi =
  if lo < 0 || hi > tp.num_gates then
    invalid_arg "Tape.eval_range: slot range outside the tape";
  if
    Array.length values < tp.num_nodes
    || Array.length f0 < tp.num_nodes
    || Array.length f1 < tp.num_nodes
  then invalid_arg "Tape.eval_range: array shorter than num_nodes";
  let op = tp.op
  and gid = tp.node_of_slot
  and base = tp.fanin_base
  and fan = tp.fanin in
  for s = lo to hi - 1 do
    let b = Array.unsafe_get base s in
    let w =
      match Array.unsafe_get op s with
      | 0 -> Array.unsafe_get values (Array.unsafe_get fan b)
      | 1 -> lnot (Array.unsafe_get values (Array.unsafe_get fan b))
      | 2 ->
        let e = Array.unsafe_get base (s + 1) in
        let acc = ref (Array.unsafe_get values (Array.unsafe_get fan b)) in
        for p = b + 1 to e - 1 do
          acc := !acc land Array.unsafe_get values (Array.unsafe_get fan p)
        done;
        !acc
      | 3 ->
        let e = Array.unsafe_get base (s + 1) in
        let acc = ref (Array.unsafe_get values (Array.unsafe_get fan b)) in
        for p = b + 1 to e - 1 do
          acc := !acc land Array.unsafe_get values (Array.unsafe_get fan p)
        done;
        lnot !acc
      | 4 ->
        let e = Array.unsafe_get base (s + 1) in
        let acc = ref (Array.unsafe_get values (Array.unsafe_get fan b)) in
        for p = b + 1 to e - 1 do
          acc := !acc lor Array.unsafe_get values (Array.unsafe_get fan p)
        done;
        !acc
      | 5 ->
        let e = Array.unsafe_get base (s + 1) in
        let acc = ref (Array.unsafe_get values (Array.unsafe_get fan b)) in
        for p = b + 1 to e - 1 do
          acc := !acc lor Array.unsafe_get values (Array.unsafe_get fan p)
        done;
        lnot !acc
      | 6 ->
        Array.unsafe_get values (Array.unsafe_get fan b)
        lxor Array.unsafe_get values (Array.unsafe_get fan (b + 1))
      | _ ->
        lnot
          (Array.unsafe_get values (Array.unsafe_get fan b)
          lxor Array.unsafe_get values (Array.unsafe_get fan (b + 1)))
    in
    let id = Array.unsafe_get gid s in
    Array.unsafe_set values id
      ((w land lnot (Array.unsafe_get f0 id)) lor Array.unsafe_get f1 id)
  done
