(* Bit-parallel two-valued simulator: each node holds a machine word whose
   bits are independent simulation lanes (up to [word_bits]).  Lanes share
   the input vector but may carry different injected stuck-at faults and
   therefore different DFF state — this is the PROOFS-style parallel-fault
   engine's core.  Lane 63/62... beyond [width] are unused.

   The combinational sweep runs on the flat levelized instruction tape
   ([Tape]); the original node-record walk survives as the [`Nodes]
   backend, kept as the bit-identity reference for the differential tests
   and the pre-tape baseline of `bench fsim`. *)

let word_bits = 62

type backend = [ `Tape | `Nodes ]

type t = {
  circuit : Netlist.Node.t;
  tape : Tape.t;
  backend : backend;
  values : int array;                    (* word per node *)
  next_state : int array;                (* captured DFF data, dff order *)
  stem_f0 : int array;                   (* per node: lanes forced to 0 *)
  stem_f1 : int array;                   (* per node: lanes forced to 1 *)
  pin_over : (int * int, int * int) Hashtbl.t; (* (gate,pin) -> (f0,f1) *)
  mutable has_pin_over : bool;
  over_slot : bool array;                (* per tape slot: pin fault here *)
}

let create_on ?(backend = `Tape) tape =
  let circuit = tape.Tape.circuit in
  let n = Netlist.Node.num_nodes circuit in
  {
    circuit;
    tape;
    backend;
    values = Array.make n 0;
    next_state = Array.make (Netlist.Node.num_dffs circuit) 0;
    stem_f0 = Array.make n 0;
    stem_f1 = Array.make n 0;
    pin_over = Hashtbl.create 31;
    has_pin_over = false;
    over_slot = Array.make (max 1 tape.Tape.num_gates) false;
  }

let create ?backend circuit = create_on ?backend (Tape.compile circuit)
let circuit t = t.circuit
let tape t = t.tape

let check_lane name lane =
  if lane < 0 || lane >= word_bits then
    invalid_arg
      (Printf.sprintf
         "Sim.Parallel.%s: lane %d outside 0..%d — lanes beyond word_bits \
          would overflow the 63-bit word and silently alias other lanes"
         name lane (word_bits - 1))

let inject_stem t ~node ~lane ~value =
  check_lane "inject_stem" lane;
  if value then t.stem_f1.(node) <- t.stem_f1.(node) lor (1 lsl lane)
  else t.stem_f0.(node) <- t.stem_f0.(node) lor (1 lsl lane)

let inject_pin t ~gate ~pin ~lane ~value =
  check_lane "inject_pin" lane;
  let f0, f1 =
    try Hashtbl.find t.pin_over (gate, pin) with Not_found -> (0, 0)
  in
  let f0, f1 =
    if value then (f0, f1 lor (1 lsl lane)) else (f0 lor (1 lsl lane), f1)
  in
  Hashtbl.replace t.pin_over (gate, pin) (f0, f1);
  t.has_pin_over <- true;
  (* DFF data pins have no slot; their overrides apply at state capture. *)
  let s = t.tape.Tape.slot_of_node.(gate) in
  if s >= 0 then t.over_slot.(s) <- true

let apply_stem t id w = (w land lnot t.stem_f0.(id)) lor t.stem_f1.(id)

let read_pin t gate pin source =
  let w = t.values.(source) in
  if t.has_pin_over then
    match Hashtbl.find_opt t.pin_over (gate, pin) with
    | None -> w
    | Some (f0, f1) -> (w land lnot f0) lor f1
  else w

let reset t =
  let c = t.circuit in
  Array.iter
    (fun id ->
      let v = if Netlist.Node.dff_init c id then -1 else 0 in
      t.values.(id) <- apply_stem t id v)
    c.Netlist.Node.dffs

let set_state_words t words =
  Array.iteri
    (fun i id -> t.values.(id) <- apply_stem t id words.(i))
    t.circuit.Netlist.Node.dffs

let get_state_words t =
  Array.map (fun id -> t.values.(id)) t.circuit.Netlist.Node.dffs

(* Broadcast one boolean input vector to all lanes. *)
let set_input_broadcast t bits =
  Array.iteri
    (fun i id ->
      let v = if bits.(i) then -1 else 0 in
      t.values.(id) <- apply_stem t id v)
    t.circuit.Netlist.Node.pis

(* Per-lane input words (bit l of [words.(i)] = value of PI i in lane l). *)
let set_input_words t words =
  Array.iteri
    (fun i id -> t.values.(id) <- apply_stem t id words.(i))
    t.circuit.Netlist.Node.pis

let eval_gate_word t gate_id fn fanins =
  let arity = Array.length fanins in
  match fn, arity with
  | Netlist.Node.Not, _ -> lnot (read_pin t gate_id 0 fanins.(0))
  | Netlist.Node.Buf, _ -> read_pin t gate_id 0 fanins.(0)
  | Netlist.Node.Xor, _ ->
    read_pin t gate_id 0 fanins.(0) lxor read_pin t gate_id 1 fanins.(1)
  | Netlist.Node.Xnor, _ ->
    lnot (read_pin t gate_id 0 fanins.(0) lxor read_pin t gate_id 1 fanins.(1))
  | Netlist.Node.And, _ ->
    let acc = ref (-1) in
    for p = 0 to arity - 1 do acc := !acc land read_pin t gate_id p fanins.(p) done;
    !acc
  | Netlist.Node.Nand, _ ->
    let acc = ref (-1) in
    for p = 0 to arity - 1 do acc := !acc land read_pin t gate_id p fanins.(p) done;
    lnot !acc
  | Netlist.Node.Or, _ ->
    let acc = ref 0 in
    for p = 0 to arity - 1 do acc := !acc lor read_pin t gate_id p fanins.(p) done;
    !acc
  | Netlist.Node.Nor, _ ->
    let acc = ref 0 in
    for p = 0 to arity - 1 do acc := !acc lor read_pin t gate_id p fanins.(p) done;
    lnot !acc

(* Pre-tape sweep over the node records — the [`Nodes] reference. *)
let eval_gates_nodes t =
  let c = t.circuit in
  Array.iter
    (fun id ->
      let nd = Netlist.Node.node c id in
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn ->
        t.values.(id) <-
          apply_stem t id (eval_gate_word t id fn nd.Netlist.Node.fanins)
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
    c.Netlist.Node.order

(* Tape sweep in the presence of pin overrides: identical to
   [Tape.eval_words] except that the few slots carrying an injected pin
   fault ([over_slot]) re-read each fanin through the override table.
   Pin faults touch at most one gate per injected fault, so the fast
   no-Hashtbl path still covers virtually every slot. *)
let eval_gates_tape_over t =
  let tp = t.tape in
  let values = t.values in
  let op = tp.Tape.op
  and gid = tp.Tape.node_of_slot
  and base = tp.Tape.fanin_base
  and fan = tp.Tape.fanin in
  for s = 0 to tp.Tape.num_gates - 1 do
    let b = base.(s) in
    let e = base.(s + 1) in
    let id = gid.(s) in
    let w =
      if t.over_slot.(s) then begin
        let pin p = read_pin t id (p - b) fan.(p) in
        match op.(s) with
        | 0 -> pin b
        | 1 -> lnot (pin b)
        | 2 | 3 ->
          let acc = ref (pin b) in
          for p = b + 1 to e - 1 do acc := !acc land pin p done;
          if op.(s) = 2 then !acc else lnot !acc
        | 4 | 5 ->
          let acc = ref (pin b) in
          for p = b + 1 to e - 1 do acc := !acc lor pin p done;
          if op.(s) = 4 then !acc else lnot !acc
        | 6 -> pin b lxor pin (b + 1)
        | _ -> lnot (pin b lxor pin (b + 1))
      end
      else
        match op.(s) with
        | 0 -> values.(fan.(b))
        | 1 -> lnot values.(fan.(b))
        | 2 | 3 ->
          let acc = ref values.(fan.(b)) in
          for p = b + 1 to e - 1 do acc := !acc land values.(fan.(p)) done;
          if op.(s) = 2 then !acc else lnot !acc
        | 4 | 5 ->
          let acc = ref values.(fan.(b)) in
          for p = b + 1 to e - 1 do acc := !acc lor values.(fan.(p)) done;
          if op.(s) = 4 then !acc else lnot !acc
        | 6 -> values.(fan.(b)) lxor values.(fan.(b + 1))
        | _ -> lnot (values.(fan.(b)) lxor values.(fan.(b + 1)))
    in
    values.(id) <- (w land lnot t.stem_f0.(id)) lor t.stem_f1.(id)
  done

(* DFF data capture; pin 0 of the DFF node is its data pin for injection. *)
let capture_next_state t =
  let tp = t.tape in
  let dffs = tp.Tape.dffs and data = tp.Tape.dff_data in
  if t.has_pin_over then
    for i = 0 to Array.length dffs - 1 do
      t.next_state.(i) <- read_pin t dffs.(i) 0 data.(i)
    done
  else
    for i = 0 to Array.length dffs - 1 do
      t.next_state.(i) <- t.values.(data.(i))
    done

let eval_comb t =
  (match t.backend with
  | `Nodes -> eval_gates_nodes t
  | `Tape ->
    if t.has_pin_over then eval_gates_tape_over t
    else
      Tape.eval_words t.tape ~values:t.values ~f0:t.stem_f0 ~f1:t.stem_f1);
  capture_next_state t

let tick t =
  Array.iteri
    (fun i id -> t.values.(id) <- apply_stem t id t.next_state.(i))
    t.circuit.Netlist.Node.dffs

let output_words t =
  Array.map (fun (_, id) -> t.values.(id)) t.circuit.Netlist.Node.pos

let node_word t id = t.values.(id)

(* One full cycle with broadcast inputs; returns PO words before the tick. *)
let step_broadcast t bits =
  set_input_broadcast t bits;
  eval_comb t;
  let out = output_words t in
  tick t;
  out
