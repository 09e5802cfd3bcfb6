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

(* Injected faults, one representation read by both backends:
   - stems: per-node lane masks [stem_f0]/[stem_f1], applied to the
     node's word after it is computed (or loaded, for PIs and DFFs);
   - gate pins: lane masks at the pin's flat fanin position of the tape
     ([pin_f0]/[pin_f1]); the gates carrying one are listed ascending in
     [over_slots] (and flagged in [over_mark]) so the tape backend can
     sweep the unchecked kernel between them;
   - DFF data pins: per-DFF lane masks [dff_f0]/[dff_f1], applied at
     state capture.
   A zero mask is the identity, so clearing a mask removes the fault. *)
type t = {
  circuit : Netlist.Node.t;
  tape : Tape.t;
  backend : backend;
  values : int array;                    (* word per node *)
  next_state : int array;                (* captured DFF data, dff order *)
  stem_f0 : int array;                   (* per node: lanes forced to 0 *)
  stem_f1 : int array;                   (* per node: lanes forced to 1 *)
  pin_f0 : int array;                    (* per fanin position *)
  pin_f1 : int array;
  dff_f0 : int array;                    (* per DFF data pin *)
  dff_f1 : int array;
  over_slots : int array;                (* pin-faulted slots, ascending *)
  mutable n_over : int;                  (* live prefix of [over_slots] *)
  over_mark : Bytes.t;                   (* per slot: in [over_slots] *)
}

let create_on ?(backend = `Tape) tape =
  let circuit = tape.Tape.circuit in
  let n = tape.Tape.num_nodes in
  let nd = Array.length tape.Tape.dffs in
  let nf = Array.length tape.Tape.fanin in
  let ng = max 1 tape.Tape.num_gates in
  {
    circuit;
    tape;
    backend;
    values = Array.make n 0;
    next_state = Array.make nd 0;
    stem_f0 = Array.make n 0;
    stem_f1 = Array.make n 0;
    pin_f0 = Array.make nf 0;
    pin_f1 = Array.make nf 0;
    dff_f0 = Array.make nd 0;
    dff_f1 = Array.make nd 0;
    over_slots = Array.make ng 0;
    n_over = 0;
    over_mark = Bytes.make ng '\000';
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

let set_mask f0 f1 i ~lane ~value =
  if value then f1.(i) <- f1.(i) lor (1 lsl lane)
  else f0.(i) <- f0.(i) lor (1 lsl lane)

(* Insert [s] into the ascending [over_slots] list (at most once). *)
let mark_slot t s =
  if Bytes.get t.over_mark s = '\000' then begin
    Bytes.set t.over_mark s '\001';
    let i = ref t.n_over in
    while !i > 0 && t.over_slots.(!i - 1) > s do
      t.over_slots.(!i) <- t.over_slots.(!i - 1);
      decr i
    done;
    t.over_slots.(!i) <- s;
    t.n_over <- t.n_over + 1
  end

let inject_pin t ~gate ~pin ~lane ~value =
  check_lane "inject_pin" lane;
  let tp = t.tape in
  let s = tp.Tape.slot_of_node.(gate) in
  if s >= 0 then begin
    let b = tp.Tape.fanin_base.(s) in
    if pin < 0 || b + pin >= tp.Tape.fanin_base.(s + 1) then
      invalid_arg "Sim.Parallel.inject_pin: no such gate pin";
    set_mask t.pin_f0 t.pin_f1 (b + pin) ~lane ~value;
    mark_slot t s
  end
  else begin
    (* DFF data pins have no slot; their overrides apply at capture *)
    let i = ref 0 and nd = Array.length tp.Tape.dffs in
    while !i < nd && tp.Tape.dffs.(!i) <> gate do incr i done;
    if !i = nd || pin <> 0 then
      invalid_arg "Sim.Parallel.inject_pin: no such gate or DFF data pin";
    set_mask t.dff_f0 t.dff_f1 !i ~lane ~value
  end

let clear_faults t =
  let tp = t.tape in
  Array.fill t.stem_f0 0 (Array.length t.stem_f0) 0;
  Array.fill t.stem_f1 0 (Array.length t.stem_f1) 0;
  for k = 0 to t.n_over - 1 do
    let s = t.over_slots.(k) in
    let b = tp.Tape.fanin_base.(s) in
    let len = tp.Tape.fanin_base.(s + 1) - b in
    Array.fill t.pin_f0 b len 0;
    Array.fill t.pin_f1 b len 0;
    Bytes.set t.over_mark s '\000'
  done;
  t.n_over <- 0;
  Array.fill t.dff_f0 0 (Array.length t.dff_f0) 0;
  Array.fill t.dff_f1 0 (Array.length t.dff_f1) 0

let apply_stem t id w = (w land lnot t.stem_f0.(id)) lor t.stem_f1.(id)

(* The word gate pin at flat fanin position [p] reads. *)
let pin_word t p =
  (t.values.(t.tape.Tape.fanin.(p)) land lnot t.pin_f0.(p)) lor t.pin_f1.(p)

let reset t =
  let dffs = t.tape.Tape.dffs and init = t.tape.Tape.dff_init in
  for i = 0 to Array.length dffs - 1 do
    t.values.(dffs.(i)) <- apply_stem t dffs.(i) (if init.(i) then -1 else 0)
  done

let set_state_words t words =
  let dffs = t.tape.Tape.dffs in
  for i = 0 to Array.length dffs - 1 do
    t.values.(dffs.(i)) <- apply_stem t dffs.(i) words.(i)
  done

let get_state_words t = Array.map (fun id -> t.values.(id)) t.tape.Tape.dffs

(* Broadcast one boolean input vector to all lanes. *)
let set_input_broadcast t bits =
  let pis = t.tape.Tape.pis in
  for i = 0 to Array.length pis - 1 do
    t.values.(pis.(i)) <- apply_stem t pis.(i) (if bits.(i) then -1 else 0)
  done

(* Per-lane input words (bit l of [words.(i)] = value of PI i in lane l). *)
let set_input_words t words =
  let pis = t.tape.Tape.pis in
  for i = 0 to Array.length pis - 1 do
    t.values.(pis.(i)) <- apply_stem t pis.(i) words.(i)
  done

(* The word pin [pin] of gate [gate_id] reads, through its override when
   the gate carries one. *)
let read_pin t gate_id pin source =
  let s = t.tape.Tape.slot_of_node.(gate_id) in
  if Bytes.get t.over_mark s = '\000' then t.values.(source)
  else pin_word t (t.tape.Tape.fanin_base.(s) + pin)

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

(* One pin-faulted slot: every fanin is read through its pin masks. *)
let eval_over_slot t s =
  let tp = t.tape in
  let b = tp.Tape.fanin_base.(s) and e = tp.Tape.fanin_base.(s + 1) in
  let w =
    match tp.Tape.op.(s) with
    | 0 -> pin_word t b
    | 1 -> lnot (pin_word t b)
    | (2 | 3) as o ->
      let acc = ref (pin_word t b) in
      for p = b + 1 to e - 1 do acc := !acc land pin_word t p done;
      if o = 2 then !acc else lnot !acc
    | (4 | 5) as o ->
      let acc = ref (pin_word t b) in
      for p = b + 1 to e - 1 do acc := !acc lor pin_word t p done;
      if o = 4 then !acc else lnot !acc
    | 6 -> pin_word t b lxor pin_word t (b + 1)
    | _ -> lnot (pin_word t b lxor pin_word t (b + 1))
  in
  let id = tp.Tape.node_of_slot.(s) in
  t.values.(id) <- apply_stem t id w

(* Tape sweep: the unchecked kernel runs over the slot ranges between
   the pin-faulted slots, which are evaluated one by one through their
   masks — a batch of pin faults costs its faulted gates, not a slower
   sweep of the whole tape. *)
let eval_gates_tape t =
  let tp = t.tape in
  let lo = ref 0 in
  for k = 0 to t.n_over - 1 do
    let s = t.over_slots.(k) in
    Tape.eval_range tp ~values:t.values ~f0:t.stem_f0 ~f1:t.stem_f1 ~lo:!lo
      ~hi:s;
    eval_over_slot t s;
    lo := s + 1
  done;
  Tape.eval_range tp ~values:t.values ~f0:t.stem_f0 ~f1:t.stem_f1 ~lo:!lo
    ~hi:tp.Tape.num_gates

(* DFF data capture through the data-pin masks. *)
let capture_next_state t =
  let data = t.tape.Tape.dff_data in
  for i = 0 to Array.length data - 1 do
    t.next_state.(i) <-
      (t.values.(data.(i)) land lnot t.dff_f0.(i)) lor t.dff_f1.(i)
  done

let eval_comb t =
  (match t.backend with
  | `Nodes -> eval_gates_nodes t
  | `Tape -> eval_gates_tape t);
  capture_next_state t

let tick t =
  let dffs = t.tape.Tape.dffs in
  for i = 0 to Array.length dffs - 1 do
    t.values.(dffs.(i)) <- apply_stem t dffs.(i) t.next_state.(i)
  done

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
