(* Five-valued (0, 1, X, D, D') iterative-array model: the circuit is
   unrolled over k time frames; good and faulty machines are simulated side
   by side with the fault injected in every frame.  D at a node means
   good=1/faulty=0 at that node in that frame.

   Pseudo-inputs: the primary inputs of every frame and the present state of
   frame 0.  Later frames take their present state from the previous
   frame's next-state values (good and faulty tracked separately).

   Implication is event-driven (DESIGN §7.1): a frame's first sweep
   evaluates every gate; later sweeps re-evaluate only the gates a changed
   value can reach, through the tape's fanout index.  Each sweep is still
   charged one full pass of the tape in work units, the cost model the
   paper's CPU ratios are computed from. *)

type t = {
  circuit : Netlist.Node.t;
  tape : Sim.Tape.t;                 (* flat levelized instruction tape *)
  fault : Fsim.Fault.t option;
  dff_pos : int array;               (* node id -> dff position, or -1 *)
  k : int;
  good : Sim.Value3.t array array;   (* [frame][node] *)
  faulty : Sim.Value3.t array array;
  pi : Sim.Value3.t array array;     (* [frame][pi index], assignable *)
  ps0 : Sim.Value3.t array;          (* [dff position], assignable *)
  frontier : int list array;         (* per frame: D-frontier gate ids *)
  in_frontier : Bytes.t;             (* [frame * num_gates + slot] flag *)
  swept : Bytes.t;                   (* per frame: evaluated at least once *)
  dirty : Bytes.t;                   (* per slot: a fanin changed *)
  mutable pending : int;             (* dirty slots not yet evaluated *)
  mutable low : int;                 (* lowest dirty slot, or max_int *)
  stem : int;                        (* stem-fault node, or -1 *)
  stem_v : Sim.Value3.t;
  pin_gate : int;                    (* branch-fault gate, or -1 *)
  pin : int;
  pin_v : Sim.Value3.t;
  po_driver : bool array;            (* per node: drives a primary output *)
  mutable visited : int array;       (* x_path stamps [frame * n + node] *)
  mutable stamp : int;
  guide : (int array * int array) option;
  (* optional SCOAP (cc0, cc1) per node, used by backtrace input choice *)
  stats : Types.stats;
}

(* global frame-expansion counter for `satpg --metrics` *)
let m_frames = Obs.Metrics.counter "atpg.frames.expanded"

let create ?fault ?guide (tape : Sim.Tape.t) ~frames ~stats =
  stats.Types.frames <- stats.Types.frames + frames;
  Obs.Metrics.add m_frames frames;
  let circuit = tape.Sim.Tape.circuit in
  let n = tape.Sim.Tape.num_nodes in
  let dff_pos = Array.make n (-1) in
  Array.iteri (fun j id -> dff_pos.(id) <- j) tape.Sim.Tape.dffs;
  let stem, stem_v, pin_gate, pin, pin_v =
    match fault with
    | Some { Fsim.Fault.site = Fsim.Fault.Stem s; stuck } ->
      (s, Sim.Value3.of_bool stuck, -1, -1, Sim.Value3.X)
    | Some { Fsim.Fault.site = Fsim.Fault.Pin { gate; pin }; stuck } ->
      (-1, Sim.Value3.X, gate, pin, Sim.Value3.of_bool stuck)
    | None -> (-1, Sim.Value3.X, -1, -1, Sim.Value3.X)
  in
  {
    circuit;
    tape;
    fault;
    dff_pos;
    k = frames;
    good = Array.init frames (fun _ -> Array.make n Sim.Value3.X);
    faulty = Array.init frames (fun _ -> Array.make n Sim.Value3.X);
    pi = Array.init frames (fun _ ->
        Array.make (Array.length tape.Sim.Tape.pis) Sim.Value3.X);
    ps0 = Array.make (Array.length tape.Sim.Tape.dffs) Sim.Value3.X;
    frontier = Array.make frames [];
    in_frontier = Bytes.make (frames * tape.Sim.Tape.num_gates) '\000';
    swept = Bytes.make frames '\000';
    dirty = Bytes.make tape.Sim.Tape.num_gates '\000';
    pending = 0;
    low = max_int;
    stem;
    stem_v;
    pin_gate;
    pin;
    pin_v;
    po_driver =
      (let po = Array.make n false in
       Array.iter (fun id -> po.(id) <- true) tape.Sim.Tape.pos;
       po);
    visited = [||];
    stamp = 0;
    guide;
    stats;
  }

(* faulty-machine pin read with branch-fault override *)
let read_faulty t frame gate pin src =
  if gate = t.pin_gate && pin = t.pin then t.pin_v else t.faulty.(frame).(src)

let is_d g f =
  match g, f with
  | Sim.Value3.One, Sim.Value3.Zero | Sim.Value3.Zero, Sim.Value3.One -> true
  | _ -> false

(* --- gate folds ------------------------------------------------------------
   One fold of a tape slot's fanin slice [b, e) over a value array, shared
   by both machines; [fold_pin] is the same fold with fanin index [pp]
   reading [pv] instead, used only at the gate carrying a branch fault. *)

let fold op (v : Sim.Value3.t array) (fan : int array) b e =
  match op with
  | 0 -> v.(fan.(b))
  | 1 -> Sim.Value3.v_not v.(fan.(b))
  | (2 | 3) as o ->
    let acc = ref v.(fan.(b)) in
    for p = b + 1 to e - 1 do
      acc := Sim.Value3.v_and !acc v.(fan.(p))
    done;
    if o = 2 then !acc else Sim.Value3.v_not !acc
  | (4 | 5) as o ->
    let acc = ref v.(fan.(b)) in
    for p = b + 1 to e - 1 do
      acc := Sim.Value3.v_or !acc v.(fan.(p))
    done;
    if o = 4 then !acc else Sim.Value3.v_not !acc
  | 6 -> Sim.Value3.v_xor v.(fan.(b)) v.(fan.(b + 1))
  | _ -> Sim.Value3.v_not (Sim.Value3.v_xor v.(fan.(b)) v.(fan.(b + 1)))

let read_pin (v : Sim.Value3.t array) (fan : int array) p pp pv =
  if p = pp then pv else v.(fan.(p))

let fold_pin op v fan b e pp pv =
  match op with
  | 0 -> read_pin v fan b pp pv
  | 1 -> Sim.Value3.v_not (read_pin v fan b pp pv)
  | (2 | 3) as o ->
    let acc = ref (read_pin v fan b pp pv) in
    for p = b + 1 to e - 1 do
      acc := Sim.Value3.v_and !acc (read_pin v fan p pp pv)
    done;
    if o = 2 then !acc else Sim.Value3.v_not !acc
  | (4 | 5) as o ->
    let acc = ref (read_pin v fan b pp pv) in
    for p = b + 1 to e - 1 do
      acc := Sim.Value3.v_or !acc (read_pin v fan p pp pv)
    done;
    if o = 4 then !acc else Sim.Value3.v_not !acc
  | 6 ->
    Sim.Value3.v_xor (read_pin v fan b pp pv) (read_pin v fan (b + 1) pp pv)
  | _ ->
    Sim.Value3.v_not
      (Sim.Value3.v_xor (read_pin v fan b pp pv) (read_pin v fan (b + 1) pp pv))

(* --- event-driven sweep --------------------------------------------------- *)

(* Mark every consumer slot of node [id] dirty. *)
let wake t id =
  let tp = t.tape in
  let fo = tp.Sim.Tape.fanout and base = tp.Sim.Tape.fanout_base in
  for q = base.(id) to base.(id + 1) - 1 do
    let s = fo.(q) in
    if Bytes.get t.dirty s = '\000' then begin
      Bytes.set t.dirty s '\001';
      t.pending <- t.pending + 1;
      if s < t.low then t.low <- s
    end
  done

(* Store node [id]'s (good, faulty) pair in [frame]; when it changed and
   the frame is not being swept whole ([first]), wake its consumers. *)
let store t frame id gv fv ~first =
  let g = t.good.(frame) and f = t.faulty.(frame) in
  if g.(id) <> gv || f.(id) <> fv then begin
    g.(id) <- gv;
    f.(id) <- fv;
    if not first then wake t id
  end

(* Evaluate slot [s] of [frame] in both machines, store its pair, and
   update its D-frontier flag (output X in either machine, a D on some
   input).  Returns whether the flag flipped. *)
let eval_slot t frame s ~first =
  let tp = t.tape in
  let g = t.good.(frame) and f = t.faulty.(frame) in
  let fan = tp.Sim.Tape.fanin in
  let id = tp.Sim.Tape.node_of_slot.(s) in
  let b = tp.Sim.Tape.fanin_base.(s) in
  let e = tp.Sim.Tape.fanin_base.(s + 1) in
  let op = tp.Sim.Tape.op.(s) in
  let pp = if id = t.pin_gate then b + t.pin else -1 in
  let gv = fold op g fan b e in
  let fv =
    if id = t.stem then t.stem_v
    else if pp >= 0 then fold_pin op f fan b e pp t.pin_v
    else fold op f fan b e
  in
  store t frame id gv fv ~first;
  let on =
    (gv = Sim.Value3.X || fv = Sim.Value3.X)
    &&
    let found = ref false and p = ref b in
    while (not !found) && !p < e do
      if is_d g.(fan.(!p)) (read_pin f fan !p pp t.pin_v) then found := true;
      incr p
    done;
    !found
  in
  let i = (frame * tp.Sim.Tape.num_gates) + s in
  if (Bytes.get t.in_frontier i <> '\000') <> on then begin
    Bytes.set t.in_frontier i (if on then '\001' else '\000');
    true
  end
  else false

(* Re-list [frame]'s D-frontier from its flags, walking the tape's
   [topo_slot] (the netlist's topological order) so the list — and hence
   every PODEM objective choice — is the one a node-order walk builds. *)
let relist_frontier t frame =
  let tp = t.tape in
  let base = frame * tp.Sim.Tape.num_gates in
  let topo = tp.Sim.Tape.topo_slot in
  let l = ref [] in
  for i = 0 to Array.length topo - 1 do
    let s = topo.(i) in
    if Bytes.get t.in_frontier (base + s) <> '\000' then
      l := tp.Sim.Tape.node_of_slot.(s) :: !l
  done;
  t.frontier.(frame) <- !l

let eval_frame t frame =
  let tp = t.tape in
  t.stats.Types.work <- t.stats.Types.work + tp.Sim.Tape.num_gates;
  let first = Bytes.get t.swept frame = '\000' in
  (* primary inputs, with a stem fault on a PI *)
  let pis = tp.Sim.Tape.pis and pi = t.pi.(frame) in
  for i = 0 to Array.length pis - 1 do
    let id = pis.(i) in
    store t frame id pi.(i) (if id = t.stem then t.stem_v else pi.(i))
      ~first
  done;
  (* present state: frame 0's is assigned, later frames' is the previous
     frame's next state (the faulty one with a DFF-pin fault override);
     then a stem fault on a DFF output *)
  let dffs = tp.Sim.Tape.dffs and data = tp.Sim.Tape.dff_data in
  for j = 0 to Array.length dffs - 1 do
    let id = dffs.(j) in
    let gv =
      if frame = 0 then t.ps0.(j) else t.good.(frame - 1).(data.(j))
    in
    let fv =
      if id = t.stem then t.stem_v
      else if frame = 0 then t.ps0.(j)
      else read_faulty t (frame - 1) id 0 data.(j)
    in
    store t frame id gv fv ~first
  done;
  let moved = ref false in
  if first then begin
    for s = 0 to tp.Sim.Tape.num_gates - 1 do
      if eval_slot t frame s ~first then moved := true
    done;
    Bytes.set t.swept frame '\001'
  end
  else begin
    (* consumers always sit at higher slots (levelization invariant), so
       one ascending scan from the lowest mark drains every mark,
       including those made during the scan *)
    let s = ref t.low in
    while t.pending > 0 do
      if Bytes.get t.dirty !s <> '\000' then begin
        Bytes.set t.dirty !s '\000';
        t.pending <- t.pending - 1;
        if eval_slot t frame !s ~first then moved := true
      end;
      incr s
    done;
    t.low <- max_int
  end;
  if !moved then relist_frontier t frame

let imply ?(from = 0) t =
  for frame = from to t.k - 1 do
    eval_frame t frame
  done

let detected t =
  let c = t.circuit in
  let hit = ref false in
  for frame = 0 to t.k - 1 do
    Array.iter
      (fun (_, id) ->
        if is_d t.good.(frame).(id) t.faulty.(frame).(id) then hit := true)
      c.Netlist.Node.pos
  done;
  !hit

(* Does any D reach a next-state (DFF data) in the last frame?  If so, more
   frames might detect the fault: exhaustion is not a redundancy proof. *)
let d_escapes t =
  let c = t.circuit in
  let last = t.k - 1 in
  Array.exists
    (fun id ->
      let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
      is_d t.good.(last).(data) (read_faulty t last id 0 data))
    c.Netlist.Node.dffs

(* D-frontier: gates whose output is X (in either machine) with a D on some
   input, listed as (frame, gate id), earliest frames first.  Maintained
   incrementally by frame evaluation. *)
let d_frontier t =
  let acc = ref [] in
  for frame = t.k - 1 downto 0 do
    List.iter (fun id -> acc := (frame, id) :: !acc) t.frontier.(frame)
  done;
  !acc

(* X-path analysis from the D-frontier: can the fault effect still reach a
   primary output inside the window (through X-valued nodes), and can it
   escape through the last frame's next state?  Soundness of the redundancy
   claim relies on [escapes]: exhaustion only proves redundancy if no
   potential escape was ever seen.  A node is visited in this call when its
   stamp equals the call's, so the stamp array is never cleared. *)
type x_path = { reaches_po : bool; escapes : bool }

let x_path t =
  let c = t.circuit in
  let n = Netlist.Node.num_nodes c in
  if Array.length t.visited = 0 then t.visited <- Array.make (t.k * n) 0;
  t.stamp <- t.stamp + 1;
  let visited = t.visited and stamp = t.stamp in
  let reaches_po = ref false in
  let escapes = ref false in
  let is_x frame id =
    t.good.(frame).(id) = Sim.Value3.X || t.faulty.(frame).(id) = Sim.Value3.X
  in
  let rec go frame id =
    let key = (frame * n) + id in
    if visited.(key) <> stamp then begin
      visited.(key) <- stamp;
      t.stats.Types.work <- t.stats.Types.work + 1;
      if t.po_driver.(id) then reaches_po := true;
      if not !reaches_po then
        Array.iter
          (fun s ->
            match (Netlist.Node.node c s).Netlist.Node.kind with
            | Netlist.Node.Gate _ -> if is_x frame s then go frame s
            | Netlist.Node.Dff _ ->
              if frame + 1 >= t.k then escapes := true
              else if is_x (frame + 1) s then go (frame + 1) s
            | Netlist.Node.Pi _ -> ())
          c.Netlist.Node.fanouts.(id)
    end
  in
  (try
     for frame = 0 to t.k - 1 do
       List.iter
         (fun id ->
           go frame id;
           if !reaches_po then raise Exit)
         t.frontier.(frame)
     done
   with Exit -> ());
  (* a D already sitting on a PO or escaping is handled by [detected] and
     [d_escapes]; X-path covers the potential future *)
  { reaches_po = !reaches_po; escapes = !escapes }
