(* Five-valued (0, 1, X, D, D') iterative-array model: the circuit is
   unrolled over k time frames; good and faulty machines are simulated side
   by side with the fault injected in every frame.  D at a node means
   good=1/faulty=0 at that node in that frame.

   Pseudo-inputs: the primary inputs of every frame and the present state of
   frame 0.  Later frames take their present state from the previous
   frame's next-state values (good and faulty tracked separately). *)

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
  dfront : bool array;               (* per node scratch: frontier flag *)
  po_driver : bool array;            (* per node: drives a primary output *)
  guide : (int array * int array) option;
  (* optional SCOAP (cc0, cc1) per node, used by backtrace input choice *)
  stats : Types.stats;
}

(* global frame-expansion counter for `satpg --metrics` *)
let m_frames = Obs.Metrics.counter "atpg.frames.expanded"

let create ?fault ?guide circuit ~frames ~stats =
  stats.Types.frames <- stats.Types.frames + frames;
  Obs.Metrics.add m_frames frames;
  let n = Netlist.Node.num_nodes circuit in
  let dff_pos = Array.make n (-1) in
  Array.iteri (fun j id -> dff_pos.(id) <- j) circuit.Netlist.Node.dffs;
  {
    circuit;
    tape = Sim.Tape.compile circuit;
    fault;
    dff_pos;
    k = frames;
    good = Array.init frames (fun _ -> Array.make n Sim.Value3.X);
    faulty = Array.init frames (fun _ -> Array.make n Sim.Value3.X);
    pi = Array.init frames (fun _ ->
        Array.make (Netlist.Node.num_pis circuit) Sim.Value3.X);
    ps0 = Array.make (Netlist.Node.num_dffs circuit) Sim.Value3.X;
    frontier = Array.make frames [];
    dfront = Array.make n false;
    po_driver =
      (let po = Array.make n false in
       Array.iter (fun (_, id) -> po.(id) <- true) circuit.Netlist.Node.pos;
       po);
    guide;
    stats;
  }

(* faulty-machine pin read with branch-fault override *)
let read_faulty t frame gate pin src =
  match t.fault with
  | Some { Fsim.Fault.site = Fsim.Fault.Pin { gate = fg; pin = fp }; stuck }
    when fg = gate && fp = pin ->
    Sim.Value3.of_bool stuck
  | Some _ | None -> t.faulty.(frame).(src)

let rec is_d g f =
  match g, f with
  | Sim.Value3.One, Sim.Value3.Zero | Sim.Value3.Zero, Sim.Value3.One -> true
  | _ -> false

and eval_frame t frame =
  t.frontier.(frame) <- [];
  let c = t.circuit in
  let g = t.good.(frame) and f = t.faulty.(frame) in
  (* primary inputs *)
  Array.iteri
    (fun i id ->
      g.(id) <- t.pi.(frame).(i);
      f.(id) <- t.pi.(frame).(i))
    c.Netlist.Node.pis;
  (* present state *)
  Array.iteri
    (fun j id ->
      if frame = 0 then begin
        g.(id) <- t.ps0.(j);
        f.(id) <- t.ps0.(j)
      end
      else begin
        let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
        g.(id) <- t.good.(frame - 1).(data);
        (* faulty present state: previous frame's faulty next-state, with a
           DFF-pin fault override *)
        f.(id) <- read_faulty t (frame - 1) id 0 data
      end)
    c.Netlist.Node.dffs;
  (* stem fault on a PI or DFF output *)
  (match t.fault with
   | Some { Fsim.Fault.site = Fsim.Fault.Stem s; stuck } ->
     (match (Netlist.Node.node c s).Netlist.Node.kind with
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ ->
        f.(s) <- Sim.Value3.of_bool stuck
      | Netlist.Node.Gate _ -> ())
   | Some { Fsim.Fault.site = Fsim.Fault.Pin _; _ } | None -> ());
  (* Combinational logic, swept over the flat instruction tape: one
     linear walk of dense arrays, no node records, no per-gate fanin
     allocation.  Values are order-independent under levelization; the
     D-frontier is assembled afterwards in original topological order
     (via [topo_slot]) so the collected list — and hence every PODEM
     objective choice downstream — is identical to the node-order walk
     this replaces. *)
  let tp = t.tape in
  let op = tp.Sim.Tape.op
  and gid = tp.Sim.Tape.node_of_slot
  and base = tp.Sim.Tape.fanin_base
  and fan = tp.Sim.Tape.fanin in
  (* fault tests hoisted out of the sweep *)
  let fstem, fstem_v, fpin_gate, fpin_pin, fpin_v =
    match t.fault with
    | Some { Fsim.Fault.site = Fsim.Fault.Stem s; stuck } ->
      (s, Sim.Value3.of_bool stuck, -1, -1, Sim.Value3.X)
    | Some { Fsim.Fault.site = Fsim.Fault.Pin { gate; pin }; stuck } ->
      (-1, Sim.Value3.X, gate, pin, Sim.Value3.of_bool stuck)
    | None -> (-1, Sim.Value3.X, -1, -1, Sim.Value3.X)
  in
  let num_gates = tp.Sim.Tape.num_gates in
  let any_frontier = ref false in
  for s = 0 to num_gates - 1 do
    t.stats.Types.work <- t.stats.Types.work + 1;
    let id = Array.unsafe_get gid s in
    let b = Array.unsafe_get base s in
    let e = Array.unsafe_get base (s + 1) in
    (* good machine: fold the fanin slice directly *)
    let gv =
      match Array.unsafe_get op s with
      | 0 -> g.(fan.(b))
      | 1 -> Sim.Value3.v_not g.(fan.(b))
      | (2 | 3) as o ->
        let acc = ref g.(fan.(b)) in
        for p = b + 1 to e - 1 do
          acc := Sim.Value3.v_and !acc g.(fan.(p))
        done;
        if o = 2 then !acc else Sim.Value3.v_not !acc
      | (4 | 5) as o ->
        let acc = ref g.(fan.(b)) in
        for p = b + 1 to e - 1 do
          acc := Sim.Value3.v_or !acc g.(fan.(p))
        done;
        if o = 4 then !acc else Sim.Value3.v_not !acc
      | 6 -> Sim.Value3.v_xor g.(fan.(b)) g.(fan.(b + 1))
      | _ -> Sim.Value3.v_not (Sim.Value3.v_xor g.(fan.(b)) g.(fan.(b + 1)))
    in
    g.(id) <- gv;
    (* faulty machine: same fold, with the branch-fault pin override *)
    let fpin p =
      if id = fpin_gate && p - b = fpin_pin then fpin_v else f.(fan.(p))
    in
    let fv =
      match Array.unsafe_get op s with
      | 0 -> fpin b
      | 1 -> Sim.Value3.v_not (fpin b)
      | (2 | 3) as o ->
        let acc = ref (fpin b) in
        for p = b + 1 to e - 1 do
          acc := Sim.Value3.v_and !acc (fpin p)
        done;
        if o = 2 then !acc else Sim.Value3.v_not !acc
      | (4 | 5) as o ->
        let acc = ref (fpin b) in
        for p = b + 1 to e - 1 do
          acc := Sim.Value3.v_or !acc (fpin p)
        done;
        if o = 4 then !acc else Sim.Value3.v_not !acc
      | 6 -> Sim.Value3.v_xor (fpin b) (fpin (b + 1))
      | _ -> Sim.Value3.v_not (Sim.Value3.v_xor (fpin b) (fpin (b + 1)))
    in
    let fv = if id = fstem then fstem_v else fv in
    f.(id) <- fv;
    (* D-frontier bookkeeping: output X, some input D *)
    if gv = Sim.Value3.X || fv = Sim.Value3.X then begin
      let has_d = ref false in
      for p = b to e - 1 do
        if is_d g.(fan.(p)) (fpin p) then has_d := true
      done;
      if !has_d then begin
        t.dfront.(id) <- true;
        any_frontier := true
      end
    end
  done;
  (* re-list the frontier in topological-walk order (see above) *)
  if !any_frontier then
    Array.iter
      (fun s ->
        let id = gid.(s) in
        if t.dfront.(id) then begin
          t.dfront.(id) <- false;
          t.frontier.(frame) <- id :: t.frontier.(frame)
        end)
      tp.Sim.Tape.topo_slot

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
   input, listed as (frame, gate id), earliest frames first.  Collected
   incrementally during frame evaluation. *)
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
   potential escape was ever seen. *)
type x_path = { reaches_po : bool; escapes : bool }

let x_path t =
  let c = t.circuit in
  let n = Netlist.Node.num_nodes c in
  let visited = Array.make (t.k * n) false in
  let reaches_po = ref false in
  let escapes = ref false in
  let is_x frame id =
    t.good.(frame).(id) = Sim.Value3.X || t.faulty.(frame).(id) = Sim.Value3.X
  in
  let rec go frame id =
    let key = (frame * n) + id in
    if not visited.(key) then begin
      visited.(key) <- true;
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
