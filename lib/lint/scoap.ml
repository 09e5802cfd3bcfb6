(* SCOAP testability metrics (Goldstein 1979) over the gate-level netlist.

   Combinational controllability CC0/CC1 counts the minimum number of
   signal assignments needed to force a node to 0/1; sequential
   controllability SC0/SC1 counts the register crossings (time frames) of
   the cheapest such plan.  Observability CO/SO is the dual: assignments /
   time frames needed to propagate a change at the node to some primary
   output.  Unattainable goals saturate at {!unreachable}.

   The recurrences are evaluated to a fixpoint: controllability sweeps
   forward (gates in topological order, then the register transfer),
   observability sweeps backward.  All updates are monotone decreasing
   from the saturation value, and one sweep propagates information across
   one register boundary, so the iteration settles within about the
   sequential depth of the circuit; a generous sweep cap guards degenerate
   cases.

   DFF handling: the netlist's registers are edge-triggered with a known
   power-up value, so controlling a register to its init value is free of
   input assignments (cost 1, depth 0); otherwise CCv(Q) = CCv(D) + 1 and
   SCv(Q) = SCv(D) + 1.  Observing a register's data input costs one more
   frame: CO(D) = CO(Q) + 1, SO(D) = SO(Q) + 1. *)

(* Saturation value for unattainable goals; far below max_int so sums
   cannot overflow, far above any reachable score. *)
let unreachable = 100_000_000

let ( ++ ) a b =
  let s = a + b in
  if s >= unreachable then unreachable else s

type t = {
  cc0 : int array;
  cc1 : int array;
  sc0 : int array;
  sc1 : int array;
  co : int array;
  so : int array;
}

(* (combinational, sequential) cost pair arithmetic *)
let sum_pairs pairs =
  Array.fold_left (fun (c, s) (c', s') -> (c ++ c', s ++ s')) (0, 0) pairs

let min_pair (c, s) (c', s') = if c < c' || (c = c' && s <= s') then (c, s) else (c', s')

let min_pairs pairs =
  Array.fold_left min_pair (unreachable, unreachable) pairs

let gate_controllability fn ~zero ~one =
  (* [zero].(i) = (cc0, sc0) of input i, [one].(i) = (cc1, sc1). *)
  let plus1 (c, s) = (c ++ 1, s) in
  match fn with
  | Netlist.Node.Buf -> (plus1 zero.(0), plus1 one.(0))
  | Netlist.Node.Not -> (plus1 one.(0), plus1 zero.(0))
  | Netlist.Node.And -> (plus1 (min_pairs zero), plus1 (sum_pairs one))
  | Netlist.Node.Nand -> (plus1 (sum_pairs one), plus1 (min_pairs zero))
  | Netlist.Node.Or -> (plus1 (sum_pairs zero), plus1 (min_pairs one))
  | Netlist.Node.Nor -> (plus1 (min_pairs one), plus1 (sum_pairs zero))
  | Netlist.Node.Xor ->
    let equal_ = min_pair (sum_pairs zero) (sum_pairs one) in
    let differ =
      min_pair
        (sum_pairs [| zero.(0); one.(1) |])
        (sum_pairs [| one.(0); zero.(1) |])
    in
    (plus1 equal_, plus1 differ)
  | Netlist.Node.Xnor ->
    let equal_ = min_pair (sum_pairs zero) (sum_pairs one) in
    let differ =
      min_pair
        (sum_pairs [| zero.(0); one.(1) |])
        (sum_pairs [| one.(0); zero.(1) |])
    in
    (plus1 differ, plus1 equal_)

let compute c =
  let n = Netlist.Node.num_nodes c in
  let cc0 = Array.make n unreachable
  and cc1 = Array.make n unreachable
  and sc0 = Array.make n unreachable
  and sc1 = Array.make n unreachable in
  Array.iter
    (fun id ->
      cc0.(id) <- 1;
      cc1.(id) <- 1;
      sc0.(id) <- 0;
      sc1.(id) <- 0)
    c.Netlist.Node.pis;
  let changed = ref true in
  let set a id v =
    if v < a.(id) then begin
      a.(id) <- v;
      changed := true
    end
  in
  (* sweeps ~ sequential depth; cap generously *)
  let max_sweeps = (2 * Netlist.Node.num_dffs c) + 16 in
  let sweeps = ref 0 in
  while !changed && !sweeps < max_sweeps do
    changed := false;
    incr sweeps;
    Array.iter
      (fun id ->
        let nd = Netlist.Node.node c id in
        match nd.Netlist.Node.kind with
        | Netlist.Node.Gate fn ->
          let zero =
            Array.map (fun f -> (cc0.(f), sc0.(f))) nd.Netlist.Node.fanins
          and one =
            Array.map (fun f -> (cc1.(f), sc1.(f))) nd.Netlist.Node.fanins
          in
          let (c0, s0), (c1, s1) = gate_controllability fn ~zero ~one in
          set cc0 id c0;
          set sc0 id s0;
          set cc1 id c1;
          set sc1 id s1
        | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
      c.Netlist.Node.order;
    (* register transfer: Q from D (one more frame), or power-up for free *)
    Array.iter
      (fun id ->
        let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
        let init = Netlist.Node.dff_init c id in
        set cc0 id (cc0.(data) ++ 1);
        set sc0 id (sc0.(data) ++ 1);
        set cc1 id (cc1.(data) ++ 1);
        set sc1 id (sc1.(data) ++ 1);
        if init then begin
          set cc1 id 1;
          set sc1 id 0
        end
        else begin
          set cc0 id 1;
          set sc0 id 0
        end)
      c.Netlist.Node.dffs;
  done;
  (* --- observability, backward ------------------------------------------- *)
  let co = Array.make n unreachable and so = Array.make n unreachable in
  Array.iter
    (fun (_, id) ->
      co.(id) <- 0;
      so.(id) <- 0)
    c.Netlist.Node.pos;
  let set_o a id v =
    if v < a.(id) then begin
      a.(id) <- v;
      changed := true
    end
  in
  let side_cost fn (nd : Netlist.Node.node) pin =
    (* cost of holding the sibling inputs at non-controlling values *)
    let fanins = nd.Netlist.Node.fanins in
    let acc = ref (0, 0) in
    Array.iteri
      (fun j f ->
        if j <> pin then
          let cost =
            match fn with
            | Netlist.Node.And | Netlist.Node.Nand -> (cc1.(f), sc1.(f))
            | Netlist.Node.Or | Netlist.Node.Nor -> (cc0.(f), sc0.(f))
            | Netlist.Node.Not | Netlist.Node.Buf -> (0, 0)
            | Netlist.Node.Xor | Netlist.Node.Xnor ->
              min_pair (cc0.(f), sc0.(f)) (cc1.(f), sc1.(f))
          in
          let c, s = !acc and c', s' = cost in
          acc := (c ++ c', s ++ s'))
      fanins;
    !acc
  in
  changed := true;
  sweeps := 0;
  while !changed && !sweeps < max_sweeps do
    changed := false;
    incr sweeps;
    (* gates, sinks first *)
    for i = Array.length c.Netlist.Node.order - 1 downto 0 do
      let id = c.Netlist.Node.order.(i) in
      let nd = Netlist.Node.node c id in
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn ->
        Array.iteri
          (fun pin f ->
            let sc, ss = side_cost fn nd pin in
            set_o co f (co.(id) ++ sc ++ 1);
            set_o so f (so.(id) ++ ss))
          nd.Netlist.Node.fanins
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ()
    done;
    (* registers: observing D means observing Q one frame later *)
    Array.iter
      (fun id ->
        let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
        set_o co data (co.(id) ++ 1);
        set_o so data (so.(id) ++ 1))
      c.Netlist.Node.dffs
  done;
  { cc0; cc1; sc0; sc1; co; so }

(* Detection cost of the harder stuck-at fault on the node's output:
   sa0 needs (set 1, observe), sa1 needs (set 0, observe). *)
let testability t id =
  max (t.cc1.(id) ++ t.co.(id)) (t.cc0.(id) ++ t.co.(id))

let controllability t = (t.cc0, t.cc1)
