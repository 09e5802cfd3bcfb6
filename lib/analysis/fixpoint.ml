(* Generic register-widening dataflow over a cycle-free netlist.

   One engine for every "abstract value per line, joined across cycles"
   analysis: the caller supplies a join-semilattice ([equal]/[join]) with
   a [default] bottom-of-sweep element, initial abstractions for primary
   inputs and register power-up ([pi]/[dff_seed]), and a monotone gate
   transfer function.  Each sweep evaluates every node through [order],
   then joins every register's next-state value into its running
   abstraction; the loop stops at the least fixpoint of that widening.

   Convergence: each register's abstraction can climb at most
   [max_climbs] strict steps (the lattice height above the seed — 1 for
   ternary constants, where the only climb is bool -> X, and 1 for a
   boolean reached/not-reached cone), so at most
   [num_dffs * max_climbs + 2] sweeps run: one to discover each climb,
   one to prove stability.  A final sweep re-evaluates the combinational
   logic from the fixed register abstractions.

   [force] overrides a node's value right after it is assigned in every
   sweep — the hook by which Untest injects a fault effect at a PI, DFF
   or gate output stem without the lattice knowing about faults.

   The sweep structure (and therefore the exact iteration count and
   result) is identical to the original in-place ternary constants loop;
   [constants] below is that analysis, re-expressed as an instance. *)

let run ?(max_climbs = 1) ?force ~equal ~join ~default ~pi ~dff_seed ~gate c =
  let n = Netlist.Node.num_nodes c in
  let value = Array.make n default in
  let state = Array.map dff_seed c.Netlist.Node.dffs in
  let assign id v =
    value.(id) <-
      (match force with
      | None -> v
      | Some f -> (match f id with Some w -> w | None -> v))
  in
  let eval () =
    Array.iter (fun id -> assign id (pi id)) c.Netlist.Node.pis;
    Array.iteri (fun j id -> assign id state.(j)) c.Netlist.Node.dffs;
    Array.iter
      (fun id ->
        let nd = Netlist.Node.node c id in
        match nd.Netlist.Node.kind with
        | Netlist.Node.Gate _ ->
          let ins = Array.map (fun f -> value.(f)) nd.Netlist.Node.fanins in
          assign id (gate nd ins)
        | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
      c.Netlist.Node.order
  in
  let changed = ref true in
  let max_sweeps = (Netlist.Node.num_dffs c * max_climbs) + 2 in
  let sweeps = ref 0 in
  while !changed && !sweeps < max_sweeps do
    changed := false;
    incr sweeps;
    eval ();
    Array.iteri
      (fun j id ->
        let data = (Netlist.Node.node c id).Netlist.Node.fanins.(0) in
        let next = join state.(j) value.(data) in
        if not (equal next state.(j)) then begin
          state.(j) <- next;
          changed := true
        end)
      c.Netlist.Node.dffs
  done;
  eval ();
  value

(* ----------------------------------------- ternary constants instance - *)

let join3 a b = if Sim.Value3.equal a b then a else Sim.Value3.X

let constants c =
  run ~equal:Sim.Value3.equal ~join:join3 ~default:Sim.Value3.X
    ~pi:(fun _ -> Sim.Value3.X)
    ~dff_seed:(fun id -> Sim.Value3.of_bool (Netlist.Node.dff_init c id))
    ~gate:(fun nd ins ->
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn -> Sim.Value3.eval_gate fn ins
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> Sim.Value3.X)
    c
