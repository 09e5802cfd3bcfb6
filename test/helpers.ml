(* Shared fixtures for the test suites. *)

let v3 = Alcotest.testable Sim.Value3.pp Sim.Value3.equal

(* A small hand-built mealy circuit: 2 PIs, 1 PO, 2 DFFs.
   q0' = a AND q1 ; q1' = NOT q0 OR b ; out = q0 XOR q1 *)
let toy_circuit () =
  let b = Netlist.Build.create () in
  let a = Netlist.Build.add_pi b "a" in
  let bi = Netlist.Build.add_pi b "b" in
  let q0 = Netlist.Build.add_dff b "q0" in
  let q1 = Netlist.Build.add_dff b "q1" in
  let n0 = Netlist.Build.add_gate b Netlist.Node.And "n0" [| a; q1 |] in
  let n1 = Netlist.Build.add_gate b Netlist.Node.Not "n1" [| q0 |] in
  let n2 = Netlist.Build.add_gate b Netlist.Node.Or "n2" [| n1; bi |] in
  let n3 = Netlist.Build.add_gate b Netlist.Node.Xor "n3" [| q0; q1 |] in
  Netlist.Build.connect_dff b q0 n0;
  Netlist.Build.connect_dff b q1 n2;
  Netlist.Build.add_po b "out" n3;
  Netlist.Build.finalize b

(* The paper's Figure-2 example: two parallel combinational paths between
   two registers, before and after retiming through the fanout stem. *)
let figure2_original () =
  let b = Netlist.Build.create () in
  let pi = Netlist.Build.add_pi b "x" in
  let q1 = Netlist.Build.add_dff b "Q1" in
  let q2 = Netlist.Build.add_dff b "Q2" in
  let gnot = Netlist.Build.add_gate b Netlist.Node.Not "Gnot" [| q2 |] in
  let g1 = Netlist.Build.add_gate b Netlist.Node.And "G1" [| q2; pi |] in
  let g2 = Netlist.Build.add_gate b Netlist.Node.And "G2" [| gnot; pi |] in
  let g3 = Netlist.Build.add_gate b Netlist.Node.Or "G3" [| g1; g2 |] in
  let gbuf = Netlist.Build.add_gate b Netlist.Node.Buf "Gbuf" [| g3 |] in
  Netlist.Build.connect_dff b q1 gbuf;
  Netlist.Build.connect_dff b q2 q1;
  Netlist.Build.add_po b "z" q2;
  Netlist.Build.finalize b

let small_fsm ?(seed = 11) ?(states = 6) () =
  Fsm.Generate.generate
    {
      Fsm.Generate.default_spec with
      Fsm.Generate.name = "toyfsm";
      num_inputs = 3;
      num_outputs = 2;
      num_states = states;
      cubes_per_state = 3;
      seed;
    }

let synthesize_small ?(alg = Synth.Assign.Input_dominant)
    ?(script = Synth.Flow.Rugged) ?(reset_line = false) ?seed ?states () =
  Synth.Flow.synthesize ~reset_line ~algorithm:alg ~script
    (small_fsm ?seed ?states ())

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Full state vector for a circuit whose first [bits] DFFs are the encoded
   state registers; any remaining DFFs (constant generators) take their
   declared init values. *)
let state_vector c ~bits code =
  Array.mapi
    (fun j id ->
      if j < bits then Sim.Value3.of_bool ((code lsr j) land 1 = 1)
      else Sim.Value3.of_bool (Netlist.Node.dff_init c id))
    c.Netlist.Node.dffs

(* A small random sequential circuit: a few PIs/DFFs/gates with random
   connectivity, always Check-clean.  The fuzz generator of the tape,
   untestability and frames differential suites. *)
let random_circuit rng =
  let b = Netlist.Build.create () in
  let npis = 1 + Random.State.int rng 3 in
  let ndffs = 1 + Random.State.int rng 4 in
  let ngates = 4 + Random.State.int rng 9 in
  let pool = ref [] in
  for i = 0 to npis - 1 do
    pool := Netlist.Build.add_pi b (Printf.sprintf "i%d" i) :: !pool
  done;
  let dffs =
    Array.init ndffs (fun i ->
        let init = Random.State.bool rng in
        let q = Netlist.Build.add_dff b ~init (Printf.sprintf "q%d" i) in
        pool := q :: !pool;
        q)
  in
  let pick () =
    let l = !pool in
    List.nth l (Random.State.int rng (List.length l))
  in
  let fns =
    [| Netlist.Node.And; Netlist.Node.Or; Netlist.Node.Nand;
       Netlist.Node.Nor; Netlist.Node.Not; Netlist.Node.Xor;
       Netlist.Node.Xnor; Netlist.Node.Buf |]
  in
  let last = ref None in
  for i = 0 to ngates - 1 do
    let fn = fns.(Random.State.int rng (Array.length fns)) in
    let arity =
      match fn with
      | Netlist.Node.Not | Netlist.Node.Buf -> 1
      | Netlist.Node.Xor | Netlist.Node.Xnor -> 2
      | _ -> 2 + Random.State.int rng 2
    in
    let ins = Array.init arity (fun _ -> pick ()) in
    let g = Netlist.Build.add_gate b fn (Printf.sprintf "g%d" i) ins in
    pool := g :: !pool;
    last := Some g
  done;
  Array.iter (fun q -> Netlist.Build.connect_dff b q (pick ())) dffs;
  (match !last with
  | Some g -> Netlist.Build.add_po b "z0" g
  | None -> ());
  Netlist.Build.add_po b "z1" (pick ());
  Netlist.Build.finalize b
