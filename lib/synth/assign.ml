(* State assignment in the spirit of jedi: build an affinity graph over
   states, then embed the states into a minimum-width hypercube so that
   strongly related states receive codes at small Hamming distance.  Three
   affinity models mirror jedi's algorithms:
   - [Input_dominant]: states that are successors of a common state (fan-in
     related) attract each other;
   - [Output_dominant]: states with common successors or similar output
     behaviour (fan-out related) attract each other;
   - [Combined]: the sum of both. *)

type algorithm = Input_dominant | Output_dominant | Combined

let algorithms =
  [ ("ji", Input_dominant); ("jo", Output_dominant); ("jc", Combined) ]

let algorithm_tag a = fst (List.find (fun (_, b) -> b = a) algorithms)

let bits_needed n =
  let rec loop b = if 1 lsl b >= n then b else loop (b + 1) in
  max 1 (loop 0)

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x lsr 1) (acc + (x land 1)) in
  loop x 0

(* Affinity matrix. *)
let weights algorithm m =
  let n = Fsm.Machine.num_states m in
  let w = Array.make_matrix n n 0 in
  let bump a b k =
    if a <> b then begin
      w.(a).(b) <- w.(a).(b) + k;
      w.(b).(a) <- w.(b).(a) + k
    end
  in
  let ts = m.Fsm.Machine.transitions in
  let nt = Array.length ts in
  for i = 0 to nt - 1 do
    for j = i + 1 to nt - 1 do
      let a = ts.(i) and b = ts.(j) in
      (match algorithm with
       | Input_dominant | Combined ->
         (* common predecessor: both are successors of the same state *)
         if a.Fsm.Machine.src = b.Fsm.Machine.src then
           bump a.Fsm.Machine.dst b.Fsm.Machine.dst 1
       | Output_dominant -> ());
      (match algorithm with
       | Output_dominant | Combined ->
         (* common successor *)
         if a.Fsm.Machine.dst = b.Fsm.Machine.dst then
           bump a.Fsm.Machine.src b.Fsm.Machine.src 1;
         (* similar asserted outputs *)
         if a.Fsm.Machine.src <> b.Fsm.Machine.src then begin
           let common = a.Fsm.Machine.out_care land b.Fsm.Machine.out_care in
           let agree =
             common
             land lnot (a.Fsm.Machine.out_value lxor b.Fsm.Machine.out_value)
           in
           if popcount agree >= 2 then
             bump a.Fsm.Machine.src b.Fsm.Machine.src 1
         end
       | Input_dominant -> ())
    done
  done;
  w

(* Embedding cost: sum over state pairs of w * hamming distance. *)
let cost w codes =
  let n = Array.length codes in
  let total = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if w.(a).(b) > 0 then
        total := !total + (w.(a).(b) * popcount (codes.(a) lxor codes.(b)))
    done
  done;
  !total

(* Greedy seeding followed by pairwise-swap local search (deterministic,
   seeded).  The reset state always receives code 0, which also serves as the
   circuits' power-up state. *)
let assign ?(seed = 7) algorithm m =
  let n = Fsm.Machine.num_states m in
  let b = bits_needed n in
  let w = weights algorithm m in
  let rng = Random.State.make [| seed; n; Hashtbl.hash (algorithm_tag algorithm) |] in
  (* order states by total affinity, reset first *)
  let total = Array.init n (fun s -> Array.fold_left ( + ) 0 w.(s)) in
  let order =
    List.init n (fun s -> s)
    |> List.filter (fun s -> s <> m.Fsm.Machine.reset)
    |> List.sort (fun a b -> compare total.(b) total.(a))
  in
  let codes = Array.make n (-1) in
  let used = Hashtbl.create 31 in
  let place s code =
    codes.(s) <- code;
    Hashtbl.add used code ()
  in
  place m.Fsm.Machine.reset 0;
  (* greedy: each state takes the free code minimizing weighted distance to
     already-placed neighbours *)
  List.iter
    (fun s ->
      let best = ref (-1) and best_cost = ref max_int in
      for code = 0 to (1 lsl b) - 1 do
        if not (Hashtbl.mem used code) then begin
          let c = ref 0 in
          for t = 0 to n - 1 do
            if codes.(t) >= 0 && w.(s).(t) > 0 then
              c := !c + (w.(s).(t) * popcount (code lxor codes.(t)))
          done;
          if !c < !best_cost then begin
            best_cost := !c;
            best := code
          end
        end
      done;
      place s !best)
    order;
  (* Local search: swap pairs of states' codes (keeping reset at 0), using
     O(n) incremental cost deltas. *)
  let swap_delta a bst =
    let ca = codes.(a) and cb = codes.(bst) in
    let d = ref 0 in
    for t = 0 to n - 1 do
      if t <> a && t <> bst then begin
        let ct = codes.(t) in
        if w.(a).(t) > 0 then
          d := !d + (w.(a).(t) * (popcount (cb lxor ct) - popcount (ca lxor ct)));
        if w.(bst).(t) > 0 then
          d := !d + (w.(bst).(t) * (popcount (ca lxor ct) - popcount (cb lxor ct)))
      end
    done;
    !d
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 12 do
    improved := false;
    incr rounds;
    let perm = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    Array.iter
      (fun a ->
        if a <> m.Fsm.Machine.reset then
          for bst = 0 to n - 1 do
            if bst <> a && bst <> m.Fsm.Machine.reset && swap_delta a bst < 0
            then begin
              let t = codes.(a) in
              codes.(a) <- codes.(bst);
              codes.(bst) <- t;
              improved := true
            end
          done)
      perm
  done;
  ignore (cost w codes);
  (codes, b)
