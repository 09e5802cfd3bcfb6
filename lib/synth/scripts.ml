(* Multi-level optimization scripts over Network.t — the stand-ins for SIS's
   script.rugged (area-oriented: simplify, common-cube extraction,
   elimination) and script.delay (depth-oriented: flat covers, balanced
   decomposition). *)

let log = Logs.Src.create "synth.scripts" ~doc:"multilevel scripts"
module Log = (val Logs.src_log log : Logs.LOG)

(* --- cover re-basing helpers --------------------------------------------- *)

(* Remap [cover] expressed over [old_fanins] into the variable space given by
   [new_fanins] (which must contain every old fanin). *)
let remap_cover cover ~old_fanins ~new_fanins =
  let k = Array.length new_fanins in
  let pos_of = Hashtbl.create 17 in
  Array.iteri (fun j s -> Hashtbl.replace pos_of s j) new_fanins;
  let remap c =
    let r = ref (Twolevel.Cube.full k) in
    Array.iteri
      (fun j s ->
        let l = Twolevel.Cube.get_lit c j in
        if l <> Twolevel.Cube.lit_dc then
          r := Twolevel.Cube.set_lit !r (Hashtbl.find pos_of s) l)
      old_fanins;
    !r
  in
  Twolevel.Cover.make k (List.map remap cover.Twolevel.Cover.cubes)
  |> fun f ->
  if Twolevel.Cover.has_full cover then Twolevel.Cover.full k else f

let array_union a b =
  let seen = Hashtbl.create 17 in
  let acc = ref [] in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        acc := s :: !acc
      end)
    a;
  Array.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        acc := s :: !acc
      end)
    b;
  Array.of_list (List.rev !acc)

let array_remove a x = Array.of_list (List.filter (fun s -> s <> x) (Array.to_list a))

(* --- simplify ------------------------------------------------------------- *)

let simplify_node n =
  let dc = Twolevel.Cover.empty n.Network.cover.Twolevel.Cover.n in
  n.Network.cover <- Twolevel.Minimize.espresso ~on:n.Network.cover ~dc ()

let simplify net = Network.iter_live net (fun _ n ->
    if Twolevel.Cover.size n.Network.cover <= 64 then simplify_node n)

(* --- substitution / elimination ------------------------------------------- *)

(* Substitute the logic of node [gi] into node [u]; returns false (and leaves
   [u] untouched) if the result would exceed [max_cubes]. *)
let substitute net gi u ~max_cubes =
  let sg = Network.signal_of_node net gi in
  let g = Network.get net gi in
  let present = Array.exists (fun s -> s = sg) u.Network.fanins in
  if not present then true
  else begin
    let base = array_remove u.Network.fanins sg in
    let merged = array_union base g.Network.fanins in
    let k = Array.length merged in
    if k > Twolevel.Cube.max_vars then false
    else begin
      let g_on =
        remap_cover g.Network.cover ~old_fanins:g.Network.fanins
          ~new_fanins:merged
      in
      let g_off = Twolevel.Cover.complement g_on in
      (* position of sg in u's fanins *)
      let sg_pos = ref (-1) in
      Array.iteri (fun j s -> if s = sg then sg_pos := j) u.Network.fanins;
      let cubes = ref [] in
      let overflow = ref false in
      List.iter
        (fun q ->
          let l = Twolevel.Cube.get_lit q !sg_pos in
          let q_clean = Twolevel.Cube.set_lit q !sg_pos Twolevel.Cube.lit_dc in
          let q' =
            remap_cover
              (Twolevel.Cover.make (Array.length u.Network.fanins) [ q_clean ])
              ~old_fanins:u.Network.fanins ~new_fanins:merged
          in
          let q'cube =
            match q'.Twolevel.Cover.cubes with
            | [ c ] -> c
            | [] -> Twolevel.Cube.full k (* q_clean was full *)
            | _ -> assert false
          in
          let expand_with cover =
            List.iter
              (fun d ->
                let c = Twolevel.Cube.intersect q'cube d in
                if not (Twolevel.Cube.is_empty k c) then cubes := c :: !cubes)
              cover.Twolevel.Cover.cubes
          in
          if l = Twolevel.Cube.lit_dc then cubes := q'cube :: !cubes
          else if l = Twolevel.Cube.lit_pos then expand_with g_on
          else expand_with g_off;
          if List.length !cubes > max_cubes then overflow := true)
        u.Network.cover.Twolevel.Cover.cubes;
      if !overflow then false
      else begin
        u.Network.fanins <- merged;
        u.Network.cover <-
          Twolevel.Cover.drop_contained (Twolevel.Cover.make k !cubes);
        true
      end
    end
  end

(* Eliminate nodes whose duplication cost is small: a node is collapsed into
   all its fanouts when (uses - 1) * (literals - 1) <= value. *)
let eliminate net ~value =
  let uses = Network.fanout_counts net in
  let changed = ref false in
  Network.iter_live net (fun gi g ->
      let sg = Network.signal_of_node net gi in
      let is_output = Array.exists (fun o -> o = sg) net.Network.outputs in
      let lits = Twolevel.Cover.literals g.Network.cover in
      let u = uses.(sg) in
      if (not is_output) && u > 0 && (u - 1) * (max 0 (lits - 1)) <= value then begin
        let ok = ref true in
        Network.iter_live net (fun ui u_node ->
            if ui <> gi && !ok then
              if not (substitute net gi u_node ~max_cubes:48) then ok := false);
        if !ok then changed := true
      end);
  Network.garbage_collect net;
  !changed

(* --- common-cube extraction ------------------------------------------------ *)

(* A divisor candidate is a conjunction of >= 2 literals, represented as a
   sorted list of (signal, polarity). *)
let compare_lit ((s, p) : int * bool) (t, q) =
  if s <> t then Int.compare s t else Bool.compare p q

let cube_literals fanins c =
  let acc = ref [] in
  Array.iteri
    (fun j s ->
      match Twolevel.Cube.get_lit c j with
      | 2 -> acc := (s, true) :: !acc
      | 1 -> acc := (s, false) :: !acc
      | _ -> ())
    fanins;
  List.sort compare_lit !acc

(* The literals two sorted literal lists share, in order. *)
let rec common_prefix a b =
  match a, b with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys ->
    let d = compare_lit x y in
    if d = 0 then x :: common_prefix xs ys
    else if d < 0 then common_prefix xs (y :: ys)
    else common_prefix (x :: xs) ys

(* Is every literal of [cand] in [lits]?  Both sorted and duplicate-free. *)
let rec divides cand lits =
  match cand, lits with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
    let d = compare_lit x y in
    if d = 0 then divides xs ys else d > 0 && divides cand ys

(* One extraction round: find the best common-cube divisor and introduce a
   node for it.  Returns true if something was extracted. *)
let extract_one net =
  (* literal lists of every live cube, indexed by node; computed once per
     round and shared by the candidate scan, the counts and the rewrite *)
  let node_lits = Array.make net.Network.count [] in
  Network.iter_live net (fun i n ->
      node_lits.(i) <-
        List.map (cube_literals n.Network.fanins)
          n.Network.cover.Twolevel.Cover.cubes);
  let all_lits = List.concat (Array.to_list node_lits) in
  let candidates = Hashtbl.create 257 in
  Network.iter_live net (fun i _ ->
      let arr = Array.of_list node_lits.(i) in
      let m = Array.length arr in
      if m <= 24 then
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            let cc = common_prefix arr.(i) arr.(j) in
            if List.length cc >= 2 then
              Hashtbl.replace candidates cc ()
          done
        done);
  (* count how many cubes each candidate divides, across the network *)
  let best = ref None in
  Hashtbl.iter
    (fun cand () ->
      let occ =
        List.fold_left
          (fun k lits -> if divides cand lits then k + 1 else k)
          0 all_lits
      in
      let gain = (occ - 1) * (List.length cand - 1) in
      match !best with
      | Some (_, g) when g >= gain -> ()
      | _ -> if gain > 0 then best := Some (cand, gain))
    candidates;
  match !best with
  | None -> false
  | Some (cand, _gain) ->
    (* build the divisor node: AND of its literals *)
    let fanins = Array.of_list (List.map fst cand) in
    let k = Array.length fanins in
    let cube = ref (Twolevel.Cube.full k) in
    List.iteri
      (fun j (_, pol) ->
        cube :=
          Twolevel.Cube.set_lit !cube j
            (if pol then Twolevel.Cube.lit_pos else Twolevel.Cube.lit_neg))
      cand;
    let sdiv =
      Network.add_node net fanins (Twolevel.Cover.make k [ !cube ])
    in
    (* rewrite every dividing cube *)
    Network.iter_live net (fun di n ->
        if Network.signal_of_node net di <> sdiv then begin
          let cube_lits = node_lits.(di) in
          if List.exists (divides cand) cube_lits then begin
            let merged = array_union n.Network.fanins [| sdiv |] in
            let knew = Array.length merged in
            if knew <= Twolevel.Cube.max_vars then begin
              let pos_of = Hashtbl.create 17 in
              Array.iteri (fun j s -> Hashtbl.replace pos_of s j) merged;
              let div_pos = Hashtbl.find pos_of sdiv in
              let rewrite lits =
                let remapped = ref (Twolevel.Cube.full knew) in
                let put (s, pol) =
                  remapped :=
                    Twolevel.Cube.set_lit !remapped (Hashtbl.find pos_of s)
                      (if pol then Twolevel.Cube.lit_pos
                       else Twolevel.Cube.lit_neg)
                in
                if divides cand lits then begin
                  List.iter
                    (fun l -> if not (List.mem l cand) then put l)
                    lits;
                  remapped :=
                    Twolevel.Cube.set_lit !remapped div_pos Twolevel.Cube.lit_pos;
                  !remapped
                end
                else begin
                  List.iter put lits;
                  !remapped
                end
              in
              n.Network.fanins <- merged;
              n.Network.cover <-
                Twolevel.Cover.make knew
                  (List.map rewrite cube_lits)
            end
          end
        end);
    true

let extract net ~rounds =
  let rec loop i = if i < rounds && extract_one net then loop (i + 1) in
  loop 0

(* --- decomposition --------------------------------------------------------- *)

(* Shrink a node's fanin array to its cover's support. *)
let compress_node n =
  let fanins = n.Network.fanins in
  let k = Array.length fanins in
  let used = Array.make k false in
  List.iter
    (fun c ->
      for j = 0 to k - 1 do
        let l = Twolevel.Cube.get_lit c j in
        if l = Twolevel.Cube.lit_pos || l = Twolevel.Cube.lit_neg then
          used.(j) <- true
      done)
    n.Network.cover.Twolevel.Cover.cubes;
  if Array.exists not used then begin
    let keep = ref [] in
    for j = k - 1 downto 0 do
      if used.(j) then keep := j :: !keep
    done;
    let keep = Array.of_list !keep in
    let kk = Array.length keep in
    let remap c =
      let r = ref (Twolevel.Cube.full kk) in
      Array.iteri
        (fun j0 j ->
          r := Twolevel.Cube.set_lit !r j0 (Twolevel.Cube.get_lit c j))
        keep;
      !r
    in
    let was_const1 = Twolevel.Cover.has_full n.Network.cover in
    n.Network.fanins <- Array.map (fun j -> fanins.(j)) keep;
    n.Network.cover <-
      (if was_const1 then Twolevel.Cover.full kk
       else
         Twolevel.Cover.make kk
           (List.map remap n.Network.cover.Twolevel.Cover.cubes))
  end

(* Bound both the number of cubes per node (OR width) and the number of
   literals per cube (AND width) by [max_arity], introducing balanced trees
   of intermediate nodes.  Wide-literal cubes are only peeled on single-cube
   nodes (multi-cube nodes are OR-split first), which keeps every node's
   support strictly below the cube-width limit. *)
let rec decompose_node net i ~max_arity =
  let n = Network.get net i in
  compress_node n;
  let fanins = n.Network.fanins in
  let cubes = n.Network.cover.Twolevel.Cover.cubes in
  let num_cubes = List.length cubes in
  let has_wide =
    List.exists
      (fun c -> List.length (cube_literals fanins c) > max_arity)
      cubes
  in
  if num_cubes > max_arity || (num_cubes > 1 && has_wide) then begin
    (* OR split: group the cubes into child nodes, parent becomes an OR *)
    let per =
      if has_wide then 1
      else begin
        let groups = (num_cubes + max_arity - 1) / max_arity in
        (num_cubes + groups - 1) / groups
      end
    in
    let arr = Array.of_list cubes in
    let m = Array.length arr in
    let children = ref [] in
    let idx = ref 0 in
    while !idx < m do
      let stop = min m (!idx + per) in
      let sub = Array.to_list (Array.sub arr !idx (stop - !idx)) in
      let s =
        Network.add_node net (Array.copy fanins)
          (Twolevel.Cover.make (Array.length fanins) sub)
      in
      children := s :: !children;
      idx := stop
    done;
    let children = Array.of_list (List.rev !children) in
    (* collapse the child list into a balanced OR tree of width <= max_arity;
       node [i] itself becomes the top OR *)
    let or_cover kc =
      Twolevel.Cover.make kc
        (List.init kc (fun j ->
             Twolevel.Cube.set_lit (Twolevel.Cube.full kc) j
               Twolevel.Cube.lit_pos))
    in
    let rec reduce sigs =
      let kc = Array.length sigs in
      if kc <= max_arity then sigs
      else begin
        let grouped = ref [] in
        let idx = ref 0 in
        while !idx < kc do
          let stop = min kc (!idx + max_arity) in
          let group = Array.sub sigs !idx (stop - !idx) in
          let g = Array.length group in
          if g = 1 then grouped := group.(0) :: !grouped
          else grouped := Network.add_node net group (or_cover g) :: !grouped;
          idx := stop
        done;
        reduce (Array.of_list (List.rev !grouped))
      end
    in
    let top = reduce children in
    n.Network.fanins <- top;
    n.Network.cover <- or_cover (Array.length top);
    Array.iter
      (fun s ->
        match Network.node_of_signal net s with
        | Some ci -> decompose_node net ci ~max_arity
        | None -> ())
      children
  end
  else if has_wide then begin
    (* single wide cube: peel the first max_arity literals into an AND node;
       the parent keeps (L - max_arity) literals plus the new signal, so its
       support strictly shrinks *)
    match cubes with
    | [ c ] ->
      let lits = cube_literals fanins c in
      let rec take k l =
        if k = 0 then ([], l)
        else
          match l with
          | [] -> ([], [])
          | x :: xs ->
            let a, b = take (k - 1) xs in
            (x :: a, b)
      in
      let head, tail = take max_arity lits in
      let fan = Array.of_list (List.map fst head) in
      let hk = Array.length fan in
      let hc = ref (Twolevel.Cube.full hk) in
      List.iteri
        (fun j (_, pol) ->
          hc :=
            Twolevel.Cube.set_lit !hc j
              (if pol then Twolevel.Cube.lit_pos else Twolevel.Cube.lit_neg))
        head;
      let s = Network.add_node net fan (Twolevel.Cover.make hk [ !hc ]) in
      let merged = Array.of_list (List.map fst tail @ [ s ]) in
      let km = Array.length merged in
      let r = ref (Twolevel.Cube.full km) in
      List.iteri
        (fun j (_, pol) ->
          r :=
            Twolevel.Cube.set_lit !r j
              (if pol then Twolevel.Cube.lit_pos else Twolevel.Cube.lit_neg))
        tail;
      r := Twolevel.Cube.set_lit !r (km - 1) Twolevel.Cube.lit_pos;
      n.Network.fanins <- merged;
      n.Network.cover <- Twolevel.Cover.make km [ !r ];
      decompose_node net i ~max_arity
    | [] | _ :: _ :: _ -> assert false
  end

let decompose net ~max_arity =
  (* note: new nodes appended during the loop are decomposed on creation *)
  let upto = net.Network.count in
  for i = 0 to upto - 1 do
    if (Network.get net i).Network.alive then decompose_node net i ~max_arity
  done

(* --- the two scripts -------------------------------------------------------- *)

let script_rugged net =
  simplify net;
  ignore (eliminate net ~value:2);
  extract net ~rounds:200;
  simplify net;
  Network.garbage_collect net;
  decompose net ~max_arity:4;
  Network.garbage_collect net;
  Log.debug (fun m ->
      m "rugged: %d nodes, %d literals" (Network.num_live net)
        (Network.total_literals net))

let script_delay net =
  simplify net;
  ignore (eliminate net ~value:1);
  (* no extraction: shallower network, larger area *)
  decompose net ~max_arity:4;
  Network.garbage_collect net;
  Log.debug (fun m ->
      m "delay: %d nodes, %d literals" (Network.num_live net)
        (Network.total_literals net))
