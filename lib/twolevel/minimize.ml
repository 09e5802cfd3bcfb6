(* Espresso-lite: EXPAND / IRREDUNDANT / REDUCE iteration on single-output
   covers.  Guarantees: the result covers the ON-set and stays inside
   ON ∪ DC (verified by property tests against truth tables). *)

type cost = { cubes : int; lits : int }

let cost f = { cubes = Cover.size f; lits = Cover.literals f }

let better a b = a.cubes < b.cubes || (a.cubes = b.cubes && a.lits < b.lits)

(* EXPAND each cube against the care cover ON ∪ DC: raise literals to don't
   care as long as the cube stays inside it, that is, disjoint from the
   OFF-set (cand ∩ OFF = ∅ ⇔ cand ⊆ ON ∪ DC, so no OFF-set is built);
   afterwards drop cubes contained in the expanded one.  Cubes are processed
   largest-first so big primes swallow small cubes early. *)
let expand f ~care =
  let n = f.Cover.n in
  let ordered =
    List.sort
      (fun a b -> compare (Cube.num_literals n a) (Cube.num_literals n b))
      f.Cover.cubes
  in
  let expand_cube c =
    let cur = ref c in
    for i = 0 to n - 1 do
      let l = Cube.get_lit !cur i in
      if l = Cube.lit_pos || l = Cube.lit_neg then begin
        let cand = Cube.set_lit !cur i Cube.lit_dc in
        if Cover.covers_cube care cand then cur := cand
      end
    done;
    !cur
  in
  let rec loop acc = function
    | [] -> List.rev acc
    | c :: rest ->
      if List.exists (fun d -> Cube.contains d c) acc then loop acc rest
      else begin
        let e = expand_cube c in
        let rest = List.filter (fun d -> not (Cube.contains e d)) rest in
        let acc = List.filter (fun d -> not (Cube.contains e d)) acc in
        loop (e :: acc) rest
      end
  in
  { f with Cover.cubes = loop [] ordered }

(* IRREDUNDANT: greedily delete cubes covered by the rest of the cover plus
   the don't-care set. *)
let irredundant f ~dc =
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: rest ->
      let others = { f with Cover.cubes = List.rev_append kept rest } in
      let ctx = Cover.union others dc in
      if Cover.covers_cube ctx c then loop kept rest
      else loop (c :: kept) rest
  in
  { f with Cover.cubes = loop [] f.Cover.cubes }

(* Smallest cube containing the complement of [f], or [None] when [f] is a
   tautology.  The Shannon recursion of [Cover.complement] on its most
   binate variable, without building the complement: the supercube of the
   leaves found so far is carried down, and a subtree whose path cube it
   already contains cannot enlarge it.

   The recursion stops at unate covers, single cubes included.  A unate
   cover [u] with no full cube misses the point [x*] that sets every
   variable against its polarity in [u], and misses [x*] with [v] flipped
   unless [u] holds the one-literal cube [v].  So the smallest cube
   containing the complement is the conjunction of the flipped one-literal
   cubes of [u]: for a single cube, its flipped literal, or the full cube
   when it has >= 2 literals.  The smallest cube containing a set of
   minterms is unique, so the result is the supercube of any cover of the
   complement, [Cover.complement]'s included. *)
let sccc f =
  let n = f.Cover.n in
  let found = ref false and acc = ref 0 in
  let add c =
    acc := if !found then Cube.supercube !acc c else c;
    found := true
  in
  let unate_leaf path u =
    List.fold_left
      (fun r c ->
        let m = Cube.literal_mask n c in
        if m land (m - 1) = 0 then Cube.intersect r (c lxor (m lor (m lsl 1)))
        else r)
      path u.Cover.cubes
  in
  let rec go f path =
    if !found && Cube.contains !acc path then ()
    else if Cover.is_empty f then add path
    else if Cover.has_full f then ()
    else
      match Cover.binate_var f with
      | None -> add (unate_leaf path f)
      | Some v ->
        let p = Cover.pos_cube n v and q = Cover.neg_cube n v in
        go (Cover.cofactor f p) (Cube.intersect path p);
        go (Cover.cofactor f q) (Cube.intersect path q)
  in
  go f (Cube.full n);
  if !found then Some !acc else None

(* REDUCE: shrink each cube to the smallest cube still covering the part of
   the ON-set it alone covers:  c' = c ∩ sccc(cofactor((F \ c) ∪ D, c)). *)
let reduce f ~dc =
  let rec loop done_ = function
    | [] -> List.rev done_
    | c :: rest ->
      let others = { f with Cover.cubes = List.rev_append done_ rest } in
      match sccc (Cover.cofactor (Cover.union others dc) c) with
      | None -> (* c is fully covered by the others; drop it *) loop done_ rest
      | Some sc -> loop (Cube.intersect c sc :: done_) rest
  in
  { f with Cover.cubes = loop [] f.Cover.cubes }

(* Main loop.  [on] and [dc] are the ON- and DC-set covers. *)
let espresso ?(max_iters = 12) ~on ~dc () =
  let care = Cover.union on dc in
  let f = expand (Cover.drop_contained on) ~care in
  let f = irredundant f ~dc in
  let rec loop f best iters =
    if iters >= max_iters then best
    else begin
      let f = reduce f ~dc in
      let f = expand f ~care in
      let f = irredundant f ~dc in
      if better (cost f) (cost best) then loop f f (iters + 1) else best
    end
  in
  loop f f 0

(* Truth-table check used by tests: result equals ON on the care set. *)
let equivalent_on_care ~on ~dc result =
  let n = on.Cover.n in
  if n > 16 then invalid_arg "Minimize.equivalent_on_care: too wide";
  let ok = ref true in
  for point = 0 to (1 lsl n) - 1 do
    let dc_here = Cover.eval dc point in
    if not dc_here then begin
      let want = Cover.eval on point in
      let got = Cover.eval result point in
      if want <> got then ok := false
    end
  done;
  !ok
