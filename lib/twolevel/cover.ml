(* A cover is a set of cubes over n variables, interpreted as their union
   (sum of products).  Tautology and complement use the classic unate
   recursive paradigm. *)

type t = { n : int; cubes : Cube.t list }

let make n cubes = { n; cubes = List.filter (fun c -> not (Cube.is_empty n c)) cubes }

let empty n = { n; cubes = [] }

let full n = { n; cubes = [ Cube.full n ] }

let is_empty f = f.cubes = []

let size f = List.length f.cubes

let literals f =
  List.fold_left (fun acc c -> acc + Cube.num_literals f.n c) 0 f.cubes

let union a b =
  if a.n <> b.n then invalid_arg "Cover.union: width mismatch";
  { a with cubes = a.cubes @ b.cubes }

let eval f point = List.exists (fun c -> Cube.member f.n c point) f.cubes

let has_full f = List.exists (fun c -> c = Cube.full f.n) f.cubes

(* Cofactor of the cover with respect to cube p. *)
let cofactor f p =
  let cubes =
    List.filter_map (fun c -> Cube.cofactor f.n c p) f.cubes
  in
  { f with cubes }

(* Count positive/negative literal occurrences of each variable, visiting
   only the literal fields of each cube (four empty fields at a time). *)
let literal_counts f =
  let pos = Array.make f.n 0 and neg = Array.make f.n 0 in
  let rec go p i =
    if p <> 0 then
      if p land 0xff = 0 then go (p lsr 8) (i + 4)
      else begin
        if p land 2 <> 0 then pos.(i) <- pos.(i) + 1
        else if p land 1 <> 0 then neg.(i) <- neg.(i) + 1;
        go (p lsr 2) (i + 1)
      end
  in
  List.iter (fun c -> go (Cube.polarity_bits f.n c) 0) f.cubes;
  (pos, neg)

(* Most binate variable: maximize min(pos,neg), tie-break on total; if the
   cover is unate, the variable with the most occurrences.  None if no cube
   has any literal (cover is empty or a single full cube).  The flag says
   whether the cover is binate in the chosen variable, i.e. anywhere. *)
let select f =
  let pos, neg = literal_counts f in
  let best = ref (-1) and best_min = ref (-1) and best_total = ref (-1) in
  for i = 0 to f.n - 1 do
    let p = pos.(i) and q = neg.(i) in
    let total = p + q and m = min p q in
    if total > 0
       && (m > !best_min || (m = !best_min && total > !best_total))
    then begin
      best := i;
      best_min := m;
      best_total := total
    end
  done;
  if !best < 0 then None else Some (!best, !best_min > 0)

let branch_var f = Option.map fst (select f)

let binate_var f =
  match select f with Some (v, true) -> Some v | _ -> None

let pos_cube n v = Cube.set_lit (Cube.full n) v Cube.lit_pos
let neg_cube n v = Cube.set_lit (Cube.full n) v Cube.lit_neg

let rec tautology f =
  if has_full f then true
  else if is_empty f then false
  else
    match branch_var f with
    | None -> false
    | Some v ->
      tautology (cofactor f (pos_cube f.n v))
      && tautology (cofactor f (neg_cube f.n v))

(* Complement of a single cube: disjoint sharp expansion. *)
let complement_cube n c =
  let acc = ref [] in
  let prefix = ref (Cube.full n) in
  for i = 0 to n - 1 do
    let l = Cube.get_lit c i in
    if l = Cube.lit_pos || l = Cube.lit_neg then begin
      let flipped = if l = Cube.lit_pos then Cube.lit_neg else Cube.lit_pos in
      acc := Cube.set_lit !prefix i flipped :: !acc;
      prefix := Cube.set_lit !prefix i l
    end
  done;
  !acc

let rec complement f =
  if is_empty f then full f.n
  else if has_full f then empty f.n
  else
    match f.cubes with
    | [ c ] -> { f with cubes = complement_cube f.n c }
    | _ ->
      (match branch_var f with
       | None -> empty f.n
       | Some v ->
         let p = pos_cube f.n v and q = neg_cube f.n v in
         let cp = complement (cofactor f p) in
         let cq = complement (cofactor f q) in
         let cubes =
           List.map (fun c -> Cube.intersect c p) cp.cubes
           @ List.map (fun c -> Cube.intersect c q) cq.cubes
         in
         make f.n cubes)

(* Does the cover (plus optional dc cover) contain cube [c]?  Classic check:
   the cofactor of the cover with respect to c must be a tautology. *)
let covers_cube f c = tautology (cofactor f c)

(* Remove cubes single-cube-contained in another cube of the cover. *)
let drop_contained f =
  let rec loop kept = function
    | [] -> List.rev kept
    | c :: rest ->
      let covered_by_other d = d <> c && Cube.contains d c in
      if List.exists covered_by_other rest
         || List.exists (fun d -> Cube.contains d c) kept
      then loop kept rest
      else loop (c :: kept) rest
  in
  { f with cubes = loop [] f.cubes }

let pp ppf f =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Fmt.string)
    (List.map (Cube.to_string f.n) f.cubes)
