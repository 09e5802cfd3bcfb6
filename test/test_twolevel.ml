(* Cube algebra and the espresso-lite minimizer. *)

let n = 6

let gen_cube =
  QCheck2.Gen.(
    let* lits = list_size (return n) (int_range 0 2) in
    return
      (List.fold_left
         (fun (c, i) l ->
           let lit =
             match l with
             | 0 -> Twolevel.Cube.lit_neg
             | 1 -> Twolevel.Cube.lit_pos
             | _ -> Twolevel.Cube.lit_dc
           in
           (Twolevel.Cube.set_lit c i lit, i + 1))
         (Twolevel.Cube.full n, 0)
         lits
       |> fst))

let gen_cover k = QCheck2.Gen.(map (Twolevel.Cover.make n) (list_size (int_range 0 k) gen_cube))

let points = List.init (1 lsl n) Fun.id

let test_cube_roundtrip () =
  let c = Twolevel.Cube.of_string "01-1-0" in
  Alcotest.(check string) "roundtrip" "01-1-0" (Twolevel.Cube.to_string 6 c)

let test_cube_member () =
  let c = Twolevel.Cube.of_string "1-0" in
  Alcotest.(check bool) "101 in" true (Twolevel.Cube.member 3 c 0b001);
  Alcotest.(check bool) "011 out" false (Twolevel.Cube.member 3 c 0b110)

let test_cube_contains () =
  let big = Twolevel.Cube.of_string "1--" in
  let small = Twolevel.Cube.of_string "1-0" in
  Alcotest.(check bool) "contains" true (Twolevel.Cube.contains big small);
  Alcotest.(check bool) "not contains" false (Twolevel.Cube.contains small big)

let qcheck_intersection =
  Helpers.qcheck_case "cube intersection = pointwise and"
    QCheck2.Gen.(pair gen_cube gen_cube)
    (fun (a, b) ->
      let i = Twolevel.Cube.intersect a b in
      List.for_all
        (fun p ->
          Twolevel.Cube.member n i p
          = (Twolevel.Cube.member n a p && Twolevel.Cube.member n b p))
        points)

let qcheck_complement =
  Helpers.qcheck_case "cover complement is pointwise negation"
    (gen_cover 8)
    (fun f ->
      let fc = Twolevel.Cover.complement f in
      List.for_all
        (fun p -> Twolevel.Cover.eval fc p = not (Twolevel.Cover.eval f p))
        points)

let qcheck_tautology =
  Helpers.qcheck_case "tautology agrees with truth table"
    (gen_cover 10)
    (fun f ->
      Twolevel.Cover.tautology f
      = List.for_all (fun p -> Twolevel.Cover.eval f p) points)

let qcheck_espresso_equivalent =
  Helpers.qcheck_case ~count:200 "espresso preserves the function on the care set"
    QCheck2.Gen.(pair (gen_cover 10) (gen_cover 2))
    (fun (on, dc) ->
      let r = Twolevel.Minimize.espresso ~on ~dc () in
      Twolevel.Minimize.equivalent_on_care ~on ~dc r)

let qcheck_espresso_no_growth =
  Helpers.qcheck_case ~count:100 "espresso never grows the cover"
    (gen_cover 10)
    (fun on ->
      let dc = Twolevel.Cover.empty n in
      let r = Twolevel.Minimize.espresso ~on ~dc () in
      Twolevel.Cover.size r
      <= Twolevel.Cover.size (Twolevel.Cover.drop_contained on))

(* --- whole-word kernels at full width --------------------------------------

   Cubes over [w] variables built field by field, so that empty (00) fields
   occur; each kernel is checked against a per-field loop. *)

let wide = Twolevel.Cube.max_vars

let gen_fields ?(empty = 0) ~lit w =
  QCheck2.Gen.(
    let field =
      frequency [ (empty, return 0); (lit, return 1); (lit, return 2); (100, return 3) ]
    in
    let* fields = list_size (return w) field in
    return (List.fold_left (fun c f -> (c lsl 2) lor f) 0 fields))

let field c i = (c lsr (2 * i)) land 3

let ref_is_empty w c = List.exists (fun i -> field c i = 0) (List.init w Fun.id)

let ref_num_literals w c =
  List.length (List.filter (fun i -> field c i = 1 || field c i = 2) (List.init w Fun.id))

let ref_cofactor w c p =
  if ref_is_empty w (c land p) then None
  else
    Some
      (List.fold_left
         (fun r i -> if field p i <> 3 then r lor (3 lsl (2 * i)) else r)
         c (List.init w Fun.id))

let qcheck_kernels_full_width =
  Helpers.qcheck_case ~count:500 "cube kernels = per-field loops (30 vars)"
    QCheck2.Gen.(pair (gen_fields ~empty:1 ~lit:20 wide) (gen_fields ~empty:1 ~lit:5 wide))
    (fun (a, b) ->
      Twolevel.Cube.is_empty wide a = ref_is_empty wide a
      && Twolevel.Cube.is_empty wide b = ref_is_empty wide b
      && Twolevel.Cube.intersects wide a b = not (ref_is_empty wide (a land b))
      && Twolevel.Cube.num_literals wide a = ref_num_literals wide a
      && Twolevel.Cube.cofactor wide a b = ref_cofactor wide a b
      && Twolevel.Cube.cofactor wide b a = ref_cofactor wide b a)

(* Literal counts and the branching variable, against a per-field count and
   the lexicographic choice of the largest (min, total) key, first wins. *)
let qcheck_branch_var_full_width =
  Helpers.qcheck_case ~count:200 "literal counts and branch variable (30 vars)"
    QCheck2.Gen.(list_size (int_range 0 12) (gen_fields ~lit:10 wide))
    (fun cubes ->
      let f = Twolevel.Cover.make wide cubes in
      let count l =
        Array.init wide (fun i ->
            List.length (List.filter (fun c -> field c i = l) f.Twolevel.Cover.cubes))
      in
      let pos = count 2 and neg = count 1 in
      let best = ref None in
      Array.iteri
        (fun i p ->
          let q = neg.(i) in
          let key = (min p q, p + q) in
          if p + q > 0 then
            match !best with
            | Some (_, k) when k >= key -> ()
            | _ -> best := Some (i, key))
        pos;
      Twolevel.Cover.literal_counts f = (pos, neg)
      && Twolevel.Cover.branch_var f = Option.map fst !best
      && Twolevel.Cover.binate_var f
         = (match !best with Some (i, (m, _)) when m > 0 -> Some i | _ -> None))

(* [sccc] against its definition: the supercube of the complement that
   [Cover.complement] builds, [None] exactly when that complement is empty. *)
let sccc_matches_complement f =
  let oracle =
    match (Twolevel.Cover.complement f).Twolevel.Cover.cubes with
    | [] -> None
    | c :: cs -> Some (List.fold_left Twolevel.Cube.supercube c cs)
  in
  Twolevel.Minimize.sccc f = oracle

let qcheck_sccc =
  Helpers.qcheck_case ~count:500 "sccc = supercube of the complement (6 vars)"
    (gen_cover 10) sccc_matches_complement

let qcheck_sccc_full_width =
  Helpers.qcheck_case ~count:200 "sccc = supercube of the complement (30 vars)"
    QCheck2.Gen.(
      map (Twolevel.Cover.make wide)
        (list_size (int_range 0 8) (gen_fields ~lit:8 wide)))
    sccc_matches_complement

(* EXPAND as it ran against a built OFF-set: a raised literal is kept when
   the cube still misses every OFF cube.  Oracle for [Minimize.expand],
   which asks the same question as containment in ON ∪ DC. *)
let expand_against_off f ~off =
  let n = f.Twolevel.Cover.n in
  let ordered =
    List.sort
      (fun a b ->
        compare (Twolevel.Cube.num_literals n a) (Twolevel.Cube.num_literals n b))
      f.Twolevel.Cover.cubes
  in
  let expand_cube c =
    let cur = ref c in
    for i = 0 to n - 1 do
      let l = Twolevel.Cube.get_lit !cur i in
      if l = Twolevel.Cube.lit_pos || l = Twolevel.Cube.lit_neg then begin
        let cand = Twolevel.Cube.set_lit !cur i Twolevel.Cube.lit_dc in
        if not (List.exists (Twolevel.Cube.intersects n cand) off.Twolevel.Cover.cubes)
        then cur := cand
      end
    done;
    !cur
  in
  let rec loop acc = function
    | [] -> List.rev acc
    | c :: rest ->
      if List.exists (fun d -> Twolevel.Cube.contains d c) acc then loop acc rest
      else begin
        let e = expand_cube c in
        let rest = List.filter (fun d -> not (Twolevel.Cube.contains e d)) rest in
        let acc = List.filter (fun d -> not (Twolevel.Cube.contains e d)) acc in
        loop (e :: acc) rest
      end
  in
  { f with Twolevel.Cover.cubes = loop [] ordered }

(* Both a fresh ON cover and a REDUCEd one, as espresso expands them. *)
let qcheck_expand_care =
  Helpers.qcheck_case ~count:300 "expand ~care = expand against the OFF-set"
    QCheck2.Gen.(pair (gen_cover 10) (gen_cover 3))
    (fun (on, dc) ->
      let care = Twolevel.Cover.union on dc in
      let off = Twolevel.Cover.complement care in
      let same f =
        Twolevel.Minimize.expand f ~care = expand_against_off f ~off
      in
      same (Twolevel.Cover.drop_contained on)
      && same (Twolevel.Minimize.reduce on ~dc))

let test_espresso_classic () =
  (* f = a'b + ab + ab' should reduce to a + b *)
  let on =
    Twolevel.Cover.make 2
      [
        Twolevel.Cube.of_string "01";
        Twolevel.Cube.of_string "11";
        Twolevel.Cube.of_string "10";
      ]
  in
  let r = Twolevel.Minimize.espresso ~on ~dc:(Twolevel.Cover.empty 2) () in
  Alcotest.(check int) "two cubes" 2 (Twolevel.Cover.size r);
  Alcotest.(check int) "two literals" 2 (Twolevel.Cover.literals r)

let test_dc_exploited () =
  (* ON = {00}, DC = {01, 10, 11} -> constant 1 (a single full cube) *)
  let on = Twolevel.Cover.make 2 [ Twolevel.Cube.of_string "00" ] in
  let dc =
    Twolevel.Cover.make 2
      [
        Twolevel.Cube.of_string "01";
        Twolevel.Cube.of_string "1-";
      ]
  in
  let r = Twolevel.Minimize.espresso ~on ~dc () in
  Alcotest.(check int) "one cube" 1 (Twolevel.Cover.size r);
  Alcotest.(check int) "no literals" 0 (Twolevel.Cover.literals r)

let suite =
  [
    Alcotest.test_case "cube string roundtrip" `Quick test_cube_roundtrip;
    Alcotest.test_case "cube membership" `Quick test_cube_member;
    Alcotest.test_case "cube containment" `Quick test_cube_contains;
    qcheck_intersection;
    qcheck_complement;
    qcheck_tautology;
    qcheck_espresso_equivalent;
    qcheck_espresso_no_growth;
    qcheck_kernels_full_width;
    qcheck_branch_var_full_width;
    qcheck_sccc;
    qcheck_sccc_full_width;
    qcheck_expand_care;
    Alcotest.test_case "espresso textbook example" `Quick test_espresso_classic;
    Alcotest.test_case "espresso exploits don't cares" `Quick test_dc_exploited;
  ]
