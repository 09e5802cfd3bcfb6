(* Positional-cube representation: each of the [n] binary variables owns two
   bits in a machine word — bit 2i   set: the cube admits variable i = 0,
   bit 2i+1 set: the cube admits variable i = 1.
   11 = don't care, 01 = positive literal, 10 = negative literal, 00 = empty.
   With n <= 30 this fits a native int. *)

type t = int

let max_vars = 30

let check_width n =
  if n < 0 || n > max_vars then invalid_arg "Cube: variable count out of range"

let full n =
  check_width n;
  if n = 0 then 0 else (1 lsl (2 * n)) - 1

let var_mask i = 3 lsl (2 * i)

(* literal values *)
let lit_dc = 3
let lit_pos = 2 (* admits 1 only: bit 2i+1 *)
let lit_neg = 1 (* admits 0 only: bit 2i *)

let get_lit c i = (c lsr (2 * i)) land 3

let set_lit c i lit = (c land lnot (var_mask i)) lor (lit lsl (2 * i))

(* Build from a (care, value) bit-mask pair over n variables. *)
let of_masks n ~care ~value =
  let c = ref (full n) in
  for i = 0 to n - 1 do
    if care land (1 lsl i) <> 0 then
      c := set_lit !c i (if value land (1 lsl i) <> 0 then lit_pos else lit_neg)
  done;
  !c

let intersect a b = a land b

(* [low.(n)] has the low bit (bit 2i) of each of the [n] fields set.  The
   whole-word kernels below fold a field's two bits onto its low bit and
   mask: [c lor (c lsr 1)] is 1 there iff the field is non-empty,
   [c lxor (c lsr 1)] iff it is a literal (01 or 10).  Bits of the next
   field that the shift brings down land on high bits, which the mask drops. *)
let low =
  Array.init (max_vars + 1) (fun n ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        m := !m lor (1 lsl (2 * i))
      done;
      !m)

let popcount x =
  let rec go x k = if x = 0 then k else go (x land (x - 1)) (k + 1) in
  go x 0

(* The literal fields of [c] as a [low]-aligned bit mask. *)
let literal_mask n c = (c lxor (c lsr 1)) land low.(n)

(* Bit 2i+1 set iff field i is a positive literal (10), bit 2i iff it is a
   negative one (01): each field ANDed with the complement of its swap. *)
let polarity_bits n c =
  let l = low.(n) in
  let swapped = ((c lsr 1) land l) lor ((c land l) lsl 1) in
  c land lnot swapped land (l lor (l lsl 1))

(* A cube is empty iff some variable field is 00. *)
let is_empty n c = (c lor (c lsr 1)) land low.(n) <> low.(n)

let intersects n a b = not (is_empty n (a land b))

(* [contains a b] : cube a covers cube b (b implies a). *)
let contains a b = b land a = b

let supercube a b = a lor b

(* Number of specified literals (smaller cube = more literals). *)
let num_literals n c = popcount (literal_mask n c)

(* Does the minterm given by bit-mask [point] lie inside the cube? *)
let member n c point =
  let rec loop i =
    if i >= n then true
    else
      let bit = if point land (1 lsl i) <> 0 then lit_pos else lit_neg in
      if get_lit c i land bit = 0 then false else loop (i + 1)
  in
  loop 0

(* Cofactor of cube c with respect to cube p (Shannon cofactor for p a
   literal; general cube cofactor otherwise).  None if disjoint. *)
let cofactor n c p =
  if is_empty n (c land p) then None
  else
    (* a non-empty [c land p] leaves no 00 field in [p]: every field that
       is not don't-care is a literal, and is raised to 11 *)
    let spec = literal_mask n p in
    Some (c lor spec lor (spec lsl 1))

let to_string n c =
  String.init n (fun i ->
      match get_lit c i with
      | 3 -> '-'
      | 2 -> '1'
      | 1 -> '0'
      | _ -> '!')

let of_string s =
  let n = String.length s in
  check_width n;
  let c = ref (full n) in
  String.iteri
    (fun i ch ->
      match ch with
      | '-' -> ()
      | '1' -> c := set_lit !c i lit_pos
      | '0' -> c := set_lit !c i lit_neg
      | _ -> invalid_arg "Cube.of_string")
    s;
  !c

let pp n ppf c = Fmt.string ppf (to_string n c)
