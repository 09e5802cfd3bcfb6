(* Hash-consed ROBDD engine with complement edges.

   An edge is an int: (node index lsl 1) lor complement bit.  Node 0 is
   the single terminal (logical true); [one] is its regular edge, [zero]
   its complement.  Canonical form demands a regular then-edge: [mk]
   pushes a complemented then-edge through the node (complementing both
   children and the result), so equal functions always hash-cons to equal
   edge integers.  Nodes are rows of three growable int arrays — no
   per-node allocation on the hot path beyond the unique-table entry. *)

type t = int

type man = {
  mutable var : int array;    (* per node: variable; terminal = max_int *)
  mutable low : int array;    (* else edge (may be complemented) *)
  mutable high : int array;   (* then edge (always regular) *)
  mutable n : int;            (* nodes allocated *)
  unique : (int * int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
  mutable lookups : int;
  mutable hits : int;
  max_nodes : int;
}

exception Node_limit

let terminal_var = max_int
let one = 0
let zero = 1
let not_ e = e lxor 1
let equal = Int.equal
let is_false e = e = zero
let is_compl e = e land 1 = 1
let node_of e = e lsr 1

let create ?(max_nodes = 10_000_000) () =
  let cap = 1024 in
  let m =
    {
      var = Array.make cap terminal_var;
      low = Array.make cap 0;
      high = Array.make cap 0;
      n = 1;
      unique = Hashtbl.create 1024;
      ite_cache = Hashtbl.create 1024;
      lookups = 0;
      hits = 0;
      max_nodes;
    }
  in
  m.var.(0) <- terminal_var;
  m

let grow m =
  let cap = Array.length m.var in
  if m.n >= cap then begin
    let ncap = 2 * cap in
    let cp a fill =
      let a' = Array.make ncap fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    m.var <- cp m.var terminal_var;
    m.low <- cp m.low 0;
    m.high <- cp m.high 0
  end

let var_of m e = m.var.(node_of e)

(* Cofactors of [e] with respect to its own top variable; the edge's
   complement bit distributes over both children. *)
let cof0 m e = m.low.(node_of e) lxor (e land 1)
let cof1 m e = m.high.(node_of e) lxor (e land 1)

let mk m v lo hi =
  if lo = hi then lo
  else begin
    (* canonical: then-edge regular; a complemented one flips the node *)
    let flip = hi land 1 in
    let lo = lo lxor flip and hi = hi lxor flip in
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some n -> (n lsl 1) lor flip
    | None ->
      if m.n >= m.max_nodes then raise Node_limit;
      grow m;
      let n = m.n in
      m.var.(n) <- v;
      m.low.(n) <- lo;
      m.high.(n) <- hi;
      m.n <- n + 1;
      Hashtbl.add m.unique (v, lo, hi) n;
      (n lsl 1) lor flip
  end

let var m v =
  if v < 0 || v >= terminal_var then invalid_arg "Bdd.var: bad variable";
  mk m v zero one

let rec ite m f g h =
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if g = one && h = zero then f
  else if g = zero && h = one then not_ f
  else begin
    (* normalize: regular f (swap branches), then regular g (complement
       the result) — quadruples the ite-cache hit rate *)
    let f, g, h = if is_compl f then (not_ f, h, g) else (f, g, h) in
    let neg, g, h =
      if is_compl g then (true, not_ g, not_ h) else (false, g, h)
    in
    let r =
      if g = h then g
      else if g = one && h = zero then f
      else begin
        m.lookups <- m.lookups + 1;
        match Hashtbl.find_opt m.ite_cache (f, g, h) with
        | Some r ->
          m.hits <- m.hits + 1;
          r
        | None ->
          let v = min (var_of m f) (min (var_of m g) (var_of m h)) in
          let cof b e =
            if var_of m e = v then if b then cof1 m e else cof0 m e else e
          in
          let t = ite m (cof true f) (cof true g) (cof true h) in
          let e = ite m (cof false f) (cof false g) (cof false h) in
          let r = mk m v e t in
          Hashtbl.replace m.ite_cache (f, g, h) r;
          r
      end
    in
    if neg then not_ r else r
  end

let and_ m f g = ite m f g zero
let or_ m f g = ite m f one g
let xor_ m f g = ite m f (not_ g) g
let xnor_ m f g = not_ (xor_ m f g)

let restrict m f ~var:v ~value =
  let memo = Hashtbl.create 16 in
  let rec go f =
    if var_of m f > v then f (* ordered: v cannot appear below *)
    else if var_of m f = v then if value then cof1 m f else cof0 m f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let r = mk m (var_of m f) (go (cof0 m f)) (go (cof1 m f)) in
        Hashtbl.add memo f r;
        r
  in
  go f

let compose m f ~var:v g =
  ite m g (restrict m f ~var:v ~value:true) (restrict m f ~var:v ~value:false)

let exists m pred f =
  let memo = Hashtbl.create 64 in
  let rec go f =
    if node_of f = 0 then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let v = var_of m f in
        let l = go (cof0 m f) and h = go (cof1 m f) in
        let r = if pred v then or_ m l h else mk m v l h in
        Hashtbl.add memo f r;
        r
  in
  go f

(* Relational product: exists-and in one pass, with the early cut-offs
   that make image computation cheap (a satisfied quantified branch
   collapses to [one] without exploring its sibling). *)
let and_exists m pred f g =
  let memo = Hashtbl.create 64 in
  let rec go f g =
    if f = zero || g = zero then zero
    else if f = one && g = one then one
    else if f = one then exists m pred g
    else if g = one then exists m pred f
    else if f = g then exists m pred f
    else if f = not_ g then zero
    else begin
      let f, g = if f <= g then (f, g) else (g, f) in
      match Hashtbl.find_opt memo (f, g) with
      | Some r -> r
      | None ->
        let v = min (var_of m f) (var_of m g) in
        let cof b e =
          if var_of m e = v then if b then cof1 m e else cof0 m e else e
        in
        let l = go (cof false f) (cof false g) in
        let r =
          if pred v then
            if l = one then one else or_ m l (go (cof true f) (cof true g))
          else mk m v l (go (cof true f) (cof true g))
        in
        Hashtbl.add memo (f, g) r;
        r
    end
  in
  go f g

let rename m map f =
  let memo = Hashtbl.create 64 in
  let rec go f =
    if node_of f = 0 then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let v = map (var_of m f) in
        let l = go (cof0 m f) and h = go (cof1 m f) in
        if v < 0 || v >= var_of m l || v >= var_of m h then
          invalid_arg "Bdd.rename: map must preserve the variable order";
        let r = mk m v l h in
        Hashtbl.add memo f r;
        r
  in
  go f

let rec eval m f env =
  if f = one then true
  else if f = zero then false
  else eval m (if env (var_of m f) then cof1 m f else cof0 m f) env

let support m f =
  let seen = Hashtbl.create 16 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    let n = node_of f in
    if n <> 0 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      Hashtbl.replace vars m.var.(n) ();
      go m.low.(n);
      go m.high.(n)
    end
  in
  go f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let size m f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    let n = node_of f in
    if n <> 0 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      go m.low.(n);
      go m.high.(n)
    end
  in
  go f;
  Hashtbl.length seen

let check_support name m ~nvars f =
  List.iter
    (fun v ->
      if v >= nvars then
        invalid_arg
          (Printf.sprintf "Bdd.%s: support variable %d >= nvars %d" name v
             nvars))
    (support m f)

(* Counting: [node_count n p] is the satisfying-assignment count of the
   edge [(n, p)] over variables [var n .. nvars-1]; an edge at [level]
   scales by the skipped free variables.  Memoizing on (node, polarity)
   and pushing the complement bit into the children makes every value a
   sum of non-negative subcounts — never [2^k -. x], whose cancellation
   would corrupt small counts once both operands exceed 2^53.  So counts
   are exact up to 2^53 for any [nvars], and merely rounded (relative
   error only, never overflowed) beyond. *)
let sat_count m ~nvars f =
  check_support "sat_count" m ~nvars f;
  let memo = Hashtbl.create 64 in
  let rec node_count n p =
    match Hashtbl.find_opt memo ((n lsl 1) lor p) with
    | Some c -> c
    | None ->
      let v = m.var.(n) in
      let c =
        edge_count (m.low.(n) lxor p) (v + 1)
        +. edge_count (m.high.(n) lxor p) (v + 1)
      in
      Hashtbl.add memo ((n lsl 1) lor p) c;
      c
  and edge_count e level =
    let n = node_of e in
    if n = 0 then if is_compl e then 0.0 else ldexp 1.0 (nvars - level)
    else ldexp (node_count n (e land 1)) (m.var.(n) - level)
  in
  edge_count f 0

(* Same recursion in 63-bit integers; [nvars <= 61] guarantees every
   intermediate count (at most [2^nvars]) is representable. *)
let sat_count_int m ~nvars f =
  check_support "sat_count_int" m ~nvars f;
  if nvars > 61 then None
  else begin
    let memo = Hashtbl.create 64 in
    let rec node_count n =
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
        let v = m.var.(n) in
        let c = edge_count m.low.(n) (v + 1) + edge_count m.high.(n) (v + 1) in
        Hashtbl.add memo n c;
        c
    and edge_count e level =
      let n = node_of e in
      let reg =
        if n = 0 then 1 lsl (nvars - level)
        else node_count n lsl (m.var.(n) - level)
      in
      if is_compl e then (1 lsl (nvars - level)) - reg else reg
    in
    Some (edge_count f 0)
  end

type stats = {
  nodes : int;
  unique_load : float;
  cache_lookups : int;
  cache_hits : int;
}

let stats m =
  let s = Hashtbl.stats m.unique in
  {
    nodes = m.n - 1;
    unique_load =
      float_of_int s.Hashtbl.num_bindings
      /. float_of_int (max 1 s.Hashtbl.num_buckets);
    cache_lookups = m.lookups;
    cache_hits = m.hits;
  }

let num_nodes m = m.n - 1
