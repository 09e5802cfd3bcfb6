(* Input-vector helpers shared by fault simulation, ATPG and tests. *)

type vector = bool array
type sequence = vector list

let vector_to_string v =
  String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let vector_of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> invalid_arg (Printf.sprintf "Vectors.vector_of_string: %c" c))

let to_v3 v = Array.map Value3.of_bool v

let random_vector rng n = Array.init n (fun _ -> Random.State.bool rng)

let random_sequence rng ~width ~length =
  List.init length (fun _ -> random_vector rng width)

(* Enumerate all 2^n input vectors for small n (reachability uses this). *)
let enumerate n =
  if n > 20 then invalid_arg "Vectors.enumerate: too many inputs";
  List.init (1 lsl n) (fun code ->
      Array.init n (fun i -> (code lsr i) land 1 = 1))

(* All 2^n vectors packed into words of [Parallel.word_bits] lanes: returns a
   list of (lane_count, per-input word array).  Lane l of chunk k encodes the
   vector with code k*word_bits + l. *)
let enumerate_words n =
  if n > 20 then invalid_arg "Vectors.enumerate_words: too many inputs";
  let total = 1 lsl n in
  let chunk_size = Parallel.word_bits in
  let rec chunks start acc =
    if start >= total then List.rev acc
    else
      let lanes = min chunk_size (total - start) in
      let words =
        Array.init n (fun i ->
            let w = ref 0 in
            for l = 0 to lanes - 1 do
              let code = start + l in
              if (code lsr i) land 1 = 1 then w := !w lor (1 lsl l)
            done;
            !w)
      in
      chunks (start + lanes) ((lanes, words) :: acc)
  in
  chunks 0 []
