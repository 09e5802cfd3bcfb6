(* Packed bit-vector keys that stay exact beyond 62 bits.  8 bits per
   byte, little-endian within the byte: bit i lives in byte (i lsr 3) at
   position (i land 7).  Trailing unused bits of the last byte are zero,
   so equal vectors always produce equal strings. *)

type t = string

let pack n get =
  let len = (n + 7) lsr 3 in
  let b = Bytes.make len '\000' in
  for i = 0 to n - 1 do
    if get i then
      Bytes.unsafe_set b (i lsr 3)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))
  done;
  Bytes.unsafe_to_string b

let of_bools bits = pack (Array.length bits) (Array.unsafe_get bits)

let of_lane_words words ~lane =
  pack (Array.length words) (fun i -> (words.(i) lsr lane) land 1 = 1)

let capacity k = 8 * String.length k

let bit k i =
  if i lsr 3 >= String.length k then false
  else Char.code (String.unsafe_get k (i lsr 3)) land (1 lsl (i land 7)) <> 0

let to_hex k =
  String.concat ""
    (List.init (String.length k) (fun i ->
         Printf.sprintf "%02x" (Char.code k.[i])))

let of_hex s =
  let n = String.length s in
  if n land 1 <> 0 then invalid_arg "Statekey.of_hex: odd length";
  String.init (n / 2) (fun i ->
      let digit c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | _ -> invalid_arg "Statekey.of_hex: non-hex digit"
      in
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))
