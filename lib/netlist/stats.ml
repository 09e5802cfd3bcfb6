(* Structural statistics and traversal helpers. *)

type t = {
  pis : int;
  pos : int;
  dffs : int;
  gates : int;
  by_fn : (Node.gate_fn * int) list;
  max_fanin : int;
  max_fanout : int;
  levels : int;
  area : float;
  delay : float;
}

let of_circuit c =
  let counts = Hashtbl.create 17 in
  let max_fanin = ref 0 in
  Array.iter
    (fun nd ->
      match nd.Node.kind with
      | Node.Gate fn ->
        let cur = try Hashtbl.find counts fn with Not_found -> 0 in
        Hashtbl.replace counts fn (cur + 1);
        let a = Array.length nd.Node.fanins in
        if a > !max_fanin then max_fanin := a
      | Node.Pi _ | Node.Dff _ -> ())
    c.Node.nodes;
  let max_fanout =
    Array.fold_left (fun acc fo -> max acc (Array.length fo)) 0 c.Node.fanouts
  in
  let levels = Array.fold_left max 0 c.Node.level in
  {
    pis = Node.num_pis c;
    pos = Node.num_pos c;
    dffs = Node.num_dffs c;
    gates = Node.num_gates c;
    by_fn = Hashtbl.fold (fun fn n acc -> (fn, n) :: acc) counts [];
    max_fanin = !max_fanin;
    max_fanout;
    levels;
    area = Node.area c;
    delay = Node.critical_path c;
  }

let pp ppf s =
  Fmt.pf ppf "PI=%d PO=%d DFF=%d gates=%d levels=%d area=%.1f delay=%.2f"
    s.pis s.pos s.dffs s.gates s.levels s.area s.delay

(* Nodes combinationally reachable from [id] (through gates, stopping at DFF
   data inputs and POs). *)
let comb_fanout_cone c id =
  let seen = Hashtbl.create 97 in
  let acc = ref [] in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      acc := id :: !acc;
      Array.iter
        (fun s ->
          match (Node.node c s).Node.kind with
          | Node.Gate _ -> go s
          | Node.Dff _ ->
            if not (Hashtbl.mem seen s) then begin
              Hashtbl.add seen s ();
              acc := s :: !acc
            end
          | Node.Pi _ -> ())
        c.Node.fanouts.(id)
    end
  in
  go id;
  !acc
