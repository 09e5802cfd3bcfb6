(* Minimum-period retiming via the Leiserson–Saxe FEAS algorithm and binary
   search over the clock period.  FEAS(P): start from r = 0; up to |V| - 1
   times, compute combinational arrival times on the retimed graph and
   increment the lag of every vertex whose arrival exceeds P.  If the clock
   period of the final retiming meets P and all retimed weights are
   non-negative, P is feasible.

   Early refutation (exact).  FEAS only ever raises lags, and the host (PIs,
   POs) and constants stay at lag 0.  Along any path from gate v to a PO
   carrying W registers the retimed weights sum to W - r(v).  So once r(v)
   exceeds [registers_to_po.(v)], the fewest registers on any such path,
   that path holds a negative edge in this and every later iterate: no
   iterate can pass the final legality test, and FEAS returns [None] at
   once instead of running out its |V| - 1 rounds. *)

let log = Logs.Src.create "retime" ~doc:"retiming"
module Log = (val Logs.src_log log : Logs.LOG)

(* global counters for `satpg --metrics` *)
let m_feas_calls = Obs.Metrics.counter "retime.feas.calls"
let m_feas_relaxations = Obs.Metrics.counter "retime.feas.relaxations"
let m_search_probes = Obs.Metrics.counter "retime.search.probes"
let m_deepen_moves = Obs.Metrics.counter "retime.deepen.moves"

(* Combinational arrival times of the retimed graph: gate-to-gate edges with
   retimed weight <= 0 propagate combinationally.  Returns None if that
   subgraph has a cycle (the retiming is broken). *)
let arrivals g r =
  let n = Graph.num_gates g in
  let delta = Array.make n 0.0 in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iter
    (fun (e : Graph.edge) ->
      let s = e.Graph.src_vertex and d = e.Graph.dst_vertex in
      if s >= 0 && d >= 0 && Graph.retimed_weight g r e <= 0 then begin
        indeg.(d) <- indeg.(d) + 1;
        succs.(s) <- d :: succs.(s)
      end)
    g.Graph.edges;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr processed;
    delta.(v) <- delta.(v) +. g.Graph.delays.(v);
    List.iter
      (fun s ->
        if delta.(v) > delta.(s) then delta.(s) <- delta.(v);
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      succs.(v)
  done;
  if !processed < n then None else Some delta

let period_of g r =
  match arrivals g r with
  | None -> infinity
  | Some delta -> Array.fold_left max 0.0 delta

(* FEAS: returns a legal retiming achieving period <= p, or None (early
   when a lag passes its [registers_to_po] bound; see the header). *)
let feas g ~period:p =
  Obs.Metrics.incr m_feas_calls;
  let n = Graph.num_gates g in
  let bound = g.Graph.registers_to_po in
  let r = Array.make n 0 in
  let rec loop i =
    match arrivals g r with
    | None -> None
    | Some delta ->
      let worst = Array.fold_left max 0.0 delta in
      if worst <= p +. 1e-9 then
        if Graph.legal g r then Some (Array.copy r) else None
      else if i >= n then None
      else begin
        Obs.Metrics.incr m_feas_relaxations;
        let doomed = ref false in
        for v = 0 to n - 1 do
          if delta.(v) > p +. 1e-9 then begin
            r.(v) <- r.(v) + 1;
            if r.(v) > bound.(v) then doomed := true
          end
        done;
        if !doomed then None else loop (i + 1)
      end
  in
  loop 0

(* Minimum feasible period by binary search between the largest single gate
   delay and the original circuit's period. *)
let min_period ?(iterations = 24) g =
  Obs.Trace.span "retime.min_period" (fun () ->
      let zero = Array.make (Graph.num_gates g) 0 in
      let upper0 = period_of g zero in
      let lower0 = Array.fold_left max 0.0 g.Graph.delays in
      let best = ref (zero, upper0) in
      let rec search lower upper i =
        if i >= iterations || upper -. lower < 0.005 then ()
        else begin
          Obs.Metrics.incr m_search_probes;
          let mid = (lower +. upper) /. 2.0 in
          match feas g ~period:mid with
          | Some r ->
            let p = period_of g r in
            if p < snd !best then best := (r, p);
            search lower (min mid p) (i + 1)
          | None -> search mid upper (i + 1)
        end
      in
      search lower0 upper0 0;
      !best)

(* Retiming for an explicit target period (used to build the partially
   retimed versions of Table 7).  Returns the achieved period. *)
let retime_to_period g ~period =
  match feas g ~period with
  | Some r -> Some (r, period_of g r)
  | None -> None

(* Deepening: starting from a legal retiming, greedily apply further backward
   atomic moves (increment the lag of a gate) while the retiming stays legal,
   the clock period does not regress beyond [period], lags stay within
   [max_lag], and the shared register count stays within [max_regs].  Each
   accepted move is exactly the paper's Figure-1 atomic transformation: a
   register at a gate's output is replaced by registers at its inputs, which
   multiplies registers across fanin and fanout — the mechanism that dilutes
   the density of encoding.

   A move changes only the weights of the moved gate's in- and out-edges,
   so the retimed weights, the count of negative ones and each source's
   chain depth are kept up to date over those edges instead of rescanning
   the graph; only the period check runs a full arrival pass. *)
let deepen g r ~period ~max_lag ~max_regs =
  let n = Graph.num_gates g in
  let edges = g.Graph.edges in
  let w = Array.map (Graph.retimed_weight g r) edges in
  let negative =
    ref (Array.fold_left (fun k x -> if x < 0 then k + 1 else k) 0 w)
  in
  let chain_depth s =
    Array.fold_left (fun d i -> max d w.(i)) 0 g.Graph.fanout_edges.(s)
  in
  let depth = Array.init (Array.length g.Graph.fanout_edges) chain_depth in
  let regs = ref (Array.fold_left ( + ) 0 depth) in
  let shift i d =
    let old = w.(i) in
    w.(i) <- old + d;
    if old < 0 && w.(i) >= 0 then decr negative
    else if old >= 0 && w.(i) < 0 then incr negative
  in
  let restat s =
    let d = chain_depth s in
    regs := !regs - depth.(s) + d;
    depth.(s) <- d
  in
  (* r(v) += d, then refresh the chain depth of every source it touches *)
  let move v d =
    r.(v) <- r.(v) + d;
    let fanin = g.Graph.fanin_edges.(v) and own = g.Graph.gates.(v) in
    Array.iter (fun i -> shift i d) fanin;
    Array.iter (fun i -> shift i (-d)) g.Graph.fanout_edges.(own);
    restat own;
    Array.iter (fun i -> restat edges.(i).Graph.src_node) fanin
  in
  let try_move v =
    if r.(v) >= max_lag then false
    else begin
      move v 1;
      let ok =
        !negative = 0 && !regs <= max_regs
        && period_of g r <= period +. 1e-9
      in
      if not ok then move v (-1) else Obs.Metrics.incr m_deepen_moves;
      ok
    end
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_lag do
    improved := false;
    incr rounds;
    for v = 0 to n - 1 do
      if try_move v then improved := true
    done
  done

(* The paper's "retime" step: minimum-period retiming followed by deepening.
   The deepening budget is the *original* period, matching the observation
   (paper Table 7) that SIS's retimed circuits trade a small delay gain for a
   large register-count increase; the achieved period of the result is
   reported (never worse than the original, usually better). *)
let aggressive g ?(max_lag = 8) ?(max_regs_factor = 6) ?(period_slack = 0.0)
    () =
  let zero = Array.make (Graph.num_gates g) 0 in
  let original_period = period_of g zero in
  let r, _min_p = min_period g in
  let base_regs = max 1 (Graph.total_registers_shared g zero) in
  let r = Array.copy r in
  deepen g r
    ~period:(original_period *. (1.0 +. period_slack))
    ~max_lag
    ~max_regs:(base_regs * max_regs_factor);
  (r, period_of g r)
