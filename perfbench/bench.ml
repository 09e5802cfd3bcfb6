(* The benchmark program.  perfbench/run.py builds it and runs

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --out DIR --fixtures DIR --satpg PATH

   which prints one JSON result line last on stdout and exits 0 when
   every output check passed, 1 when one failed, 2 when the run could
   not be made.  [bench.exe --regen-fixtures DIR] rewrites the
   atpg_pairs fixture files from Core.Flow. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload flow_build|atpg_pairs|serve_replay --seed N \
     --seconds S --trace 0|1 --out DIR --fixtures DIR --satpg PATH\n\
    \       bench.exe --regen-fixtures DIR";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  (* every budget and mode the engines read from the environment must be
     the default one *)
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "bench: unset %s before running the benchmark\n" v;
        exit 2
      end)
    [ "SATPG_BUDGET"; "SATPG_LEARN"; "SATPG_STORE" ];
  (* one job everywhere: the Exec.Pool inline path *)
  Exec.Pool.set_jobs 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Hashtbl.find_opt args "regen-fixtures" with
  | Some dir -> Atpg_pairs.regen ~dir
  | None -> (
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let out = get "out" in
    Obs.Fileio.mkdir_p out;
    match
      match get "workload" with
      | "flow_build" -> Flow_build.run ~seed ~seconds ~trace ~out
      | "atpg_pairs" ->
        Atpg_pairs.run ~seed ~seconds ~trace ~out ~fixtures:(get "fixtures")
      | "serve_replay" ->
        Serve_replay.run ~seed ~seconds ~trace ~out ~fixtures:(get "fixtures")
          ~satpg:(get "satpg")
      | _ -> usage ()
    with
    | correct, attempted, failed, metrics ->
      Common.print_result ~correct ~attempted ~failed metrics;
      exit (if correct then 0 else 1)
    | exception e ->
      Printf.eprintf "bench: %s\n%s" (Printexc.to_string e)
        (Printexc.get_backtrace ());
      exit 2)
