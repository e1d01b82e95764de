(* The benchmark: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--results DIR]

   Run it through perfbench/run.sh, which builds it first. The last line
   of standard output is the result: whether every output was correct,
   operations attempted and failed, and the end-to-end metrics (--trace
   0) or the per-layer metrics (--trace 1). The same figures, a header
   describing the run and, for a traced run, its spans go to a results
   file in DIR (default .bench_build/results). *)

let workloads =
  [ ("xmark-warm", Xmark_warm.run); ("adhoc-cold", Adhoc_cold.run);
    ("serve-mix", Serve_mix.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (xmark-warm|adhoc-cold|serve-mix) --seed N \
     --seconds S --trace 0|1 [--results DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and results_dir = ref ".bench_build/results" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--results" :: v :: rest -> results_dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* a server that dies mid-run fails the operations in flight; it must
     not take the benchmark down with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.assoc_opt !workload workloads, !seed, !seconds, !trace with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0 ->
    let args = { Common.seed; seconds; trace; results_dir = !results_dir } in
    let ticks0 = Common.cpu_ticks () in
    let o = run args in
    List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) o.Common.problems;
    let path = Common.write_results args ~ticks0 o in
    Printf.eprintf "perfbench: results in %s\n%!" path;
    print_endline (Common.result_line o)
  | _ -> usage ()
