(* What every workload shares: the run's arguments, seeded orders, clocks,
   peak memory, and the result line and results file. *)

type args = { seed : int; seconds : int; trace : bool; results_dir : string }

let now = Basis.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Generated documents, snapshots and server logs live here, inside the
   checkout and outside anything git tracks. *)
let data_dir = ".bench_build/data"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let file_size path = (Unix.stat path).Unix.st_size

(* A seeded permutation (Fisher-Yates over Basis.Prng). *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Basis.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* How many rounds a run makes: --seconds divided by the seconds one
   round takes on the reference host (2-core x86). The count depends on
   --seconds only, never on the speed of the host running it: every
   node-constructing query grows the store for the rest of the process,
   so peak memory is comparable only between runs that make the same
   operations. *)
let rounds_for ~seconds ~round_s =
  max 1 (int_of_float (Float.ceil (float_of_int seconds /. round_s)))

(* [rounds] seeded permutations of [ops], concatenated: every run makes
   the same operations, only their order depends on the seed. *)
let rounds_of rng ops rounds =
  Array.concat (List.init rounds (fun _ -> shuffle rng ops))

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> failwith (path ^ " has no VmHWM line")
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Steal and total ticks of all CPUs from /proc/stat: the share of time
   the host gave this machine's CPUs to someone else. A run's results
   file records it, because on a shared host it explains slow runs. *)
let cpu_ticks () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    (List.nth v 7, List.fold_left ( + ) 0 v)
  | _ -> (0, 0)

let steal_pct (s0, t0) (s1, t1) =
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  else 0.

let git_rev () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic ->
    let r = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when r <> "" -> r
     | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

(* ------------------------------------------------------------- results *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  header : (string * string) list;
      (* workload-specific header fields: scale, document bytes, nodes,
         repetitions *)
  problems : string list;  (* failed operations and wrong outputs *)
  trace_json : string option;  (* the traced run's layers and spans *)
}

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun x ->
          Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
            (Trace.json_string x.name) (num x.value) (Trace.json_string x.unit_))
       ms)

let result_line o =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (metrics_json o.metrics)

(* One results file per run, with the header every results file carries. *)
let write_results (a : args) ~ticks0 o =
  mkdir_p a.results_dir;
  let header =
    [ ("workload", o.workload); ("seed", string_of_int a.seed);
      ("trace", if a.trace then "1" else "0");
      ("seconds", string_of_int a.seconds) ]
    @ o.header
    @ [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", Sys.ocaml_version); ("git_rev", git_rev ());
        ("host_steal_pct",
         Printf.sprintf "%.2f" (steal_pct ticks0 (cpu_ticks ()))) ]
  in
  let path =
    Filename.concat a.results_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" o.workload a.seed
         (if a.trace then 1 else 0))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"header\": {%s},\n\"workload\": %s,\n\"correct\": %b, \"attempted\": %d, \"failed\": %d,\n\"metrics\": {%s},\n\"problems\": [%s]%s}\n"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Trace.json_string k ^ ": " ^ Trace.json_string v)
          header))
    (Trace.json_string o.workload) o.correct o.attempted o.failed
    (metrics_json o.metrics)
    (String.concat ",\n" (List.map Trace.json_string o.problems))
    (match o.trace_json with Some j -> ",\n" ^ j | None -> "");
  close_out oc;
  path

let latency_metrics ~wall_s a =
  [ m "throughput_qps" "ops/s" (float_of_int (Array.length a) /. wall_s);
    m "latency_p50_ms" "ms" (Stats.percentile a 50.);
    m "latency_p99_ms" "ms" (Stats.percentile a 99.) ]

(* The end-to-end metrics every workload reports, in BENCHMARK.json's
   order. Latencies are of the timed operations that completed. *)
let end_to_end ~setup_s ~wall_s ~lat ~rss_mb ~store_ratio =
  (m "setup_s" "s" setup_s :: latency_metrics ~wall_s lat)
  @ [ m "peak_rss_mb" "MB" rss_mb;
      m "store_bytes_per_doc_byte" "ratio" store_ratio ]
