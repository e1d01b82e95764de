(* serve-mix: the real bin/serve as a child process, 2 workers, and two
   closed-loop client connections sending Q requests over loopback.

   Each client repeats rounds of 40 requests in a seeded order: the
   read-only queries Q1, Q5, Q6, Q7, Q14 and Q18 five times each, which
   take the shared side of the store lock, and the node-constructing
   queries Q2, Q13, Q15, Q17 and Q20 twice each, which take the exclusive
   side and append fragments to the shared store: reads and writes in a
   3:1 mix. The protocol, admission, sessions, the store lock and the
   shared plan cache are all on the path.

   Each reply is checked against the reference interpreter, run after the
   timed phase on the benchmark's own copy of the document.

   The traced runs of the in-process workloads also run one round of this
   mix against a server holding their own documents ({!probe}): that is
   where their server-layer figures come from. *)

open Common

let scale = 0.05
let workers = 2
let clients = 2

let reads = [ "Q1"; "Q5"; "Q6"; "Q7"; "Q14"; "Q18" ]
let writes = [ "Q2"; "Q13"; "Q15"; "Q17"; "Q20" ]

let round =
  Array.of_list
    (List.concat_map (fun q -> List.init 5 (fun _ -> q)) reads
     @ List.concat_map (fun q -> [ q; q ]) writes)

(* With both clients running, one client's round of 40 requests takes
   about 0.67 s (the server completes about 120 requests per second). *)
let round_s = 0.67

let log = Filename.concat data_dir "serve.log"

let spawn docs =
  Wire.spawn ~log
    (List.concat_map (fun (uri, path) -> [ "-d"; uri ^ "=" ^ path ]) docs
     @ [ "--workers"; string_of_int workers; "--jobs"; "1" ])

(* One closed-loop client: send, wait for the reply, send the next. *)
let client port ops =
  let c = Wire.tally () in
  let conn = Wire.connect port in
  Array.iter
    (fun q ->
       let line = Wire.query_line (Xmark.Xmark_queries.get q) in
       let t0 = now () in
       match Wire.rpc conn line with
       | reply -> Wire.record c ~query:q ~latency_s:(now () -. t0) reply
       | exception ((End_of_file | Sys_error _) as e) ->
         c.Wire.failures <- (q, Printexc.to_string e) :: c.Wire.failures)
    ops;
  Wire.close conn;
  c

(* Poll STATS on a connection of its own until [stop]; the mean sampled
   admission-queue depth. *)
let sample_queue_depth port stop =
  let conn = Wire.connect port in
  let rec poll acc =
    let acc = float_of_int (Wire.stat_int (Wire.stats conn) "queue_depth") :: acc in
    if Atomic.get stop then acc else (Thread.delay 0.01; poll acc)
  in
  let samples = poll [] in
  Wire.close conn;
  Stats.mean (Array.of_list samples)

type phase = {
  tallies : Wire.tally list;  (* the warm-up pass first, then the clients *)
  attempted : int;
  seqs : string array list;   (* each client's timed requests *)
  wall_s : float;             (* of the timed requests *)
  rss_mb : float;             (* the server's VmHWM when they ended *)
  ping_ms : float;            (* traced only *)
  queue_depth : float;        (* traced only *)
  stats : (string * string) list;  (* STATS after the timed requests *)
}

(* A warm-up pass over the distinct queries, then [rounds] seeded rounds
   per client, all clients at once. *)
let phase (server : Wire.server) ~seed ~rounds ~traced =
  let port = server.port in
  let rng = Basis.Prng.create seed in
  let distinct = reads @ writes in
  let warm = client port (Array.of_list distinct) in
  let seqs = List.init clients (fun _ -> rounds_of rng round rounds) in
  let ping_ms =
    if traced then begin
      let c = Wire.connect port in
      let p = Probes.ping_ms c in
      Wire.close c;
      p
    end
    else 0.
  in
  let stop = Atomic.make false and depth = ref 0. in
  let sampler =
    if traced then
      Some
        (Thread.create (fun () -> depth := sample_queue_depth port stop) ())
    else None
  in
  let t0 = now () in
  let results = Array.make clients (Wire.tally ()) in
  let threads =
    List.mapi
      (fun i ops -> Thread.create (fun () -> results.(i) <- client port ops) ())
      seqs
  in
  List.iter Thread.join threads;
  let wall_s = now () -. t0 in
  let rss_mb = peak_rss_mb server.pid in
  Atomic.set stop true;
  Option.iter Thread.join sampler;
  let c = Wire.connect port in
  let stats = Wire.stats c in
  Wire.close c;
  { tallies = warm :: Array.to_list results;
    attempted =
      List.length distinct
      + List.fold_left (fun n s -> n + Array.length s) 0 seqs;
    seqs; wall_s; rss_mb; ping_ms; queue_depth = !depth; stats }

(* Replies that differ from [expect] (query -> reference fingerprint). *)
let mismatches p expect =
  List.concat_map
    (fun t ->
       List.filter_map
         (fun (q, fp) ->
            if expect q = Some fp then None
            else Some (Printf.sprintf "%s over the wire: got %s" q fp))
         t.Wire.fps)
    p.tallies

let failures p =
  List.concat_map
    (fun t -> List.map (fun (q, m) -> q ^ " failed: " ^ m) t.Wire.failures)
    p.tallies

let server_metrics p =
  Probes.server_metrics ~ping:p.ping_ms ~queue_depth:p.queue_depth p.stats

(* One round of the mix per client against a server holding [docs]. *)
let probe ~seed docs =
  let server = spawn docs in
  Fun.protect ~finally:(fun () -> Wire.stop server) (fun () ->
      phase server ~seed ~rounds:1 ~traced:true)

let run (a : args) =
  mkdir_p data_dir;
  if Sys.file_exists log then Sys.remove log;
  let xml_path = Filename.concat data_dir "serve-mix.xml" in
  write_file xml_path (Xmark.Xmark_gen.generate ~scale ());
  let docs = [ ("auction.xml", xml_path) ] in
  (* set-up five times, from spawn until the server listens; the
     requests go to the last server *)
  let rec setups n acc =
    let s, dt = time (fun () -> spawn docs) in
    if n = 1 then (s, Stats.median (Array.of_list (dt :: acc)))
    else (Wire.stop s; setups (n - 1) (dt :: acc))
  in
  let server, setup_s = setups 5 [] in
  let p =
    Fun.protect ~finally:(fun () -> Wire.stop server) (fun () ->
        phase server ~seed:a.seed ~traced:a.trace
          ~rounds:(rounds_for ~seconds:a.seconds ~round_s))
  in
  (* the reference interpreter, on the benchmark's own copy *)
  let own, _, storage = Probes.setup ~reps:1 docs in
  let expect =
    List.map
      (fun q -> (q, Check.reference own (Xmark.Xmark_queries.get q)))
      (reads @ writes)
  in
  let bad = mismatches p (fun q -> List.assoc_opt q expect) in
  let lat =
    Array.of_list (List.concat_map (fun t -> t.Wire.lat_ms) (List.tl p.tallies))
  in
  let metrics, trace_json =
    if not a.trace then
      ( end_to_end ~setup_s ~wall_s:p.wall_s ~lat ~rss_mb:p.rss_mb
          ~store_ratio:
            (float_of_int storage.encoded_bytes /. float_of_int storage.doc_bytes),
        None )
    else begin
      (* The engine layers run inside the server process, out of reach of
         the benchmark's spans: replay client 0's first round in-process,
         with a shared plan cache as a server worker has, on the
         benchmark's own copy. *)
      let storage =
        Probes.snapshot_probe
          ~path:(Filename.concat data_dir "serve-mix.snap") own storage
      in
      let replay =
        Array.map
          (fun q -> Inproc.op (q, Xmark.Xmark_queries.get q))
          (Array.sub (List.hd p.seqs) 0 (Array.length round))
      in
      let size0 = Probes.size_of own in
      let r =
        Inproc.run ~cache:(Engine.create_cache ()) ~shadow:(Probes.ingest docs)
          own ~warm:[||] ~timed:replay
      in
      let frags, nodes_appended = Probes.growth own size0 in
      let tr, c, overhead = Option.get r.trace in
      ( Layers.metrics tr c
        @ Layers.cache_metrics
            ~hits:(Wire.stat_int p.stats "cache_hits")
            ~misses:(Wire.stat_int p.stats "cache_misses")
        @ Probes.storage_metrics storage ~frags ~nodes_appended
        @ server_metrics p
        @ [ m "trace.overhead_pct" "%" overhead ],
        Inproc.trace_json r )
    end
  in
  { workload = "serve-mix";
    correct = bad = [];
    attempted = p.attempted;
    failed = List.length (failures p);
    metrics;
    header =
      [ ("scale", Printf.sprintf "%g" scale);
        ("doc_bytes", string_of_int storage.doc_bytes);
        ("nodes", string_of_int storage.nodes);
        ("repetitions",
         Printf.sprintf "%d clients x %d rounds of %d" clients
           (Array.length (List.hd p.seqs) / Array.length round)
           (Array.length round)) ];
    problems = failures p @ bad;
    trace_json }
