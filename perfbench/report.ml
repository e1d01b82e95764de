(* The end of an in-process workload's run: the output checks, the traced
   run's wire round and the outcome with its metrics. *)

open Common

(* [expect] maps an operation name to its reference fingerprint;
   [cache_metrics] gives the plan-cache figures of a traced run. The
   traced run ends with one round of the serve-mix requests against a
   bin/serve holding [docs]: the server-layer figures come from there. *)
let inproc (a : args) ~workload ~docs ~store ~size0 ~setup_s
    ~(storage : Probes.storage) ~(r : Inproc.run) ~expect ~cache_metrics
    ~repetitions scale =
  let wire = if a.trace then Some (Serve_mix.probe ~seed:a.seed docs) else None in
  let bad =
    Inproc.mismatches r expect
    @ Option.fold ~none:[] ~some:(fun w -> Serve_mix.mismatches w expect) wire
  in
  let wire_failures = Option.fold ~none:[] ~some:Serve_mix.failures wire in
  let metrics =
    match r.trace, wire with
    | Some (tr, c, overhead), Some w ->
      let frags, nodes_appended = Probes.growth store size0 in
      Layers.metrics tr c @ cache_metrics c
      @ Probes.storage_metrics storage ~frags ~nodes_appended
      @ Serve_mix.server_metrics w
      @ [ m "trace.overhead_pct" "%" overhead ]
    | _ ->
      end_to_end ~setup_s ~wall_s:r.wall_s ~lat:r.lat_ms ~rss_mb:r.rss_mb
        ~store_ratio:
          (float_of_int storage.encoded_bytes /. float_of_int storage.doc_bytes)
  in
  { workload;
    correct = bad = [];
    attempted =
      r.attempted
      + Option.fold ~none:0 ~some:(fun w -> w.Serve_mix.attempted) wire;
    failed = List.length r.failures + List.length wire_failures;
    metrics;
    header =
      [ ("scale", Printf.sprintf "%g" scale);
        ("doc_bytes", string_of_int storage.doc_bytes);
        ("nodes", string_of_int storage.nodes);
        ("repetitions", repetitions) ];
    problems = Inproc.problems r bad @ wire_failures;
    trace_json = Inproc.trace_json r }
