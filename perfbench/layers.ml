(* The traced run's copy of one Engine.run call.

   It makes the calls Engine.analyze and Engine.run make, in the same
   order and with the same options, each inside a span named after its
   layer, and keeps the counters the layers expose. The workloads check
   that every result it serializes equals the untraced Engine.run result
   of the same operation, so the trace measures the same program.

   Engine.run's own residue (the statistics read, the plan-cache lookup
   and the root sort on pos) has no call of its own to wrap; it is the
   self time of the "engine.run" span. Of Engine.prepared_of the copy
   leaves out label_plan, which names plan nodes for the profile's
   buckets and is not exported; it runs Physical.run unprofiled, as the
   untraced Engine.run does, and takes the Algebra.Profile counters from
   a separate untimed Engine.run ~with_profile:true ({!profile}). *)

let opts = { Engine.default_opts with Engine.jobs = 1 }

type prepared = {
  optimized : Algebra.Plan.node;
  physical : Algebra.Physical.pnode;
  pos_sorted : bool;
  sorts_elided : int;
}

type counters = {
  mutable compiles : int;
  mutable raw_ops : int;
  mutable opt_ops : int;
  mutable rewrite_rounds : int;
  mutable rewrite_fires : int;
  mutable kernels : int;
  mutable runs : int;
  mutable rows_out : int;
  mutable result_bytes : int;
  mutable hits : int;
  mutable misses : int;
  prof : Algebra.Profile.phys;  (* summed over runs *)
  profiles : (string, Algebra.Profile.phys) Hashtbl.t;  (* by query text *)
}

let counters () =
  { compiles = 0; raw_ops = 0; opt_ops = 0; rewrite_rounds = 0;
    rewrite_fires = 0; kernels = 0; runs = 0; rows_out = 0; result_bytes = 0;
    hits = 0; misses = 0;
    prof = Algebra.Profile.phys (Algebra.Profile.create ());
    profiles = Hashtbl.create 64 }

let add_phys (acc : Algebra.Profile.phys) (p : Algebra.Profile.phys) =
  acc.kernels <- acc.kernels + p.kernels;
  acc.rows_in <- acc.rows_in + p.rows_in;
  acc.rows_out <- acc.rows_out + p.rows_out;
  acc.mat_forced <- acc.mat_forced + p.mat_forced;
  acc.sorts_elided <- acc.sorts_elided + p.sorts_elided;
  acc.sorts_to_merges <- acc.sorts_to_merges + p.sorts_to_merges;
  acc.root_sort_elided <- acc.root_sort_elided + p.root_sort_elided;
  acc.code_preds <- acc.code_preds + p.code_preds;
  acc.bulk_decodes <- acc.bulk_decodes + p.bulk_decodes;
  acc.late_materializations <-
    acc.late_materializations + p.late_materializations

(* Engine.analyze: compile -> CDA -> rewrite -> CDA -> rewrite. *)
let analyze tr c ~stats text =
  let core =
    Trace.span tr "xquery.parse" (fun () ->
        Engine.parse_and_normalize ?mode:opts.mode text)
  in
  let cfg =
    { (Exrquy.Compile.default_cfg ()) with
      Exrquy.Compile.unordered_rules = opts.unordered_rules;
      hoist = opts.hoist;
      join_rec = opts.join_rec;
      join_isolation = opts.join_isolation }
  in
  let _, raw =
    Trace.span tr "core.compile" (fun () -> Exrquy.Compile.compile_core ~cfg core)
  in
  let cda p =
    if not opts.cda then p
    else Trace.span tr "core.icols" (fun () -> Exrquy.Icols.optimize cfg.b p)
  in
  let rewrite p =
    Trace.span tr "algebra.rewrite" (fun () ->
        Algebra.Rewrite.optimize ~order_props:opts.order_props
          ~join_isolation:opts.join_isolation ~stats cfg.b p)
  in
  let id (n : Algebra.Plan.node) = n.Algebra.Plan.id in
  let o0 = cda raw in
  let o2, rstats =
    if not opts.rewrite then (o0, [])
    else begin
      let o1, s1 = rewrite o0 in
      let o1 = if id o1 <> id o0 then cda o1 else o1 in
      let o2, s2 = rewrite o1 in
      let o2 = if id o2 <> id o1 then cda o2 else o2 in
      (o2, [ s1; s2 ])
    end
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 rstats in
  let sort_elisions =
    sum (fun (s : Algebra.Rewrite.stats) ->
        Option.value ~default:0 (List.assoc_opt "sort-elision" s.fires))
  in
  c.compiles <- c.compiles + 1;
  c.raw_ops <- c.raw_ops + Algebra.Plan.count_ops raw;
  c.opt_ops <- c.opt_ops + Algebra.Plan.count_ops o2;
  c.rewrite_rounds <-
    c.rewrite_rounds + sum (fun (s : Algebra.Rewrite.stats) -> s.rounds);
  c.rewrite_fires <- c.rewrite_fires + sum Algebra.Rewrite.total_fires;
  (o2, sort_elisions)

(* Engine's prepared_of for the compiled, physical backend. *)
let prepare tr c ~stats text =
  let optimized, sorts_elided = analyze tr c ~stats text in
  let physical =
    Trace.span tr "engine.lower" (fun () ->
        Engine.lower_physical ~stats ~order_props:opts.order_props optimized)
  in
  c.kernels <- c.kernels + Algebra.Lower.count_kernels physical;
  let pos_sorted =
    opts.order_props
    && Algebra.Order.satisfies (Algebra.Order.make ()) optimized
         [ ("pos", Algebra.Plan.Asc) ]
  in
  { optimized; physical; pos_sorted; sorts_elided }

(* Engine's items_of_table: the root sort on pos, skipped when the plan
   proved pos-order. *)
let items_of_table ~pos_sorted t =
  let n = Algebra.Table.nrows t in
  if pos_sorted then List.init n (fun i -> Algebra.Table.get t "item" i)
  else
    List.init n (fun i ->
        ( Algebra.Value.int_value (Algebra.Table.get t "pos" i),
          Algebra.Table.get t "item" i ))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd

type cache = prepared Engine.Plan_cache.t

let create_cache () : cache = Engine.Plan_cache.create ~capacity:64

(* One operation; returns the serialized result. *)
let run tr c ?cache store text =
  Trace.span tr "engine.run" (fun () ->
      let stats = Engine.stats_of_store store in
      let build () =
        c.misses <- c.misses + 1;
        Trace.span tr "engine.prepare" (fun () -> prepare tr c ~stats text)
      in
      let p =
        match cache with
        | None -> build ()
        | Some cache ->
          let key =
            Engine.opts_fingerprint opts ^ "\x00"
            ^ Engine.Plan_cache.normalize_query text
          in
          (match Engine.Plan_cache.find cache key with
           | Some p -> c.hits <- c.hits + 1; p
           | None ->
             let p = build () in
             Engine.Plan_cache.add cache key p;
             p)
      in
      let table =
        Trace.span tr "physical.exec" (fun () ->
            Algebra.Physical.run ~step_impl:opts.step_impl
              ~mode:opts.eval_mode ~jobs:opts.jobs ~code_eval:opts.code_eval
              store p.physical)
      in
      let items = items_of_table ~pos_sorted:p.pos_sorted table in
      let serialized =
        Trace.span tr "engine.serialize" (fun () ->
            Interp.Xdm.serialize store items)
      in
      c.runs <- c.runs + 1;
      c.rows_out <- c.rows_out + Algebra.Table.nrows table;
      c.result_bytes <- c.result_bytes + String.length serialized;
      serialized)

(* The Algebra.Profile counters of one operation, outside every span: an
   Engine.run ~with_profile:true on [store] the first time [text] is
   seen, and the same counters again at every later occurrence. They
   describe the plan and the document the query reads, and the
   documents of the workloads do not change during a run (constructed
   fragments are appended beside them), so one profiled run per distinct
   text gives the counters of every run of it. *)
let profile c store text =
  let p =
    match Hashtbl.find_opt c.profiles text with
    | Some p -> p
    | None ->
      let r = Engine.run ~opts ~with_profile:true store text in
      let p = Algebra.Profile.phys (Option.get r.Engine.profile) in
      Hashtbl.add c.profiles text p;
      p
  in
  add_phys c.prof p

(* The per-layer metrics of the in-process layers. Times are per
   operation; plan counts are per compiled plan; execution counts are
   per operation. *)
let metrics tr c =
  let open Common in
  let runs = float_of_int (max 1 c.runs) in
  let plans = float_of_int (max 1 c.compiles) in
  let per_run x = float_of_int x /. runs in
  let per_plan x = float_of_int x /. plans in
  let ms name = Trace.total_ms tr name /. runs in
  let self_ms name =
    match List.assoc_opt name (Trace.by_name tr) with
    | Some (_, _, self) -> self /. runs
    | None -> 0.
  in
  let p = c.prof in
  [ m "xquery.parse_ms" "ms" (ms "xquery.parse");
    m "core.compile_ms" "ms" (ms "core.compile");
    m "core.raw_ops" "count" (per_plan c.raw_ops);
    m "core.icols_ms" "ms" (ms "core.icols");
    m "algebra.rewrite_ms" "ms" (ms "algebra.rewrite");
    m "algebra.rewrite_rounds" "count" (per_plan c.rewrite_rounds);
    m "algebra.rewrite_fires" "count" (per_plan c.rewrite_fires);
    m "algebra.opt_ops" "count" (per_plan c.opt_ops);
    m "engine.lower_ms" "ms" (ms "engine.lower");
    m "physical.kernels" "count" (per_plan c.kernels);
    m "physical.exec_ms" "ms" (ms "physical.exec");
    m "physical.rows_out" "count" (per_run c.rows_out);
    m "profile.kernels" "count" (per_run p.kernels);
    m "profile.rows_in" "count" (per_run p.rows_in);
    m "profile.rows_out" "count" (per_run p.rows_out);
    m "profile.mat_forced" "count" (per_run p.mat_forced);
    m "profile.sorts_elided" "count" (per_run p.sorts_elided);
    m "profile.sorts_to_merges" "count" (per_run p.sorts_to_merges);
    m "profile.root_sort_elided" "count" (per_run p.root_sort_elided);
    m "profile.code_preds" "count" (per_run p.code_preds);
    m "profile.bulk_decodes" "count" (per_run p.bulk_decodes);
    m "profile.late_materializations" "count" (per_run p.late_materializations);
    m "engine.serialize_ms" "ms" (ms "engine.serialize");
    m "engine.result_bytes" "bytes" (per_run c.result_bytes);
    m "engine.residual_ms" "ms" (self_ms "engine.run") ]

let cache_metrics ~hits ~misses =
  let open Common in
  let lookups = hits + misses in
  [ m "plan_cache.hits" "count" (float_of_int hits);
    m "plan_cache.misses" "count" (float_of_int misses);
    m "plan_cache.hit_ratio" "ratio"
      (if lookups > 0 then float_of_int hits /. float_of_int lookups else 0.) ]
