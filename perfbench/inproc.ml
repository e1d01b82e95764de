(* The closed loop of the in-process workloads: one client sends the
   next query text to Engine.run as soon as the previous result is
   serialized.

   A run is a warm-up sequence, whose outputs are checked but not timed,
   then the timed sequence. The traced run makes the same operations,
   each once through the traced copy of Engine.run ({!Layers.run}) on a
   shadow store and once through Engine.run itself, and requires the two
   serialized results to be equal. The shadow store is a second copy of
   the documents, so the store the operations run on grows exactly as in
   the untraced run. *)

type op = { name : string; text : string; form : Check.form }

let op ?form (name, text) =
  { name; text; form = Option.value form ~default:(Check.form_of_text text) }

type run = {
  fingerprints : (op * string) list;  (* every operation that completed *)
  failures : (string * string) list;  (* (operation, reason) *)
  attempted : int;
  lat_ms : float array;  (* timed operations that completed *)
  wall_s : float;        (* of the timed sequence *)
  rss_mb : float;        (* VmHWM when the timed sequence ended *)
  cache_stats : Engine.Plan_cache.stats option;  (* of the last operation *)
  trace : (Trace.t * Layers.counters * float) option;
      (* traced run: spans, counters, tracing overhead in % *)
}

let fingerprint store op (r : Engine.result) =
  Check.fingerprint op.form ~serialized:r.serialized ~items:(fun () ->
      List.map (fun it -> Interp.Xdm.serialize store [ it ]) r.items)

let engine_run ?cache store text =
  match Engine.run ?cache ~opts:Layers.opts store text with
  | r -> Ok r
  | exception e ->
    (match Engine.classify_error e with
     | Some err -> Error err.Engine.message
     | None -> raise e)

(* [interleave = (n, f)] calls [f] after every [n] timed operations; the
   time it takes counts neither in a latency nor in [wall_s]. *)
let run ?cache ?shadow ?interleave store ~warm ~timed =
  let traced = Option.is_some shadow in
  let fps = ref [] and failures = ref [] and lats = ref [] in
  let last_stats = ref None in
  let tr = Trace.create () and c = Layers.counters () in
  let tcache = Option.map (fun _ -> Layers.create_cache ()) cache in
  let traced_s = ref 0. and untraced_s = ref 0. in
  let one i op =
    if traced then begin
      Trace.set_op tr i;
      let t0 = Common.now () in
      let tres =
        try Ok (Layers.run tr c ?cache:tcache (Option.get shadow) op.text)
        with e -> Error (Printexc.to_string e)
      in
      let t1 = Common.now () in
      let r = engine_run ?cache store op.text in
      let t2 = Common.now () in
      traced_s := !traced_s +. (t1 -. t0);
      untraced_s := !untraced_s +. (t2 -. t1);
      match tres, r with
      | Ok s, Ok r when String.equal s r.Engine.serialized ->
        Layers.profile c (Option.get shadow) op.text;
        (Ok r, t2 -. t1)
      | Ok _, Ok _ ->
        (Error "traced result differs from the Engine.run result", t2 -. t1)
      | Error m, _ | _, Error m -> (Error m, t2 -. t1)
    end
    else begin
      let t0 = Common.now () in
      let r = engine_run ?cache store op.text in
      (r, Common.now () -. t0)
    end
  in
  let record ~timed i op =
    match one i op with
    | Ok r, dt ->
      if timed then lats := (1000. *. dt) :: !lats;
      last_stats := r.Engine.cache_stats;
      fps := (op, fingerprint store op r) :: !fps
    | Error m, _ -> failures := (op.name, m) :: !failures
  in
  Array.iteri (fun i op -> record ~timed:false i op) warm;
  let t0 = Common.now () in
  let nwarm = Array.length warm in
  let aside = ref 0. in
  Array.iteri
    (fun i op ->
       record ~timed:true (nwarm + i) op;
       match interleave with
       | Some (n, f) when (i + 1) mod n = 0 ->
         let (), dt = Common.time f in
         aside := !aside +. dt
       | _ -> ())
    timed;
  let wall_s = Common.now () -. t0 -. !aside in
  let rss_mb = Common.peak_rss_mb 0 in
  { fingerprints = List.rev !fps;
    failures = List.rev !failures;
    attempted = nwarm + Array.length timed;
    lat_ms = Array.of_list (List.rev !lats);
    wall_s; rss_mb;
    cache_stats = !last_stats;
    trace =
      (if traced then
         Some (tr, c, 100. *. ((!traced_s /. !untraced_s) -. 1.))
       else None) }

(* Operations whose output does not match [expect] (name -> reference
   fingerprint); an operation without a reference is a mismatch too. *)
let mismatches run expect =
  List.filter_map
    (fun (op, fp) ->
       match expect op.name with
       | Some e when String.equal e fp -> None
       | Some e -> Some (Printf.sprintf "%s: got %s, expected %s" op.name fp e)
       | None -> Some (op.name ^ ": no reference"))
    run.fingerprints

let problems run bad =
  List.map (fun (name, m) -> name ^ " failed: " ^ m) run.failures @ bad

let trace_json run = Option.map (fun (tr, _, _) -> Trace.to_json tr) run.trace
