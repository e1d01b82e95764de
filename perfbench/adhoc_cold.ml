(* adhoc-cold: one client runs 30 distinct query texts through Engine.run
   without a plan cache, as the xrquy CLI does: XMark Q1-Q20 and the
   queries/*.xq corpus, each round in a new seeded order. The documents
   are tiny (XMark at scale 0.001 as auction.xml, the paper's example as
   t.xml), so parsing, compilation, CDA, rewriting and lowering do most of
   the work.

   Each output is checked against the reference interpreter, run after
   the timed phase on a store of its own built from the same files. *)

open Common

let scale = 0.001

let t_xml = "<a><b><c/><d/></b><c/></a>"

(* One round of the 30 texts takes about 91 ms. *)
let round_s = 0.091

let corpus () =
  let dir = "queries" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xq")
  |> List.sort compare
  |> List.map (fun f ->
      (Filename.chop_suffix f ".xq", read_file (Filename.concat dir f)))

let run (a : args) =
  mkdir_p data_dir;
  let auction = Filename.concat data_dir "adhoc-cold-auction.xml" in
  let t = Filename.concat data_dir "adhoc-cold-t.xml" in
  write_file auction (Xmark.Xmark_gen.generate ~scale ());
  write_file t t_xml;
  let docs = [ ("auction.xml", auction); ("t.xml", t) ] in
  let store, _, storage = Probes.setup ~reps:11 docs in
  let storage =
    if a.trace then
      Probes.snapshot_probe
        ~path:(Filename.concat data_dir "adhoc-cold.snap") store storage
    else storage
  in
  let texts = Array.of_list (List.map Inproc.op (Xmark.Xmark_queries.all @ corpus ())) in
  let rng = Basis.Prng.create a.seed in
  let warm = shuffle rng texts in
  let rounds = rounds_for ~seconds:a.seconds ~round_s in
  let timed = rounds_of rng texts rounds in
  let size0 = Probes.size_of store in
  let shadow = if a.trace then Some (Probes.ingest docs) else None in
  (* The set-up is a few milliseconds, and on a shared host its time
     depends on the moment: it is repeated after every round of the
     timed phase as well, so its median covers the same stretch of time
     as the other metrics. *)
  let ingests = ref [] in
  let reingest () =
    let _, dt = time (fun () -> Probes.ingest docs) in
    ingests := dt :: !ingests
  in
  let r =
    Inproc.run ?shadow ~interleave:(Array.length texts, reingest) store ~warm
      ~timed
  in
  let ingest_s =
    Array.append storage.ingest_s (Array.of_list (List.rev !ingests))
  in
  let storage = { storage with ingest_s } in
  let setup_s = Stats.median storage.ingest_s in
  (* the reference interpreter, on its own copy of the documents *)
  let istore = Probes.ingest docs in
  let expect =
    Array.to_list texts
    |> List.map (fun (op : Inproc.op) -> (op.name, Check.reference istore op.text))
  in
  Report.inproc a ~workload:"adhoc-cold" ~docs ~store ~size0 ~setup_s ~storage
    ~r ~expect:(fun name -> List.assoc_opt name expect)
    (* no plan cache: every operation compiles *)
    ~cache_metrics:(fun c -> Layers.cache_metrics ~hits:0 ~misses:c.misses)
    ~repetitions:(Printf.sprintf "%d rounds of %d" rounds (Array.length texts))
    scale
