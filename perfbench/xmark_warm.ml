(* xmark-warm: one client cycles XMark Q1-Q20, each round in a new seeded
   order, through Engine.run with a shared plan cache, at jobs = 1, over a
   generated auction document. After the warm-up round every compile is a
   cache hit, so the physical executor and the store do the work.

   Set-up is the storage layer's heavy path: streaming ingest of the
   document file, a snapshot save and a snapshot load; the queries run on
   the loaded store. Outputs are checked against references written by
   the reference interpreter (perfbench/refs.exe). *)

open Common

let refs_path = "perfbench/refs/xmark-warm.txt"

(* One round of the 20 queries takes about 0.47 s at scale 0.05. *)
let round_s = 0.47

let run (a : args) =
  let header, refs = Check.read_refs refs_path in
  let scale = float_of_string (List.assoc "scale" header) in
  let doc_seed = int_of_string (List.assoc "doc_seed" header) in
  let xml = Xmark.Xmark_gen.generate ~seed:doc_seed ~scale () in
  if String.length xml <> int_of_string (List.assoc "doc_bytes" header) then
    failwith
      "perfbench/refs/xmark-warm.txt does not describe the generated \
       document; rebuild it with perfbench/refs.exe";
  mkdir_p data_dir;
  let xml_path = Filename.concat data_dir "xmark-warm.xml" in
  write_file xml_path xml;
  let snapshot = Filename.concat data_dir "xmark-warm.snap" in
  let store, setup_s, storage =
    Probes.setup ~snapshot ~reps:7 [ ("auction.xml", xml_path) ]
  in
  let queries =
    Array.of_list
      (List.map
         (fun (name, text) ->
            Inproc.op ~form:(Check.form_of_fingerprint (List.assoc name refs))
              (name, text))
         Xmark.Xmark_queries.all)
  in
  let rng = Basis.Prng.create a.seed in
  let warm = shuffle rng queries in
  let rounds = rounds_for ~seconds:a.seconds ~round_s in
  let timed = rounds_of rng queries rounds in
  let size0 = Probes.size_of store in
  let cache = Engine.create_cache () in
  let shadow =
    if a.trace then Some (Xmldb.Doc_store.Snapshot.load snapshot) else None
  in
  let r = Inproc.run ~cache ?shadow store ~warm ~timed in
  Report.inproc a ~workload:"xmark-warm"
    ~docs:[ ("auction.xml", xml_path) ]
    ~store ~size0 ~setup_s ~storage ~r
    ~expect:(fun name -> List.assoc_opt name refs)
    ~cache_metrics:(fun _ ->
        let cs = Option.get r.cache_stats in
        Layers.cache_metrics ~hits:cs.hits ~misses:cs.misses)
    ~repetitions:(Printf.sprintf "%d rounds of 20" rounds)
    scale
