(* Rebuild the xmark-warm references with the reference interpreter
   (Interp.Interpreter) alone; the engine is never called.

     refs.exe [--scale F] [--doc-seed N] [--out PATH]

   Defaults: scale 0.05, the generator's seed 42, and
   perfbench/refs/xmark-warm.txt. Every query is fingerprinted from the
   interpreter's answer except Q9, which takes minutes on the
   interpreter at this scale and is checked by properties instead
   (Check.q9_queries). At scale 0.05 the whole run takes about a
   minute. *)

let () =
  let scale = ref 0.05 and doc_seed = ref 42 in
  let out = ref "perfbench/refs/xmark-warm.txt" in
  Arg.parse
    [ ("--scale", Arg.Set_float scale, "F  XMark scale (default 0.05)");
      ("--doc-seed", Arg.Set_int doc_seed, "N  generator seed (default 42)");
      ("--out", Arg.Set_string out, "PATH  output file") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "refs.exe [--scale F] [--doc-seed N] [--out PATH]";
  let xml = Xmark.Xmark_gen.generate ~seed:!doc_seed ~scale:!scale () in
  let store = Xmldb.Doc_store.create () in
  ignore (Xmldb.Xml_parser.load_document store ~uri:"auction.xml" xml);
  let nodes = Xmldb.Doc_store.total_nodes store in
  let entries =
    List.map
      (fun (name, text) ->
         let t0 = Unix.gettimeofday () in
         let fp =
           if name = "Q9" then Check.q9_reference store
           else Check.reference store text
         in
         Printf.eprintf "%s %.2fs %s\n%!" name (Unix.gettimeofday () -. t0) fp;
         (name, fp))
      Xmark.Xmark_queries.all
  in
  Check.write_refs !out
    ~header:
      [ ("scale", Printf.sprintf "%g" !scale);
        ("doc_seed", string_of_int !doc_seed);
        ("doc_bytes", string_of_int (String.length xml));
        ("nodes", string_of_int nodes) ]
    entries
