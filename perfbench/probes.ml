(* Storage and server measurements shared by the workloads. *)

open Common

(* Stream [path] into a fresh store under [uri] (Xml_parser.load_file:
   XML parse and freeze). *)
let ingest docs =
  let store = Xmldb.Doc_store.create () in
  List.iter
    (fun (uri, path) -> ignore (Xmldb.Xml_parser.load_file store ~uri path))
    docs;
  store

type storage = {
  ingest_s : float array;  (* one per set-up repetition *)
  save_s : float array;    (* empty when the set-up makes no snapshot *)
  load_s : float array;
  snapshot_bytes : int;
  doc_bytes : int;
  encoded_bytes : int;     (* of the store the operations run on *)
  nodes : int;
}

(* Ingest [docs] [reps] times and, with [snapshot], save the store to
   that file and load it back; the operations run on the last store made.
   Returns that store, the median set-up seconds and the storage
   figures. *)
let setup ?snapshot ~reps docs =
  let doc_bytes = List.fold_left (fun a (_, p) -> a + file_size p) 0 docs in
  let last = ref None in
  let reps =
    Array.init reps (fun _ ->
        last := None;
        let t0 = now () in
        let st = ingest docs in
        let t1 = now () in
        let st, snap =
          match snapshot with
          | None -> (st, None)
          | Some path ->
            Xmldb.Doc_store.Snapshot.save st path;
            let t2 = now () in
            let st = Xmldb.Doc_store.Snapshot.load path in
            (st, Some (t2 -. t1, now () -. t2))
        in
        let total = now () -. t0 in
        last := Some st;
        (total, t1 -. t0, snap))
  in
  let store = Option.get !last in
  let col f = Array.of_list (List.filter_map f (Array.to_list reps)) in
  let storage =
    { ingest_s = col (fun (_, i, _) -> Some i);
      save_s = col (fun (_, _, s) -> Option.map fst s);
      load_s = col (fun (_, _, s) -> Option.map snd s);
      snapshot_bytes = (match snapshot with Some p -> file_size p | None -> 0);
      doc_bytes;
      encoded_bytes = Xmldb.Doc_store.encoded_bytes store;
      nodes = Xmldb.Doc_store.total_nodes store }
  in
  (store, Stats.median (col (fun (t, _, _) -> Some t)), storage)

(* A snapshot save and load of [store] outside the set-up, for workloads
   whose set-up makes none: the storage layer's cost on their store. *)
let snapshot_probe ~path store (s : storage) =
  let (), save = time (fun () -> Xmldb.Doc_store.Snapshot.save store path) in
  let _, load = time (fun () -> Xmldb.Doc_store.Snapshot.load path) in
  { s with save_s = [| save |]; load_s = [| load |];
           snapshot_bytes = file_size path }

let storage_metrics (s : storage) ~frags ~nodes_appended =
  let ms a = 1000. *. Stats.median a in
  [ m "store.ingest_ms" "ms" (ms s.ingest_s);
    m "store.ingest_mb_s" "MB/s"
      (float_of_int s.doc_bytes /. 1e6 /. Stats.median s.ingest_s);
    m "store.snapshot_save_ms" "ms" (ms s.save_s);
    m "store.snapshot_load_ms" "ms" (ms s.load_s);
    m "store.snapshot_bytes" "bytes" (float_of_int s.snapshot_bytes);
    m "store.encoded_bytes" "bytes" (float_of_int s.encoded_bytes);
    m "store.frags_appended" "count" (float_of_int frags);
    m "store.nodes_appended" "count" (float_of_int nodes_appended) ]

(* Fragments and nodes a run appended to [store] since [before]. *)
let growth store (frags0, nodes0) =
  ( Xmldb.Doc_store.n_frags store - frags0,
    Xmldb.Doc_store.total_nodes store - nodes0 )

let size_of store =
  (Xmldb.Doc_store.n_frags store, Xmldb.Doc_store.total_nodes store)

(* ---------------------------------------------------------------- server *)

let pings = 200

(* Median PING round trip on [c], in ms: the wire and acceptor path with
   no engine work. *)
let ping_ms c =
  let a =
    Array.init pings (fun _ ->
        let t0 = now () in
        let r = Wire.rpc c "PING" in
        if r <> "PONG" then failwith ("PING answered " ^ r);
        1000. *. (now () -. t0))
  in
  Stats.median a

let server_metrics ~ping ~queue_depth kvs =
  let i k = float_of_int (Wire.stat_int kvs k) in
  let lookups = i "cache_hits" +. i "cache_misses" in
  [ m "server.ping_ms" "ms" ping;
    m "server.queue_depth" "count" queue_depth;
    m "server.admitted" "count" (i "admitted");
    m "server.completed" "count" (i "completed");
    m "server.cache_hit_ratio" "ratio"
      (if lookups > 0. then i "cache_hits" /. lookups else 0.);
    m "server.pool_contended" "count" (i "pool_contended") ]
