(* In-memory spans around the benchmark's calls into each layer.

   A span has a name (the layer call, e.g. "core.icols"), start and end on
   the monotonic clock, the span that was open when it started (0 = none)
   and the operation it belongs to. Spans are only kept in memory; the
   workload writes them out with the results when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  t0 : int64;  (* ns, monotonic *)
  t1 : int64;
}

type t = {
  origin : int64;
  mutable next : int;
  mutable open_ : int list;
  mutable op : int;
  mutable spans : span list;  (* most recent first *)
}

let create () =
  { origin = Basis.Clock.now_ns (); next = 1; open_ = []; op = 0; spans = [] }

let set_op t op = t.op <- op

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> 0 in
  t.open_ <- id :: t.open_;
  let t0 = Basis.Clock.now_ns () in
  let finish () =
    let t1 = Basis.Clock.now_ns () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; parent; op = t.op; t0; t1 } :: t.spans
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.spans

let dur_ms s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6

(* Per span name: (count, total ms, self ms). A span's self time is its
   duration minus the durations of its direct children: children never
   outlive their parent, so they cover disjoint parts of its interval. *)
let by_name t =
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent <> 0 then
         Hashtbl.replace child_ms s.parent
           (dur_ms s
            +. Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent)))
    t.spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let d = dur_ms s in
       let self =
         d -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id)
       in
       let n, tot, slf =
         Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name)
       in
       Hashtbl.replace acc s.name (n + 1, tot +. d, slf +. self))
    t.spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort compare

let total_ms t name =
  match List.assoc_opt name (by_name t) with
  | Some (_, tot, _) -> tot
  | None -> 0.

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The "spans" and "self_ms" members of a results file. *)
let to_json t =
  let rel ns = Int64.to_float (Int64.sub ns t.origin) /. 1e3 in
  let spans =
    List.map
      (fun s ->
         Printf.sprintf
           "{\"id\":%d,\"name\":%s,\"parent\":%d,\"op\":%d,\"start_us\":%.3f,\"end_us\":%.3f}"
           s.id (json_string s.name) s.parent s.op (rel s.t0) (rel s.t1))
      (spans t)
  in
  let layers =
    List.map
      (fun (name, (n, tot, self)) ->
         Printf.sprintf "%s:{\"count\":%d,\"total_ms\":%.6f,\"self_ms\":%.6f}"
           (json_string name) n tot self)
      (by_name t)
  in
  Printf.sprintf "\"layers\":{%s},\n\"spans\":[\n%s\n]"
    (String.concat "," layers)
    (String.concat ",\n" spans)
