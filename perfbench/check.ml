(* Correctness checks: what an operation's output must be, taken from the
   reference interpreter (lib/interp) or from a property of the answer,
   never from an earlier run of the engine.

   An output is reduced to a fingerprint, so a run keeps one short string
   per operation instead of every result, and a check is string
   equality between the fingerprints of the output and of the reference
   answer. *)

let digest s = Digest.to_hex (Digest.string s)

type form =
  | Exact     (* the serialized result, byte for byte *)
  | Multiset  (* the items in any order *)
  | Q9_props  (* XMark Q9's properties, see below *)

(* A query under [unordered { }] or [declare ordering unordered] may
   return its items in any order: it is compared as a multiset. Comments
   [(: ... :)], nested or not, are skipped, so a comment that mentions
   the word changes nothing. *)
let form_of_text text =
  let n = String.length text in
  let b = Buffer.create n in
  let rec code i =
    if i < n then
      if i + 1 < n && text.[i] = '(' && text.[i + 1] = ':' then
        comment (i + 2) 1
      else begin
        (* words apart, and "{" and ";" words of their own *)
        (match text.[i] with
         | ' ' | '\t' | '\n' | '\r' -> Buffer.add_char b ' '
         | ('{' | ';') as ch -> Buffer.add_char b ' '; Buffer.add_char b ch;
           Buffer.add_char b ' '
         | ch -> Buffer.add_char b ch);
        code (i + 1)
      end
  and comment i depth =
    if i + 1 >= n then ()
    else if text.[i] = '(' && text.[i + 1] = ':' then comment (i + 2) (depth + 1)
    else if text.[i] = ':' && text.[i + 1] = ')' then
      if depth = 1 then (Buffer.add_char b ' '; code (i + 2))
      else comment (i + 2) (depth - 1)
    else comment (i + 1) depth
  in
  code 0;
  let words =
    List.filter (( <> ) "") (String.split_on_char ' ' (Buffer.contents b))
  in
  let rec unordered = function
    | "unordered" :: "{" :: _ -> true
    | "declare" :: "ordering" :: "unordered" :: _ -> true
    | _ :: rest -> unordered rest
    | [] -> false
  in
  if unordered words then Multiset else Exact

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* XMark Q9 is too slow for the interpreter at benchmark scale (493 s at
   scale 0.05), so its answer is checked by properties the interpreter
   computes cheaply: one <person> per person, one <item> per closed
   auction bought by a person, and a non-empty <item> exactly for those
   whose item is European. *)
let q9_props serialized =
  Printf.sprintf "q9:%d,%d,%d"
    (count_sub serialized "<person ")
    (count_sub serialized "<item>" + count_sub serialized "<item/>")
    (count_sub serialized "<item>")

let q9_queries =
  [ {|count(doc("auction.xml")/site/people/person)|};
    {|let $a := doc("auction.xml")
      return count($a/site/closed_auctions/closed_auction
                     [buyer/@person = $a/site/people/person/@id])|};
    {|let $a := doc("auction.xml")
      return count($a/site/closed_auctions/closed_auction
                     [buyer/@person = $a/site/people/person/@id]
                     [itemref/@item = $a/site/regions/europe/item/@id])|} ]

(* [items] is only forced for the multiset form. *)
let fingerprint form ~serialized ~items =
  match form with
  | Exact -> "exact:" ^ digest serialized
  | Multiset ->
    "multiset:" ^ digest (String.concat "\x00" (List.sort compare (items ())))
  | Q9_props -> q9_props serialized

let form_of_fingerprint fp =
  if String.starts_with ~prefix:"multiset:" fp then Multiset
  else if String.starts_with ~prefix:"q9:" fp then Q9_props
  else Exact

(* ------------------------------------------------ reference interpreter *)

(* Run [text] on the reference interpreter; the items are serialized the
   way the engine serializes its result, whole and one by one. *)
let interpret store text =
  let items = Interp.Interpreter.run store text in
  ( Interp.Xdm.serialize store items,
    fun () -> List.map (fun it -> Interp.Xdm.serialize store [ it ]) items )

let reference store text =
  let serialized, items = interpret store text in
  fingerprint (form_of_text text) ~serialized ~items

let q9_reference store =
  "q9:"
  ^ String.concat ","
      (List.map (fun q -> String.trim (fst (interpret store q))) q9_queries)

(* ------------------------------------------------------ reference files *)

(* One header line of [# key=value] pairs, then one [name fingerprint]
   line per query. *)

let write_refs path ~header entries =
  let oc = open_out path in
  Printf.fprintf oc "# %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) header));
  List.iter (fun (name, fp) -> Printf.fprintf oc "%s %s\n" name fp) entries;
  close_out oc

let kv_pairs s =
  String.split_on_char ' ' (String.trim s)
  |> List.filter_map (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
        Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
      | None -> None)

let read_refs path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  match lines [] with
  | h :: rest when String.starts_with ~prefix:"#" h ->
    ( kv_pairs (String.sub h 1 (String.length h - 1)),
      List.filter_map
        (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | [ name; fp ] -> Some (name, fp)
           | [ "" ] -> None
           | _ -> failwith ("malformed reference line: " ^ l))
        rest )
  | _ -> failwith ("reference file without header: " ^ path)
