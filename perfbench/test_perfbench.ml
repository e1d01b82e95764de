(* The benchmark's own tests: its order statistics, its output checks and
   its accounting of wire replies. *)

let close = Alcotest.float 1e-9

let stats_known_answers () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile hundred 50.);
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile hundred 99.);
  Alcotest.check close "p100 of 1..100" 100. (Stats.percentile hundred 100.);
  let thousand = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  (* ten samples lie beyond the p99 of 1000 *)
  Alcotest.check close "p99 of 1000 samples" 990.
    (Stats.percentile thousand 99.);
  Alcotest.check close "percentile of one sample" 7. (Stats.percentile [| 7. |] 99.);
  Alcotest.check close "median, odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check close "median, even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.median: no samples")
    (fun () -> ignore (Stats.median [||]))

let store () =
  let st = Xmldb.Doc_store.create () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"t.xml"
       "<a><b><c/><d/></b><c/></a>");
  st

let engine_fingerprint st text =
  let r = Engine.run ~opts:Layers.opts st text in
  Check.fingerprint (Check.form_of_text text) ~serialized:r.Engine.serialized
    ~items:(fun () -> List.map (fun it -> Interp.Xdm.serialize st [ it ]) r.items)

let check_detects_corruption () =
  let st = store () in
  let text = {|doc("t.xml")//(c|d)|} in
  let expected = Check.reference st text in
  Alcotest.(check string) "engine output matches the interpreter" expected
    (engine_fingerprint st text);
  let serialized = Engine.run_to_string st text in
  let corrupted = String.map (fun ch -> if ch = 'd' then 'e' else ch) serialized in
  Alcotest.(check bool) "a corrupted output fails" false
    (Check.fingerprint Check.Exact ~serialized:corrupted ~items:(fun () -> [])
     = expected);
  Alcotest.(check bool) "a truncated output fails" false
    (Check.fingerprint Check.Exact
       ~serialized:(String.sub serialized 0 (String.length serialized - 1))
       ~items:(fun () -> [])
     = expected)

let multiset_ignores_order_only () =
  let text = {|unordered { doc("t.xml")//(c|d) }|} in
  Alcotest.(check bool) "an unordered query is compared as a multiset" true
    (Check.form_of_text text = Check.Multiset);
  List.iter
    (fun (form, text) ->
       Alcotest.(check bool) text true (Check.form_of_text text = form))
    [ (Check.Multiset, "unordered{ 1, 2 }");
      (Check.Multiset, "declare ordering unordered;\n(1, 2)");
      (Check.Exact, "(: run it with --mode unordered :) (1, 2)");
      (Check.Exact, "(: (: nested :) unordered { :) (1, 2)");
      (Check.Exact, "ordered { 1, 2 }") ];
  let st = store () in
  let expected = Check.reference st text in
  Alcotest.(check string) "engine output matches the interpreter" expected
    (engine_fingerprint st text);
  let fp items =
    Check.fingerprint Check.Multiset ~serialized:"" ~items:(fun () -> items)
  in
  Alcotest.(check string) "any permutation passes"
    (fp [ "<c/>"; "<d/>"; "<c/>" ]) (fp [ "<c/>"; "<c/>"; "<d/>" ]);
  Alcotest.(check bool) "a changed item fails" false
    (fp [ "<c/>"; "<d/>"; "<c/>" ] = fp [ "<c/>"; "<d/>"; "<d/>" ])

let q9_properties () =
  let out = {|<person name="A"><item>x</item><item/></person><person name="B"/>|} in
  Alcotest.(check string) "counts" "q9:2,2,1" (Check.q9_props out);
  Alcotest.(check bool) "a lost item fails" false
    (Check.q9_props {|<person name="A"><item>x</item></person><person name="B"/>|}
     = Check.q9_props out)

let wire_replies () =
  let t = Wire.tally () in
  Wire.record t ~query:"Q1" ~latency_s:0.002 "OK 1 <a/>";
  Wire.record t ~query:"Q1" ~latency_s:0.002 "ERR resource 3 server overloaded";
  Wire.record t ~query:"Q2" ~latency_s:0.002 "ERR dynamic 1 boom";
  Wire.record t ~query:"Q2" ~latency_s:0.002 "PONG";
  Wire.record t ~query:"Q2" ~latency_s:0.002 "garbage";
  Alcotest.(check int) "one completed" 1 (List.length t.Wire.lat_ms);
  Alcotest.(check int) "every other reply failed" 4 (List.length t.Wire.failures);
  Alcotest.(check (list string)) "only the OK output is checked" [ "Q1" ]
    (List.map fst t.Wire.fps);
  Alcotest.(check string) "escaped payloads are decoded"
    (Check.fingerprint Check.Exact ~serialized:"a b\nc" ~items:(fun () -> []))
    (match Wire.payload_of_reply (Server.Protocol.ok_payload ~n:1 "a b\nc") with
     | Ok s -> Check.fingerprint Check.Exact ~serialized:s ~items:(fun () -> [])
     | Error m -> m)

let () =
  Alcotest.run "perfbench"
    [ ("stats", [ Alcotest.test_case "known answers" `Quick stats_known_answers ]);
      ( "check",
        [ Alcotest.test_case "corrupted output fails" `Quick check_detects_corruption;
          Alcotest.test_case "multiset" `Quick multiset_ignores_order_only;
          Alcotest.test_case "q9 properties" `Quick q9_properties ] );
      ("wire", [ Alcotest.test_case "non-OK replies fail" `Quick wire_replies ]) ]
