open Bbx_rules

let paper_rule_2003296 =
  "alert tcp $EXTERNAL_NET $HTTP_PORTS -> $HOME_NET 1025:5000 ( \
   flow: established,from_server; \
   content: \"Server|3a| nginx/0.\"; offset: 17; depth: 19; \
   content: \"Content-Type|3a| text/html\"; \
   content: \"|3a|80|3b|255.255.255.255\"; sid:2003296; )"

let parser_tests =
  [ Alcotest.test_case "parses the paper's example rule" `Quick (fun () ->
        let r = Parser.parse_rule paper_rule_2003296 in
        Alcotest.(check int) "three contents" 3 (List.length r.Rule.contents);
        let c1 = List.nth r.Rule.contents 0 in
        Alcotest.(check string) "hex decoded" "Server: nginx/0." c1.Rule.pattern;
        Alcotest.(check (option int)) "offset" (Some 17) c1.Rule.offset;
        Alcotest.(check (option int)) "depth" (Some 19) c1.Rule.depth;
        Alcotest.(check string) "binary content" ":80;255.255.255.255"
          (List.nth r.Rule.contents 2).Rule.pattern;
        Alcotest.(check (option int)) "sid" (Some 2003296) r.Rule.sid;
        Alcotest.(check (option string)) "flow" (Some "established,from_server") r.Rule.flow);
    Alcotest.test_case "render/parse round trip" `Quick (fun () ->
        let r = Parser.parse_rule paper_rule_2003296 in
        let r2 = Parser.parse_rule (Rule.to_string r) in
        Alcotest.(check string) "stable" (Rule.to_string r) (Rule.to_string r2));
    Alcotest.test_case "pcre option" `Quick (fun () ->
        let r =
          Parser.parse_rule
            "alert tcp any any -> any any (content:\"login\"; pcre:\"/user=[^&]{50,}/i\"; sid:7;)"
        in
        Alcotest.(check (option string)) "pcre" (Some "/user=[^&]{50,}/i") r.Rule.pcre);
    Alcotest.test_case "semicolons inside quotes" `Quick (fun () ->
        let r =
          Parser.parse_rule "alert tcp any any -> any any (msg:\"a;b\"; content:\"x;y;z;abc\";)"
        in
        Alcotest.(check (option string)) "msg" (Some "a;b") r.Rule.msg;
        Alcotest.(check string) "content" "x;y;z;abc" (List.hd r.Rule.contents).Rule.pattern);
    Alcotest.test_case "nocase attaches to preceding content" `Quick (fun () ->
        let r =
          Parser.parse_rule
            "alert tcp any any -> any any (content:\"AAA\"; content:\"BBB\"; nocase;)"
        in
        Alcotest.(check bool) "first not nocase" false (List.nth r.Rule.contents 0).Rule.nocase;
        Alcotest.(check bool) "second nocase" true (List.nth r.Rule.contents 1).Rule.nocase);
    Alcotest.test_case "syntax errors" `Quick (fun () ->
        let bad s = match Parser.parse_rule s with
          | exception Parser.Syntax_error _ -> true
          | _ -> false
        in
        Alcotest.(check bool) "no paren" true (bad "alert tcp any any -> any any");
        Alcotest.(check bool) "bad action" true (bad "alart tcp any any -> any any ()");
        Alcotest.(check bool) "short header" true (bad "alert tcp any -> any ()");
        Alcotest.(check bool) "modifier before content" true
          (bad "alert tcp any any -> any any (offset:3; content:\"x\";)"));
    Alcotest.test_case "ruleset skips comments and blanks" `Quick (fun () ->
        let rules = Parser.parse_ruleset
            ("# comment\n\n" ^ paper_rule_2003296 ^ "\n# another\n") in
        Alcotest.(check int) "one rule" 1 (List.length rules));
  ]

let classify_tests =
  [ Alcotest.test_case "single keyword = Protocol I" `Quick (fun () ->
        let r = Rule.make [ Rule.make_content "watermark-xyz" ] in
        Alcotest.(check bool) "I" true (Classify.classify r = Classify.Protocol_I));
    Alcotest.test_case "offsets push to Protocol II" `Quick (fun () ->
        let r = Rule.make [ Rule.make_content ~offset:4 "keyword1" ] in
        Alcotest.(check bool) "II" true (Classify.classify r = Classify.Protocol_II));
    Alcotest.test_case "multiple keywords = Protocol II" `Quick (fun () ->
        let r = Rule.make [ Rule.make_content "aaaa"; Rule.make_content "bbbb" ] in
        Alcotest.(check bool) "II" true (Classify.classify r = Classify.Protocol_II));
    Alcotest.test_case "pcre = Protocol III" `Quick (fun () ->
        let r = Rule.make ~pcre:"/x+/" [ Rule.make_content "selector" ] in
        Alcotest.(check bool) "III" true (Classify.classify r = Classify.Protocol_III));
    Alcotest.test_case "support is cumulative" `Quick (fun () ->
        let r1 = Rule.make [ Rule.make_content "k" ] in
        Alcotest.(check bool) "II supports I" true (Classify.supported_by Classify.Protocol_II r1);
        Alcotest.(check bool) "III supports I" true (Classify.supported_by Classify.Protocol_III r1));
  ]

let eval_tests =
  [ Alcotest.test_case "paper rule matches its own traffic" `Quick (fun () ->
        let r = Parser.parse_rule paper_rule_2003296 in
        let payload =
          "HTTP/1.0 200 OK\r\nServer: nginx/0.6.31\r\nContent-Type: text/html\r\n\
           X-Pad: :80;255.255.255.255\r\n\r\n<html></html>"
        in
        (* "Server: nginx/0." starts at offset 17 in this payload *)
        Alcotest.(check bool) "matches" true (Classify.matches_plaintext r payload));
    Alcotest.test_case "offset constraint rejects shifted match" `Quick (fun () ->
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"needle\"; offset:10; depth:6;)" in
        Alcotest.(check bool) "at 10" true
          (Classify.matches_plaintext r ("0123456789" ^ "needle"));
        Alcotest.(check bool) "at 0" false (Classify.matches_plaintext r "needle0123456789"));
    Alcotest.test_case "distance/within relative constraints" `Quick (fun () ->
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"AB\"; content:\"CD\"; distance:2; within:4;)" in
        Alcotest.(check bool) "AB..CD ok" true (Classify.matches_plaintext r "ABxxCDzz");
        Alcotest.(check bool) "too close" false (Classify.matches_plaintext r "ABCDzzzz");
        Alcotest.(check bool) "too far" false (Classify.matches_plaintext r "ABxxxxxxxxCD"));
    Alcotest.test_case "backtracks over candidate positions" `Quick (fun () ->
        (* first "AB" is too close to CD; the second works *)
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"AB\"; content:\"CD\"; distance:2;)" in
        Alcotest.(check bool) "matches via later candidate" true
          (Classify.matches_plaintext r "ABCD AB..CD"));
    Alcotest.test_case "nocase content" `Quick (fun () ->
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"select\"; nocase;)" in
        Alcotest.(check bool) "matches" true (Classify.matches_plaintext r "UNION SELECT"));
    Alcotest.test_case "pcre gates the match" `Quick (fun () ->
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"id=\"; pcre:\"/id=[0-9]+'/\";)" in
        Alcotest.(check bool) "sqli" true (Classify.matches_plaintext r "GET /?id=42'--");
        Alcotest.(check bool) "benign" false (Classify.matches_plaintext r "GET /?id=42"));
  ]

let dataset_tests =
  let check_fractions ds n tol =
    let rules = Datasets.generate ds ~n in
    let f1, f2, f3 = Classify.fractions rules in
    let p1, p2, p3 = Datasets.paper_fractions ds in
    let close a b = Float.abs (a -. b) <= tol in
    Alcotest.(check bool)
      (Printf.sprintf "%s I: got %.3f want %.3f" (Datasets.name ds) f1 p1) true (close f1 p1);
    Alcotest.(check bool)
      (Printf.sprintf "%s II: got %.3f want %.3f" (Datasets.name ds) f2 p2) true (close f2 p2);
    Alcotest.(check bool)
      (Printf.sprintf "%s III: got %.3f want %.3f" (Datasets.name ds) f3 p3) true (close f3 p3)
  in
  List.map
    (fun ds ->
       Alcotest.test_case (Datasets.name ds) `Quick (fun () -> check_fractions ds 500 0.01))
    Datasets.all
  @ [ Alcotest.test_case "deterministic given seed" `Quick (fun () ->
        let a = Datasets.generate ~seed:"s" Datasets.Snort_community ~n:50 in
        let b = Datasets.generate ~seed:"s" Datasets.Snort_community ~n:50 in
        Alcotest.(check (list string)) "same"
          (List.map Rule.to_string a) (List.map Rule.to_string b));
      Alcotest.test_case "generated rules re-parse" `Quick (fun () ->
          List.iter
            (fun ds ->
               List.iter
                 (fun r ->
                    let r2 = Parser.parse_rule (Rule.to_string r) in
                    Alcotest.(check string) "round trip" (Rule.to_string r) (Rule.to_string r2))
                 (Datasets.generate ds ~n:30))
            Datasets.all);
      Alcotest.test_case "3k rules yield ~9-10k keywords (paper)" `Quick (fun () ->
          let rules = Datasets.generate Datasets.Emerging_threats ~n:3000 in
          let kws = List.length (Datasets.distinct_keywords rules) in
          Alcotest.(check bool) (Printf.sprintf "got %d" kws) true
            (kws >= 7000 && kws <= 12000));
    ]

(* ---------- real-shape mixed ruleset (tiered-engine corpus) ---------- *)

let real_shape_tests =
  let rules = Datasets.real_shape ~n:200 () in
  [ Alcotest.test_case "class mix pinned to real_shape_mix" `Quick (fun () ->
        let f1, f2, f3 = Classify.fractions rules in
        let m1, m2 = Datasets.real_shape_mix in
        (* fractions are cumulative (II supports I, III supports all) *)
        let close a b = Float.abs (a -. b) <= 0.01 in
        Alcotest.(check bool) (Printf.sprintf "I: got %.3f want %.3f" f1 m1)
          true (close f1 m1);
        Alcotest.(check bool)
          (Printf.sprintf "II: got %.3f want %.3f" f2 (m1 +. m2))
          true (close f2 (m1 +. m2));
        Alcotest.(check bool) (Printf.sprintf "III: got %.3f want 1.0" f3)
          true (close f3 1.0));
    Alcotest.test_case "deterministic given seed" `Quick (fun () ->
        let a = Datasets.real_shape ~seed:"s" ~n:50 () in
        let b = Datasets.real_shape ~seed:"s" ~n:50 () in
        Alcotest.(check (list string)) "same"
          (List.map Rule.to_string a) (List.map Rule.to_string b));
    Alcotest.test_case "rules re-parse with class preserved" `Quick (fun () ->
        List.iter
          (fun r ->
             let r2 = Parser.parse_rule (Rule.to_string r) in
             Alcotest.(check string) "round trip" (Rule.to_string r)
               (Rule.to_string r2);
             Alcotest.(check bool) "class preserved" true
               (Classify.classify r = Classify.classify r2))
          rules);
    Alcotest.test_case "every pcre ships a witness that matches it" `Quick
      (fun () ->
        let seen = ref 0 in
        List.iter
          (fun r ->
             match r.Rule.pcre with
             | None -> ()
             | Some p ->
               incr seen;
               (match Datasets.pcre_witness p with
                | None -> Alcotest.fail ("no witness for pcre " ^ p)
                | Some w ->
                  (* witness must match mid-stream, not only anchored *)
                  Alcotest.(check bool)
                    (Printf.sprintf "%s matches its witness %S" p w)
                    true
                    (Bbx_regex.Regex.matches (Bbx_regex.Regex.parse_pcre p)
                       ("GET /?q=" ^ w ^ " HTTP/1.1"))))
          rules;
        Alcotest.(check bool) "decrypt-class rules present" true (!seen > 0));
    (* the text a daemon announces, a client ships in RULE_UPDATE and a
       snapshot carries parses back to the very rules rendered *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60 ~name:"parse_ruleset inverts render_ruleset"
         QCheck.(triple bool small_nat (int_range 1 80))
         (fun (et, seed, n) ->
            let seed = string_of_int seed in
            let rs =
              if et then Datasets.generate ~seed Datasets.Emerging_threats ~n
              else Datasets.real_shape ~seed ~n ()
            in
            Parser.parse_ruleset (Parser.render_ruleset rs) = rs));
  ]

(* ---------- differential: backtracking solver vs exhaustive tuples ----------

   [Classify.contents_satisfiable] prunes with incremental backtracking;
   the reference below enumerates every full tuple of candidate positions
   (cartesian product) and checks the constraint chain on each, so any
   pruning bug shows up as a disagreement.  Inputs stay tiny (payload
   <= 24 bytes, <= 3 one/two-byte contents) to keep the product small. *)

let reference_satisfiable ~candidates contents =
  let rec tuples = function
    | [] -> [ [] ]
    | l :: rest ->
      List.concat_map (fun q -> List.map (fun t -> q :: t) (tuples rest)) l
  in
  let rec chain_ok cs qs prev_end =
    match (cs, qs) with
    | [], [] -> true
    | (c : Rule.content) :: cs', q :: qs' ->
      let len = String.length c.Rule.pattern in
      let abs_ok =
        (match c.Rule.offset with None -> true | Some o -> q >= o)
        && (match c.Rule.depth with
            | None -> true
            | Some d -> q + len <= Option.value c.Rule.offset ~default:0 + d)
      in
      let rel_ok =
        match (c.Rule.distance, c.Rule.within) with
        | None, None -> true
        | dist, w ->
          (match prev_end with
           | None -> true (* relative modifier on the first content: no anchor *)
           | Some pe ->
             let dist = Option.value dist ~default:0 in
             q >= pe + dist
             && (match w with None -> true | Some w -> q + len <= pe + dist + w))
      in
      abs_ok && rel_ok && chain_ok cs' qs' (Some (q + len))
    | _ -> false
  in
  List.exists
    (fun qs -> chain_ok contents qs None)
    (tuples (List.map candidates contents))

let gen_case =
  let open QCheck.Gen in
  let gen_char = oneofl [ 'a'; 'b'; 'A'; ' ' ] in
  let gen_payload = map (fun l -> String.init (List.length l) (List.nth l))
      (list_size (int_bound 24) gen_char) in
  let gen_pattern =
    map (fun l -> String.init (List.length l) (List.nth l))
      (list_size (int_range 1 2) (oneofl [ 'a'; 'b' ]))
  in
  let gen_opt g = oneof [ return None; map Option.some g ] in
  let gen_content =
    gen_pattern >>= fun pattern ->
    bool >>= fun nocase ->
    gen_opt (int_bound 5) >>= fun offset ->
    gen_opt (int_range 1 6) >>= fun depth ->
    gen_opt (int_bound 4) >>= fun distance ->
    gen_opt (int_range 1 8) >>= fun within ->
    return (Rule.make_content ~nocase ?offset ?depth ?distance ?within pattern)
  in
  pair (list_size (int_range 1 3) gen_content) gen_payload

let print_case (contents, payload) =
  Printf.sprintf "rule: %s payload: %S"
    (Rule.to_string (Rule.make contents)) payload

let differential_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"solver agrees with exhaustive tuple enumeration"
         (QCheck.make ~print:print_case gen_case)
         (fun (contents, payload) ->
            let candidates (c : Rule.content) =
              Classify.keyword_match_positions ~nocase:c.Rule.nocase
                c.Rule.pattern payload
            in
            Classify.contents_satisfiable ~candidates contents
            = reference_satisfiable ~candidates contents));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"matches_plaintext is the solver on pcre-free rules"
         (QCheck.make ~print:print_case gen_case)
         (fun (contents, payload) ->
            let candidates (c : Rule.content) =
              Classify.keyword_match_positions ~nocase:c.Rule.nocase
                c.Rule.pattern payload
            in
            Classify.matches_plaintext (Rule.make contents) payload
            = Classify.contents_satisfiable ~candidates contents));
  ]

let () =
  Alcotest.run "rules"
    [ ("parser", parser_tests);
      ("classify", classify_tests);
      ("plaintext-eval", eval_tests);
      ("datasets", dataset_tests);
      ("real-shape", real_shape_tests);
      ("differential", differential_tests);
    ]
