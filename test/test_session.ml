open Blindbox
open Bbx_rules

let rules_basic = [ Rule.make ~sid:1 [ Rule.make_content "attackkw" ] ]

let establish ?config ?rg rules = Session.establish ?config ?rg ~rules ()

let direct cfg = { cfg with Session.rule_prep = Session.Direct }

let cfg_exact = direct Session.default_config
let cfg_probable =
  { cfg_exact with
    Session.inspect =
      { Bbx_mbox.Engine.default_config with mode = Bbx_dpienc.Dpienc.Probable } }

let session_tests =
  [ Alcotest.test_case "benign roundtrip delivers plaintext" `Quick (fun () ->
        let t, stats = establish ~config:cfg_exact rules_basic in
        Alcotest.(check int) "one chunk" 1 stats.Session.chunk_count;
        let d = Session.send t "GET /index.html HTTP/1.1\r\nHost: ok.example\r\n\r\n" in
        Alcotest.(check string) "delivered" "GET /index.html HTTP/1.1\r\nHost: ok.example\r\n\r\n"
          d.Session.plaintext;
        Alcotest.(check int) "no verdicts" 0 (List.length d.Session.verdicts);
        Alcotest.(check bool) "tokens on wire" true (d.Session.token_bytes > 0));
    Alcotest.test_case "attack detected end to end" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        let d = Session.send t "GET /?q=attackkw HTTP/1.1" in
        Alcotest.(check int) "one verdict" 1 (List.length d.Session.verdicts);
        Alcotest.(check (list (pair string int))) "keyword hit"
          [ ("attackkw", 8) ] (Session.mb_keyword_hits t));
    Alcotest.test_case "detection works across messages" `Quick (fun () ->
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"alphakey\"; content:\"betakeyx\"; sid:2;)" in
        let t, _ = establish ~config:cfg_exact [ r ] in
        let d1 = Session.send t "part one has alphakey only" in
        Alcotest.(check int) "no verdict yet" 0 (List.length d1.Session.verdicts);
        let d2 = Session.send t "part two has betakeyx too" in
        Alcotest.(check int) "verdict" 1 (List.length d2.Session.verdicts));
    Alcotest.test_case "repeated payloads produce fresh ciphertexts" `Quick (fun () ->
        (* semantic security across identical messages: the token bytes on
           the wire must differ between two sends of the same payload *)
        let t, _ = establish ~config:cfg_exact rules_basic in
        let payload = "identical message with words" in
        let module D = Bbx_dpienc.Dpienc in
        let d1 = Session.send t payload and d2 = Session.send t payload in
        ignore d1; ignore d2;
        (* second occurrence of each token got a new salt; keyword hits
           stayed empty so the streams were not equal by construction *)
        Alcotest.(check int) "no false hits" 0 (List.length (Session.mb_keyword_hits t)));
    Alcotest.test_case "probable cause decrypts the stream at MB" `Quick (fun () ->
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"suspect8\"; pcre:\"/suspect8=[0-9]+/\"; sid:3;)" in
        let t, _ = establish ~config:cfg_probable [ r ] in
        let benign = Session.send t "nothing to see here" in
        Alcotest.(check (option string)) "no key yet" None (Session.mb_recovered_key t);
        ignore benign;
        let d = Session.send t "GET /?suspect8=1234 HTTP/1.1" in
        Alcotest.(check bool) "key recovered" true (Session.mb_recovered_key t <> None);
        (match Session.mb_decrypted_stream t with
         | Some stream ->
           Alcotest.(check bool) "whole stream visible" true
             (String.length stream > String.length "GET /?suspect8=1234 HTTP/1.1")
         | None -> Alcotest.fail "expected decrypted stream");
        Alcotest.(check int) "pcre verdict" 1 (List.length d.Session.verdicts));
    Alcotest.test_case "exact mode never exposes the key" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        let _ = Session.send t "GET /?q=attackkw HTTP/1.1" in
        Alcotest.(check (option string)) "no key" None (Session.mb_recovered_key t));
    Alcotest.test_case "evading sender is caught by the receiver" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        Alcotest.(check bool) "raises" true
          (match Session.send_evading t "GET /?q=attackkw HTTP/1.1" ~drop_tokens:2 with
           | exception Session.Evasion_detected _ -> true
           | _ -> false));
    Alcotest.test_case "salt reset period crossed transparently" `Quick (fun () ->
        let config = { cfg_exact with Session.reset_period = 64 } in
        let t, _ = establish ~config rules_basic in
        for _ = 1 to 5 do
          let d = Session.send t "filler filler filler filler filler filler filler" in
          Alcotest.(check int) "clean" 0 (List.length d.Session.verdicts)
        done;
        let d = Session.send t "then q=attackkw arrives" in
        Alcotest.(check int) "still detected after resets" 1 (List.length d.Session.verdicts));
    Alcotest.test_case "binary sends skip tokenization" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        let blob = String.init 4096 (fun i -> Char.chr ((i * 31) land 0xff)) in
        let d = Session.send_binary t blob in
        Alcotest.(check string) "delivered intact" blob d.Session.plaintext;
        Alcotest.(check int) "no tokens" 0 d.Session.token_count;
        (* the keyword hidden in binary is invisible to the HTTP-only IDS *)
        let d2 = Session.send_binary t "....attackkw...." in
        Alcotest.(check int) "not inspected" 0 (List.length d2.Session.verdicts);
        (* while the same bytes sent as text are caught *)
        let d3 = Session.send t "q=attackkw" in
        Alcotest.(check int) "text inspected" 1 (List.length d3.Session.verdicts));
    Alcotest.test_case "probable-cause stream interleaves text and binary" `Quick (fun () ->
        let r = Parser.parse_rule
            "alert tcp any any -> any any (content:\"suspect8\"; pcre:\"/suspect8/\"; sid:4;)" in
        let t, _ = establish ~config:cfg_probable [ r ] in
        let _ = Session.send t "hello text" in
        let _ = Session.send_binary t "BINARYBLOB" in
        let _ = Session.send t "q=suspect8" in
        (match Session.mb_decrypted_stream t with
         | Some stream ->
           Alcotest.(check string) "tags stripped, order kept"
             "hello textBINARYBLOBq=suspect8" stream
         | None -> Alcotest.fail "expected stream"));
    Alcotest.test_case "drop rule blocks the connection" `Quick (fun () ->
        let rules =
          [ Rule.make ~action:Rule.Drop ~sid:9 [ Rule.make_content "dropword" ] ]
        in
        let t, _ = establish ~config:cfg_exact rules in
        Alcotest.(check bool) "not blocked yet" false (Session.blocked t);
        let d = Session.send t "q=dropword" in
        Alcotest.(check int) "verdict delivered" 1 (List.length d.Session.verdicts);
        Alcotest.(check bool) "now blocked" true (Session.blocked t);
        Alcotest.(check bool) "further sends refused" true
          (match Session.send t "harmless" with
           | exception Session.Connection_blocked -> true
           | _ -> false));
    Alcotest.test_case "alert rule does not block" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        let _ = Session.send t "q=attackkw" in
        Alcotest.(check bool) "not blocked" false (Session.blocked t);
        ignore (Session.send t "still flows"));
    Alcotest.test_case "session resumption skips setup and still detects" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        let _ = Session.send t "warm up the connection" in
        let ticket = Session.resumption_ticket t in
        let t2 = Session.resume ticket ~rules:rules_basic () in
        let d = Session.send t2 "GET /?q=attackkw HTTP/1.1" in
        Alcotest.(check int) "detects on resumed session" 1 (List.length d.Session.verdicts);
        (* resumed record layer is re-keyed: streams are independent *)
        let t3 = Session.resume ticket ~rules:rules_basic () in
        let d3 = Session.send t3 "benign words here" in
        Alcotest.(check int) "clean" 0 (List.length d3.Session.verdicts));
    Alcotest.test_case "resume rejects a different ruleset" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        let ticket = Session.resumption_ticket t in
        let other = [ Rule.make [ Rule.make_content "different" ] ] in
        Alcotest.(check bool) "raises" true
          (match Session.resume ticket ~rules:other () with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "live rule update extends detection" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        (* not yet a rule: flows through *)
        let d0 = Session.send t "q=newthr8t" in
        Alcotest.(check int) "unknown keyword" 0 (List.length d0.Session.verdicts);
        (* RG ships an update *)
        let fresh, _ = Session.add_rules t [ Rule.make ~sid:50 [ Rule.make_content "newthr8t" ] ] in
        Alcotest.(check int) "one fresh chunk" 1 fresh;
        let d1 = Session.send t "q=newthr8t again" in
        Alcotest.(check int) "now detected" 1 (List.length d1.Session.verdicts);
        (* old rules still work *)
        let d2 = Session.send t "q=attackkw" in
        Alcotest.(check int) "old rule intact" 1 (List.length d2.Session.verdicts));
    Alcotest.test_case "rule update reuses existing chunks" `Quick (fun () ->
        let t, _ = establish ~config:cfg_exact rules_basic in
        (* a new rule sharing the existing keyword adds no chunks *)
        let fresh, _ =
          Session.add_rules t
            [ Rule.make ~sid:51 [ Rule.make_content "attackkw"; Rule.make_content "otherkey" ] ]
        in
        Alcotest.(check int) "only the new keyword" 1 fresh);
    Alcotest.test_case "rule removal stops detection, keeps the rest" `Quick (fun () ->
        let rules =
          [ Rule.make ~sid:60 [ Rule.make_content "oldrule1" ];
            Rule.make ~sid:61 [ Rule.make_content "survivor" ] ]
        in
        let t, _ = establish ~config:cfg_exact rules in
        let d0 = Session.send t "q=oldrule1" in
        Alcotest.(check int) "fires before removal" 1 (List.length d0.Session.verdicts);
        let added, _ = Session.update_rules t ~remove_sids:[ 60 ] [] in
        Alcotest.(check int) "nothing added" 0 added;
        let d1 = Session.send t "q=oldrule1 again" in
        Alcotest.(check int) "removed rule silent" 0 (List.length d1.Session.verdicts);
        (* the surviving rule's verdict bookkeeping survived the index
           remap: it fires once, and only once per connection *)
        let d2 = Session.send t "q=survivor" in
        Alcotest.(check int) "survivor fires" 1 (List.length d2.Session.verdicts);
        let d3 = Session.send t "q=survivor again" in
        Alcotest.(check int) "still deduped" 0 (List.length d3.Session.verdicts));
    Alcotest.test_case "removal after a verdict keeps dedup for survivors" `Quick
      (fun () ->
        let rules =
          [ Rule.make ~sid:62 [ Rule.make_content "firstone" ];
            Rule.make ~sid:63 [ Rule.make_content "secondkw" ] ]
        in
        let t, _ = establish ~config:cfg_exact rules in
        (* the survivor fires *before* the removal shifts its index *)
        let d0 = Session.send t "q=secondkw" in
        Alcotest.(check int) "fires" 1 (List.length d0.Session.verdicts);
        ignore (Session.update_rules t ~remove_sids:[ 62 ] []);
        let d1 = Session.send t "q=secondkw again" in
        Alcotest.(check int) "no duplicate verdict after remap" 0
          (List.length d1.Session.verdicts);
        (* and a rule added in the same update is live *)
        let added, _ =
          Session.update_rules t [ Rule.make ~sid:64 [ Rule.make_content "thirdkww" ] ]
        in
        Alcotest.(check int) "one added" 1 added;
        let d2 = Session.send t "q=thirdkww" in
        Alcotest.(check int) "new rule fires" 1 (List.length d2.Session.verdicts));
    Alcotest.test_case "window tokenization catches mid-word keywords" `Quick (fun () ->
        let cfg_window = { cfg_exact with Session.tokenization = Session.Window } in
        let t, _ = establish ~config:cfg_window rules_basic in
        (* keyword glued inside a word: invisible to delimiter tokenization *)
        let d = Session.send t "zzattackkwzz" in
        Alcotest.(check int) "window finds it" 1 (List.length d.Session.verdicts);
        let t2, _ = establish ~config:cfg_exact rules_basic in
        let d2 = Session.send t2 "zzattackkwzz" in
        Alcotest.(check int) "delimiter misses it" 0 (List.length d2.Session.verdicts));
  ]

let duplex_tests =
  [ Alcotest.test_case "directional rules fire only on their direction" `Quick (fun () ->
        let server_rule =
          Parser.parse_rule
            "alert tcp any any -> any any (flow:established,from_server; \
             content:\"Server: nginx/0.\"; sid:20;)"
        in
        let client_rule =
          Parser.parse_rule
            "alert tcp any any -> any any (flow:to_server; content:\"cmd.exe?\"; sid:21;)"
        in
        let d, stats =
          Session.Duplex.establish ~config:cfg_exact ~rules:[ server_rule; client_rule ] ()
        in
        Alcotest.(check bool) "chunks shared" true (stats.Session.chunk_count >= 3);
        (* the server-rule keyword in the *request* direction: no verdict *)
        let r1 = Session.Duplex.client_send d "q=Server: nginx/0.zz" in
        Alcotest.(check int) "wrong direction" 0 (List.length r1.Session.verdicts);
        (* same bytes in the response direction: fires *)
        let r2 = Session.Duplex.server_send d "HTTP/1.0 200 OK\r\nServer: nginx/0.6\r\n" in
        Alcotest.(check int) "right direction" 1 (List.length r2.Session.verdicts);
        (* the client rule fires on requests *)
        let r3 = Session.Duplex.client_send d "GET /cmd.exe?x HTTP/1.1" in
        Alcotest.(check int) "client rule" 1 (List.length r3.Session.verdicts));
    Alcotest.test_case "undirected rules fire on both directions" `Quick (fun () ->
        let rule = Rule.make ~sid:22 [ Rule.make_content "bothways" ] in
        let d, _ = Session.Duplex.establish ~config:cfg_exact ~rules:[ rule ] () in
        Alcotest.(check int) "c2s" 1
          (List.length (Session.Duplex.client_send d "q=bothways").Session.verdicts);
        Alcotest.(check int) "s2c" 1
          (List.length (Session.Duplex.server_send d "r=bothways").Session.verdicts));
    Alcotest.test_case "drop in one direction blocks both" `Quick (fun () ->
        let rule = Rule.make ~action:Rule.Drop ~sid:23 [ Rule.make_content "dropword" ] in
        let d, _ = Session.Duplex.establish ~config:cfg_exact ~rules:[ rule ] () in
        let _ = Session.Duplex.client_send d "q=dropword" in
        Alcotest.(check bool) "blocked" true (Session.Duplex.blocked d);
        Alcotest.(check bool) "server send refused" true
          (match Session.Duplex.server_send d "response" with
           | exception Session.Connection_blocked -> true
           | _ -> false));
    Alcotest.test_case "directions have independent crypto streams" `Quick (fun () ->
        let d, _ = Session.Duplex.establish ~config:cfg_exact ~rules:rules_basic () in
        let r1 = Session.Duplex.client_send d "identical words" in
        let r2 = Session.Duplex.server_send d "identical words" in
        Alcotest.(check string) "both delivered" r1.Session.plaintext r2.Session.plaintext);
  ]

(* Fleet-wide rule updates: every live connection of a sharded middlebox
   picks up the new ruleset through its mailbox, no re-handshake. *)
let fleet_tests =
  [ Alcotest.test_case "fleet update reaches every live connection" `Quick (fun () ->
        let rules = [ Rule.make ~sid:70 [ Rule.make_content "fleetkw1" ] ] in
        let fleet =
          Session.Fleet.establish ~config:cfg_exact ~domains:2 ~conns:2 ~rules ()
        in
        Fun.protect ~finally:(fun () -> Session.Fleet.shutdown fleet) @@ fun () ->
        let verdicts_of conn payload =
          let t = Session.Fleet.submit fleet ~conn payload in
          let got = ref (-1) in
          Session.Fleet.drain fleet ~f:(fun ~seq ~conn_id:_ vs ->
              if seq = t then got := List.length vs);
          !got
        in
        (* unknown keyword flows through on both connections *)
        Alcotest.(check int) "conn 0 before" 0 (verdicts_of 0 "q=addedkw2");
        Alcotest.(check int) "conn 1 before" 0 (verdicts_of 1 "q=addedkw2");
        Session.Fleet.update_rules fleet
          [ Rule.make ~sid:71 [ Rule.make_content "addedkw2" ] ];
        Alcotest.(check int) "conn 0 after" 1 (verdicts_of 0 "q=addedkw2");
        Alcotest.(check int) "conn 1 after" 1 (verdicts_of 1 "q=addedkw2");
        (* the original rule still works *)
        Alcotest.(check int) "old rule intact" 1 (verdicts_of 0 "q=fleetkw1"));
    Alcotest.test_case "fleet removal withdraws a rule everywhere" `Quick (fun () ->
        let rules =
          [ Rule.make ~sid:72 [ Rule.make_content "remove77" ];
            Rule.make ~sid:73 [ Rule.make_content "keeper88" ] ]
        in
        let fleet =
          Session.Fleet.establish ~config:cfg_exact ~domains:2 ~conns:2 ~rules ()
        in
        Fun.protect ~finally:(fun () -> Session.Fleet.shutdown fleet) @@ fun () ->
        let verdicts_of conn payload =
          let t = Session.Fleet.submit fleet ~conn payload in
          let got = ref (-1) in
          Session.Fleet.drain fleet ~f:(fun ~seq ~conn_id:_ vs ->
              if seq = t then got := List.length vs);
          !got
        in
        Alcotest.(check int) "fires before" 1 (verdicts_of 0 "q=remove77");
        Session.Fleet.update_rules fleet ~remove_sids:[ 72 ] [];
        Alcotest.(check int) "silent after on conn 0" 0 (verdicts_of 0 "q=remove77 x");
        Alcotest.(check int) "silent after on conn 1" 0 (verdicts_of 1 "q=remove77 y");
        Alcotest.(check int) "survivor fires" 1 (verdicts_of 1 "q=keeper88"));
  ]

(* Fleet-scale state: shared rule prep is O(1) in connection count,
   single-connection removal returns memory gauges to baseline, and live
   migration/rebalancing never changes verdicts or stats. *)
let fleet_state_tests =
  let obs_prep = Bbx_obs.Obs.span "bbx_session_rule_prep" in
  let obs_conns = Bbx_obs.Obs.gauge "bbx_mbox_connections" in
  let obs_bytes = Bbx_obs.Obs.gauge "bbx_conn_bytes" in
  let verdicts_of fleet conn payload =
    let t = Session.Fleet.submit fleet ~conn payload in
    let got = ref (-1) in
    Session.Fleet.drain fleet ~f:(fun ~seq ~conn_id:_ vs ->
        if seq = t then got := List.length vs);
    !got
  in
  [ Alcotest.test_case "establish runs rule prep once at any size" `Quick (fun () ->
        List.iter
          (fun conns ->
             let before = Bbx_obs.Obs.span_count obs_prep in
             Session.Fleet.with_fleet ~config:cfg_exact ~domains:2 ~conns
               ~rules:rules_basic (fun fleet ->
                 Alcotest.(check int)
                   (Printf.sprintf "one prep for %d conns" conns)
                   1
                   (Bbx_obs.Obs.span_count obs_prep - before);
                 (* every connection still detects *)
                 Alcotest.(check int) "conn detects" 1
                   (verdicts_of fleet (conns - 1) "q=attackkw")))
          [ 1; 5 ]);
    Alcotest.test_case "remove returns memory gauges to baseline" `Quick (fun () ->
        let base = Bbx_obs.Obs.gauge_value obs_conns in
        Session.Fleet.with_fleet ~config:cfg_exact ~domains:2 ~conns:4
          ~rules:rules_basic (fun fleet ->
            ignore (verdicts_of fleet 0 "traffic on conn 0" : int);
            Alcotest.(check int) "gauge counts the fleet" (base + 4)
              (Bbx_obs.Obs.gauge_value obs_conns);
            Alcotest.(check bool) "fleet occupies bytes" true
              (Session.Fleet.conn_bytes fleet > 0);
            for conn = 0 to 3 do
              Session.Fleet.remove fleet ~conn
            done;
            Session.Fleet.remove fleet ~conn:0;  (* idempotent *)
            Alcotest.(check int) "connection gauge back to baseline" base
              (Bbx_obs.Obs.gauge_value obs_conns);
            Alcotest.(check int) "footprint back to zero" 0
              (Session.Fleet.conn_bytes fleet);
            Alcotest.(check int) "bbx_conn_bytes gauge refreshed" 0
              (Bbx_obs.Obs.gauge_value obs_bytes);
            Alcotest.(check bool) "removed conn unknown" true
              (match Session.Fleet.submit fleet ~conn:1 "x" with
               | exception Invalid_argument _ -> true
               | _ -> false)));
    Alcotest.test_case "rule updates keep the fleet footprint flat" `Quick (fun () ->
        (* every connection borrows the next generation: after adding five
           rules and removing one, a connection costs what it costs on a
           fleet established on the final ruleset *)
        let et = Datasets.generate Datasets.Emerging_threats ~n:13 in
        let base = List.filteri (fun i _ -> i < 8) et in
        let added = List.filteri (fun i _ -> i >= 8) et in
        let gone = Option.get (List.nth base 1).Rule.sid in
        let final = List.filter (fun r -> r.Rule.sid <> Some gone) (base @ added) in
        let conns = 40 in
        let per_conn rules update =
          Session.Fleet.with_fleet ~config:cfg_exact ~domains:2 ~conns ~rules
            (fun fleet ->
               update fleet;
               float_of_int (Session.Fleet.conn_bytes fleet) /. float_of_int conns)
        in
        let updated =
          per_conn base (fun fleet ->
              Session.Fleet.update_rules fleet added;
              Session.Fleet.update_rules fleet ~remove_sids:[ gone ] [])
        in
        let fresh = per_conn final ignore in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f B/conn after the updates vs %.0f fresh" updated fresh)
          true
          (Float.abs (updated -. fresh) <= 0.1 *. fresh));
    Alcotest.test_case "migrate and rebalance preserve verdict accounting" `Quick
      (fun () ->
        Session.Fleet.with_fleet ~config:cfg_exact ~domains:2 ~conns:3
          ~rules:rules_basic (fun fleet ->
            Alcotest.(check int) "verdict before" 1 (verdicts_of fleet 0 "q=attackkw");
            let from = Session.Fleet.conn_shard fleet ~conn:0 in
            Session.Fleet.migrate fleet ~conn:0 ~shard:((from + 1) mod 2);
            Alcotest.(check bool) "shard changed" true
              (Session.Fleet.conn_shard fleet ~conn:0 <> from);
            (* sticky dedup travelled: same keyword, no fresh verdict *)
            Alcotest.(check int) "no re-report after migrate" 0
              (verdicts_of fleet 0 "again q=attackkw");
            ignore (Session.Fleet.rebalance fleet : int);
            Alcotest.(check int) "still one alert" 1
              (Session.Fleet.stats fleet).Bbx_mbox.Shard.alerts;
            let fs = Session.Fleet.flow_stats fleet ~conn:0 in
            Alcotest.(check int) "verdict count travelled" 1
              fs.Bbx_mbox.Shard.flow_verdicts));
  ]

(* The real rule-preparation pipeline: garbled AES circuits + OT.  Slow
   (~1s per chunk), so rulesets are kept tiny. *)
let garbled_tests =
  [ Alcotest.test_case "garbled rule prep yields working detection" `Slow (fun () ->
        let config = { cfg_exact with Session.rule_prep = Session.Garbled } in
        let t, stats = establish ~config rules_basic in
        (match stats.Session.rule_prep_stats with
         | Some s ->
           Alcotest.(check int) "one circuit" 1 s.Ruleprep.circuits;
           Alcotest.(check bool) "circuit bytes > 200KB" true (s.Ruleprep.circuit_bytes > 200_000);
           Alcotest.(check bool) "ot ran" true (s.Ruleprep.ot_bytes > 0)
         | None -> Alcotest.fail "expected rule prep stats");
        let d = Session.send t "GET /?q=attackkw HTTP/1.1" in
        Alcotest.(check int) "verdict through garbled prep" 1 (List.length d.Session.verdicts));
    Alcotest.test_case "garbled prep with RG signatures" `Slow (fun () ->
        let drbg = Bbx_crypto.Drbg.create "rg-keys" in
        let rg = Bbx_sig.Rsa.generate ~rand_bytes:(Bbx_crypto.Drbg.bytes drbg) ~bits:512 in
        let config = { cfg_exact with Session.rule_prep = Session.Garbled } in
        let t, _ = establish ~config ~rg rules_basic in
        let d = Session.send t "GET /?q=attackkw HTTP/1.1" in
        Alcotest.(check int) "verdict" 1 (List.length d.Session.verdicts));
    Alcotest.test_case "bad RG signature rejected" `Slow (fun () ->
        let drbg = Bbx_crypto.Drbg.create "rg-keys-2" in
        let rg = Bbx_sig.Rsa.generate ~rand_bytes:(Bbx_crypto.Drbg.bytes drbg) ~bits:512 in
        let chunks = [| "attackkw" |] in
        let signatures = [| Bbx_sig.Rsa.sign rg.Bbx_sig.Rsa.private_ "something else" |] in
        Alcotest.(check bool) "raises" true
          (match
             Ruleprep.prepare ~k:"k" ~k_rand:"kr" ~chunks ~signatures
               ~rg_key:rg.Bbx_sig.Rsa.public ()
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "cheating endpoint's garbling rejected" `Slow (fun () ->
        (* a malicious endpoint that deviates from the shared k_rand
           produces a different circuit; the middlebox's byte-equality
           check refuses the exchange *)
        Alcotest.(check bool) "raises" true
          (match
             Ruleprep.prepare_distrusting ~k:"k" ~k_rand_sender:"honest-seed"
               ~k_rand_receiver:"evil-seed" ~chunks:[| "attackkw" |]
           with
           | exception Invalid_argument _ -> true
           | _ -> false);
        (* and agreeing endpoints pass *)
        let encs, _ =
          Ruleprep.prepare_distrusting ~k:"k" ~k_rand_sender:"same-seed"
            ~k_rand_receiver:"same-seed" ~chunks:[| "attackkw" |]
        in
        Alcotest.(check int) "one enc" 1 (Array.length encs));
    Alcotest.test_case "ruleprep output equals direct AES_k(chunk)" `Slow (fun () ->
        let chunks = [| "attackkw"; "otherkw\x00" |] in
        let encs, _ = Ruleprep.prepare_unchecked ~k:"secret-k" ~k_rand:"seed" ~chunks () in
        let key = Bbx_dpienc.Dpienc.key_of_secret "secret-k" in
        Array.iteri
          (fun i chunk ->
             Alcotest.(check string) (Printf.sprintf "chunk %d" i)
               (Bbx_dpienc.Dpienc.token_enc key chunk) encs.(i))
          chunks);
  ]

let () =
  Alcotest.run "session"
    [ ("end-to-end", session_tests);
      ("duplex", duplex_tests);
      ("fleet-updates", fleet_tests);
      ("fleet-state", fleet_state_tests);
      ("garbled-rule-prep", garbled_tests) ]
