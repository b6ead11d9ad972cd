open Bbx_dpienc.Dpienc
open Bbx_mbox
open Bbx_rules
open Bbx_oracle

let key = key_of_secret "mbox-k"
let enc_chunk chunk = token_enc key chunk

let mk_engine ?(mode = Exact) rules = Engine.create ~mode ~salt0:0 ~rules ~enc_chunk ()

let direction = "client->server"

(* an engine on a caller-built ruleset under [config] *)
let mk_engine_with config rules =
  Engine.make config (Engine.keys (Engine.ruleset rules) ~enc_chunk) ~direction ~salt0:0

let sender ?(mode = Exact) () = sender_create mode key ~salt0:0

(* Encrypt a payload exactly as the BlindBox sender would (delimiter
   tokenization by default), to its wire encoding. *)
let encrypt_payload ?k_ssl ?(tokenization = Delimiter { short_units = false }) s payload =
  Records.wire s ?k_ssl ~tokenization payload

let feed e wire = ignore (Engine.process_wire e wire : int)

let rule_of_string = Parser.parse_rule

module Record = Bbx_tls.Record

(* the sender's record layer, as the engine's ["client->server"] reader
   expects it: the middlebox only sees plaintext by decrypting these *)
let mk_writer k_ssl = Record.create ~key:k_ssl ~direction ()

let seal writer payload = Record.seal writer ("T" ^ payload)

(* One Exact-mode record per chunk of [ids], in order, at the reference
   cipher (a boxed key expanded on its own) of [chunks.(id)] under its
   next salt from [salt0] and [counts], which the records advance. *)
let reference_records chunks ~salt0 counts ~base ids =
  Records.encode_tokens ~explicit:true
    (List.mapi
       (fun i id ->
          let salt = salt0 + counts.(id) in
          let tk = Token_keys.token_key_of_enc (enc_chunk chunks.(id)) in
          counts.(id) <- counts.(id) + 1;
          { Records.cipher = Token_keys.encrypt tk ~salt;
            offset = base + i;
            embed = None })
       ids)

let engine_tests =
  [ Alcotest.test_case "distinct chunks dedup across rules" `Quick (fun () ->
        let rules =
          [ Rule.make [ Rule.make_content "keyword1" ];
            Rule.make [ Rule.make_content "keyword1"; Rule.make_content "keyword2" ] ]
        in
        Alcotest.(check int) "two chunks" 2 (Array.length (Engine.distinct_chunks rules)));
    Alcotest.test_case "protocol I: single keyword fires" `Quick (fun () ->
        let rules = [ Rule.make ~sid:1 [ Rule.make_content "evilword" ] ] in
        let e = mk_engine rules in
        let s = sender () in
        feed e (encrypt_payload s "GET /?q=evilword HTTP/1.1");
        (match Engine.verdicts e with
         | [ v ] ->
           Alcotest.(check int) "rule 0" 0 v.Engine.rule_idx;
           Alcotest.(check bool) "exact" true (Engine.via v.Engine.detail = `Exact_match)
         | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))));
    Alcotest.test_case "protocol I: long keyword needs all chunks" `Quick (fun () ->
        let kw = "maliciouspayload" (* 16 bytes = 2 chunks *) in
        let rules = [ Rule.make ~sid:2 [ Rule.make_content kw ] ] in
        let e = mk_engine rules in
        let s = sender () in
        (* only the first half appears: no rule verdict *)
        feed e (encrypt_payload s "GET /?q=maliciou HTTP/1.1");
        Alcotest.(check int) "no verdict" 0 (List.length (Engine.verdicts e));
        let e2 = mk_engine rules in
        let s2 = sender () in
        feed e2 (encrypt_payload s2 ("GET /?q=" ^ kw ^ " HTTP/1.1"));
        Alcotest.(check int) "fires" 1 (List.length (Engine.verdicts e2)));
    Alcotest.test_case "benign traffic: no verdicts, no hits" `Quick (fun () ->
        let rules = [ Rule.make [ Rule.make_content "evilword" ] ] in
        let e = mk_engine rules in
        let s = sender () in
        feed e (encrypt_payload s "GET /index.html HTTP/1.1\r\nHost: ok.example");
        Alcotest.(check int) "no hits" 0 (List.length (Engine.keyword_hits e));
        Alcotest.(check int) "no verdicts" 0 (List.length (Engine.verdicts e)));
    Alcotest.test_case "protocol II: multiple keywords all required" `Quick (fun () ->
        let r = rule_of_string
            "alert tcp any any -> any any (content:\"firstkey\"; content:\"secondkey\"; sid:3;)" in
        let e = mk_engine [ r ] in
        let s = sender () in
        feed e (encrypt_payload s "x=firstkey&y=unrelated");
        Alcotest.(check int) "half: no verdict" 0 (List.length (Engine.verdicts e));
        feed e (encrypt_payload s "z=secondkey&w=1");
        Alcotest.(check int) "both: fires" 1 (List.length (Engine.verdicts e)));
    Alcotest.test_case "protocol II: offset constraint enforced" `Quick (fun () ->
        let r = rule_of_string
            "alert tcp any any -> any any (content:\"needle88\"; offset:10; depth:8; sid:4;)" in
        (* window tokenization so alignment is exact *)
        let e = mk_engine [ r ] in
        let s = sender () in
        let payload_match = "0123456789needle88 trailer" (* at offset 10 *) in
        feed e (encrypt_payload ~tokenization:Window s payload_match);
        Alcotest.(check int) "fires at 10" 1 (List.length (Engine.verdicts e));
        let e2 = mk_engine [ r ] in
        let s2 = sender () in
        feed e2 (encrypt_payload ~tokenization:Window s2 "needle88 at start instead");
        Alcotest.(check int) "no fire at 0" 0 (List.length (Engine.verdicts e2)));
    Alcotest.test_case "protocol II agrees with plaintext reference" `Quick (fun () ->
        let r = rule_of_string
            "alert tcp any any -> any any (content:\"alphakey\"; content:\"betakeyx\"; distance:4; within:20; sid:5;)" in
        let payloads =
          [ "alphakey....betakeyx";          (* distance 4: ok *)
            "alphakey..betakeyx";            (* too close *)
            "alphakey.........................betakeyx" (* too far *) ]
        in
        List.iter
          (fun payload ->
             let reference = Classify.matches_plaintext r payload in
             let e = mk_engine [ r ] in
             let s = sender () in
             feed e (encrypt_payload ~tokenization:Window s payload);
             let got = Engine.verdicts e <> [] in
             Alcotest.(check bool) (Printf.sprintf "agrees on %S" payload) reference got)
          payloads);
    Alcotest.test_case "protocol III: pcre needs plaintext" `Quick (fun () ->
        let r = rule_of_string
            "alert tcp any any -> any any (content:\"userquery\"; pcre:\"/userquery=[0-9]+'/\"; sid:6;)" in
        let payload = "GET /?userquery=42' HTTP/1.1" in
        let e = mk_engine ~mode:Probable [ r ] in
        let s = sender ~mode:Probable () in
        let k_ssl = String.make 16 'S' in
        feed e (encrypt_payload ~k_ssl s payload);
        (* without plaintext, pcre rules cannot fire *)
        Alcotest.(check int) "encrypted only: no verdict" 0 (List.length (Engine.verdicts e));
        (* the keyword match recovered the key *)
        Alcotest.(check (option string)) "key recovered" (Some k_ssl) (Engine.recovered_key e);
        (* the sealed record is the plaintext the recovered key opens *)
        Engine.record_stream e (seal (mk_writer k_ssl) payload);
        (match Engine.verdicts e with
         | [ v ] ->
           Alcotest.(check bool) "probable cause" true
             (Engine.via v.Engine.detail = `Probable_cause)
         | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))));
    Alcotest.test_case "probable cause does not fire on benign pcre" `Quick (fun () ->
        let r = rule_of_string
            "alert tcp any any -> any any (content:\"userquery\"; pcre:\"/userquery=[0-9]+'/\"; sid:7;)" in
        let payload = "GET /?userquery=42 HTTP/1.1" (* keyword yes, pcre no *) in
        let e = mk_engine ~mode:Probable [ r ] in
        let s = sender ~mode:Probable () in
        let k_ssl = String.make 16 'S' in
        Engine.record_stream e (seal (mk_writer k_ssl) payload);
        feed e (encrypt_payload ~k_ssl s payload);
        Alcotest.(check bool) "key recovered (probable cause)" true (Engine.recovered_key e <> None);
        Alcotest.(check int) "but no verdict" 0 (List.length (Engine.verdicts e));
        Alcotest.(check (option string)) "over the recovered stream" (Some payload)
          (Engine.decrypted_stream e));
    Alcotest.test_case "no keyword match leaves key unrecoverable" `Quick (fun () ->
        let r = rule_of_string
            "alert tcp any any -> any any (content:\"userquery\"; pcre:\"/x/\"; sid:8;)" in
        let e = mk_engine ~mode:Probable [ r ] in
        let s = sender ~mode:Probable () in
        feed e (encrypt_payload ~k_ssl:(String.make 16 'S') s "GET /benign HTTP/1.1");
        Alcotest.(check (option string)) "no key" None (Engine.recovered_key e));
    Alcotest.test_case "reset keeps matching working" `Quick (fun () ->
        let rules = [ Rule.make [ Rule.make_content "evilword" ] ] in
        let e = mk_engine rules in
        let s = sender () in
        feed e (encrypt_payload s "q=evilword");
        let new_salt0 = sender_reset s in
        Engine.reset e ~salt0:new_salt0;
        feed e (encrypt_payload s "q=evilword");
        Alcotest.(check int) "hit after reset" 1 (List.length (Engine.keyword_hits e));
        Alcotest.(check int) "verdict" 1 (List.length (Engine.verdicts e)));
    Alcotest.test_case "reset preserves recovered key and monotonic hits" `Quick (fun () ->
        (* Engine.reset clears salt counters and the per-rule match state,
           but deliberately keeps [recovered_key] (probable cause already
           fired; forgetting it would un-ring the bell) and the monotonic
           [hit_count] that flow stats report. *)
        let r = rule_of_string
            "alert tcp any any -> any any (content:\"userquery\"; pcre:\"/userquery=[0-9]+'/\"; sid:9;)" in
        let e = mk_engine ~mode:Probable [ r ] in
        let s = sender ~mode:Probable () in
        let k_ssl = String.make 16 'S' in
        let writer = mk_writer k_ssl in
        let payload = "GET /?userquery=42' HTTP/1.1" in
        Engine.record_stream e (seal writer payload);
        feed e (encrypt_payload ~k_ssl s payload);
        Alcotest.(check (option string)) "key recovered" (Some k_ssl) (Engine.recovered_key e);
        let hits_before = Engine.hit_count e in
        Alcotest.(check bool) "hits seen" true (hits_before > 0);
        let new_salt0 = sender_reset s in
        Engine.reset e ~salt0:new_salt0;
        Alcotest.(check (option string)) "key survives reset" (Some k_ssl)
          (Engine.recovered_key e);
        Alcotest.(check int) "hit_count survives reset" hits_before (Engine.hit_count e);
        Alcotest.(check int) "hit list cleared" 0 (List.length (Engine.keyword_hits e));
        (* matching still works after the reset: the same keyword refires *)
        Engine.record_stream e (seal writer payload);
        feed e (encrypt_payload ~k_ssl s payload);
        Alcotest.(check bool) "rematch counted" true (Engine.hit_count e > hits_before);
        (match Engine.verdicts e with
         | [ v ] ->
           Alcotest.(check bool) "probable cause" true
             (Engine.via v.Engine.detail = `Probable_cause)
         | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))));
    Alcotest.test_case "keyword hits carry stream offsets" `Quick (fun () ->
        let rules = [ Rule.make [ Rule.make_content "evilword" ] ] in
        let e = mk_engine rules in
        let s = sender () in
        let payload = "aa bb=evilword" in
        feed e (encrypt_payload s payload);
        (match Engine.keyword_hits e with
         | [ (chunk, off) ] ->
           Alcotest.(check string) "chunk" "evilword" chunk;
           Alcotest.(check int) "offset" 6 off
         | l -> Alcotest.fail (Printf.sprintf "expected 1 hit, got %d" (List.length l))));
  ]

(* ---------- multi-connection middlebox ---------- *)

let middlebox_tests =
  let rules =
    [ Rule.make ~sid:1 [ Rule.make_content "alertkw1" ];
      Rule.make ~action:Rule.Drop ~sid:2 [ Rule.make_content "dropkw22" ] ]
  in
  let key_for conn = key_of_secret (Printf.sprintf "conn-%d" conn) in
  let ruleset = Engine.ruleset rules in
  let register mb conn =
    Shard.register mb ~conn_id:conn ~salt0:0 ~direction
      (Engine.keys ruleset ~enc_chunk:(token_enc (key_for conn)))
  in
  let tokens conn payload = encrypt_payload (sender_create Exact (key_for conn) ~salt0:0) payload in
  [ Alcotest.test_case "connections are isolated" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        register mb 2;
        (* conn 1 attacks; conn 2 stays clean *)
        let v1 = Shard.process_wire mb ~conn_id:1 (tokens 1 "x=alertkw1") in
        let v2 = Shard.process_wire mb ~conn_id:2 (tokens 2 "hello clean world") in
        Alcotest.(check int) "conn 1 alert" 1 (List.length v1);
        Alcotest.(check int) "conn 2 clean" 0 (List.length v2);
        let st = Shard.stats mb in
        Alcotest.(check int) "2 conns" 2 st.Shard.connections;
        Alcotest.(check int) "1 alert" 1 st.Shard.alerts);
    Alcotest.test_case "cross-connection tokens never match" `Quick (fun () ->
        (* per-connection keys: conn 2's attack tokens are noise to conn 1 *)
        let mb = Shard.create Engine.default_config in
        register mb 1;
        let foreign = tokens 2 "x=alertkw1" in
        Alcotest.(check int) "no match" 0
          (List.length (Shard.process_wire mb ~conn_id:1 foreign)));
    Alcotest.test_case "drop rule blocks only that connection" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        register mb 2;
        let _ = Shard.process_wire mb ~conn_id:1 (tokens 1 "x=dropkw22") in
        Alcotest.(check bool) "1 blocked" true (Shard.is_blocked mb ~conn_id:1);
        Alcotest.(check bool) "2 fine" false (Shard.is_blocked mb ~conn_id:2);
        Alcotest.(check bool) "processing blocked conn raises" true
          (match Shard.process_wire mb ~conn_id:1 (tokens 1 "more") with
           | exception Invalid_argument _ -> true
           | _ -> false);
        Alcotest.(check int) "blocked count" 1 (Shard.stats mb).Shard.blocked);
    Alcotest.test_case "duplicate registration rejected" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        Alcotest.(check bool) "raises" true
          (match register mb 1 with exception Invalid_argument _ -> true | _ -> false));
    Alcotest.test_case "unregister frees the id" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        Shard.unregister mb ~conn_id:1;
        Alcotest.(check int) "0 conns" 0 (Shard.stats mb).Shard.connections;
        register mb 1 (* re-usable *));
    Alcotest.test_case "verdicts reported once per connection" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        let v1 = Shard.process_wire mb ~conn_id:1 (tokens 1 "x=alertkw1") in
        (* same rule again in later traffic: no duplicate report *)
        let s = sender_create Exact (key_for 1) ~salt0:0 in
        let _ = encrypt_payload s "x=alertkw1" in
        let later = encrypt_payload s "y=alertkw1" in
        let v2 = Shard.process_wire mb ~conn_id:1 later in
        Alcotest.(check int) "first" 1 (List.length v1);
        Alcotest.(check int) "second" 0 (List.length v2));
  ]

(* ---------- middlebox stats accounting ---------- *)

let stats_tests =
  let rules =
    [ Rule.make ~sid:1 [ Rule.make_content "alertkw1" ];
      Rule.make ~sid:2 [ Rule.make_content "otherkw2" ];
      Rule.make ~action:Rule.Drop ~sid:3 [ Rule.make_content "dropkw33" ] ]
  in
  let key_for conn = key_of_secret (Printf.sprintf "stats-conn-%d" conn) in
  let ruleset = Engine.ruleset rules in
  let register mb conn =
    Shard.register mb ~conn_id:conn ~salt0:0 ~direction
      (Engine.keys ruleset ~enc_chunk:(token_enc (key_for conn)))
  in
  let check_stats msg (expect : Shard.stats) (got : Shard.stats) =
    Alcotest.(check int) (msg ^ ": connections") expect.Shard.connections got.Shard.connections;
    Alcotest.(check int) (msg ^ ": tokens") expect.Shard.total_tokens got.Shard.total_tokens;
    Alcotest.(check int) (msg ^ ": hits") expect.Shard.total_keyword_hits got.Shard.total_keyword_hits;
    Alcotest.(check int) (msg ^ ": alerts") expect.Shard.alerts got.Shard.alerts;
    Alcotest.(check int) (msg ^ ": blocked") expect.Shard.blocked got.Shard.blocked
  in
  [ Alcotest.test_case "list and wire paths account identically" `Quick (fun () ->
        (* the shard's wire path against the reference list path: decoded
           records through an AVL detector give the tokens and hits; each
           rule's one content fires it once, and the drop rule blocks *)
        let traffic =
          [ "x=alertkw1&noise=1"; "benign hello world"; "y=otherkw2 z=alertkw1";
            "more benign filler"; "q=dropkw33" ]
        in
        let mb = Shard.create Engine.default_config in
        register mb 1;
        let s = sender_create Exact (key_for 1) ~salt0:0 in
        let det =
          Ref_detect.create ~mode:Exact ~salt0:0
            (Array.map (token_enc (key_for 1)) (Engine.chunks ruleset))
        in
        let tokens = ref 0 and hits = ref 0 in
        List.iter
          (fun payload ->
             let wire = encrypt_payload s payload in
             let records = Records.decode_tokens wire in
             tokens := !tokens + List.length records;
             hits := !hits + List.length (Ref_detect.process_batch det records);
             ignore (Shard.process_wire mb ~conn_id:1 wire : Engine.verdict list))
          traffic;
        check_stats "parity"
          { Shard.connections = 1; total_tokens = !tokens; total_keyword_hits = !hits;
            alerts = 3; blocked = 1 }
          (Shard.stats mb);
        Alcotest.(check bool) "hits non-zero" true (!hits > 0));
    Alcotest.test_case "repeated alerts counted once per rule per connection" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        let s = sender_create Exact (key_for 1) ~salt0:0 in
        let send payload = Shard.process_wire mb ~conn_id:1 (encrypt_payload s payload) in
        ignore (send "a=alertkw1" : Engine.verdict list);
        ignore (send "b=alertkw1" : Engine.verdict list);
        ignore (send "c=alertkw1" : Engine.verdict list);
        let st = Shard.stats mb in
        Alcotest.(check int) "one alert" 1 st.Shard.alerts;
        (* every occurrence still counts as a keyword hit *)
        Alcotest.(check int) "three hits" 3 st.Shard.total_keyword_hits);
    Alcotest.test_case "flow stats track per-connection activity" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        register mb 2;
        let s1 = sender_create Exact (key_for 1) ~salt0:0 in
        let t1 = encrypt_payload s1 "x=alertkw1 pad" in
        ignore (Shard.process_wire mb ~conn_id:1 t1 : Engine.verdict list);
        let f1 = Shard.flow_stats mb ~conn_id:1 in
        let f2 = Shard.flow_stats mb ~conn_id:2 in
        Alcotest.(check int) "conn 1 tokens" (wire_token_count t1) f1.Shard.flow_tokens;
        Alcotest.(check int) "conn 1 hits" 1 f1.Shard.flow_hits;
        Alcotest.(check int) "conn 1 verdicts" 1 f1.Shard.flow_verdicts;
        Alcotest.(check bool) "conn 1 not blocked" false f1.Shard.flow_blocked;
        Alcotest.(check int) "conn 2 idle" 0 f2.Shard.flow_tokens;
        let total =
          Shard.fold_flows mb ~init:0 ~f:(fun acc _ f -> acc + f.Shard.flow_tokens)
        in
        Alcotest.(check int) "fold sums tokens" (wire_token_count t1) total);
    Alcotest.test_case "blocked connections accounted exactly once" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        register mb 2;
        let s1 = sender_create Exact (key_for 1) ~salt0:0 in
        ignore (Shard.process_wire mb ~conn_id:1 (encrypt_payload s1 "q=dropkw33")
                : Engine.verdict list);
        let st = Shard.stats mb in
        Alcotest.(check int) "blocked 1" 1 st.Shard.blocked;
        Alcotest.(check bool) "flow blocked" true
          (Shard.flow_stats mb ~conn_id:1).Shard.flow_blocked;
        (* the blocked count survives further traffic on other connections *)
        let s2 = sender_create Exact (key_for 2) ~salt0:0 in
        ignore (Shard.process_wire mb ~conn_id:2 (encrypt_payload s2 "benign")
                : Engine.verdict list);
        Alcotest.(check int) "still 1" 1 (Shard.stats mb).Shard.blocked);
    Alcotest.test_case "unregister drops the connection but keeps totals" `Quick (fun () ->
        let mb = Shard.create Engine.default_config in
        register mb 1;
        let s = sender_create Exact (key_for 1) ~salt0:0 in
        let toks = encrypt_payload s "x=alertkw1" in
        ignore (Shard.process_wire mb ~conn_id:1 toks : Engine.verdict list);
        let before = Shard.stats mb in
        Shard.unregister mb ~conn_id:1;
        let after = Shard.stats mb in
        Alcotest.(check int) "0 connections" 0 after.Shard.connections;
        Alcotest.(check int) "tokens kept" before.Shard.total_tokens after.Shard.total_tokens;
        Alcotest.(check int) "hits kept" before.Shard.total_keyword_hits after.Shard.total_keyword_hits;
        Alcotest.(check int) "alerts kept" before.Shard.alerts after.Shard.alerts;
        Alcotest.(check bool) "flow stats gone" true
          (match Shard.flow_stats mb ~conn_id:1 with
           | exception Invalid_argument _ -> true
           | _ -> false);
        (* re-registering restarts the flow from zero *)
        register mb 1;
        Alcotest.(check int) "fresh flow" 0
          (Shard.flow_stats mb ~conn_id:1).Shard.flow_tokens);
    Alcotest.test_case "keys_bytes counts the encs and the keys record exactly" `Quick (fun () ->
        let rs = Engine.ruleset (Datasets.generate Datasets.Emerging_threats ~n:20) in
        let keys = Engine.keys rs ~enc_chunk in
        let word = Sys.word_size / 8 in
        let n = Array.length (Engine.chunks rs) in
        (* a string is its bytes rounded up to whole words (always one
           padding byte) plus a header word *)
        let str_bytes s = (((String.length s + word) / word) + 1) * word in
        let encs =
          Array.fold_left (fun a c -> a + str_bytes (enc_chunk c)) 0 (Engine.chunks rs)
        in
        let headers = ((n + 1) * word) (* encs array *) + (4 * word) (* keys record *) in
        Alcotest.(check int) "encs + headers" (encs + headers) (Engine.keys_bytes keys);
        (* ... which is what the heap holds beyond the borrowed ruleset *)
        Alcotest.(check int) "reachable words"
          (word * (Obj.reachable_words (Obj.repr keys) - Obj.reachable_words (Obj.repr rs)))
          (Engine.keys_bytes keys));
    Alcotest.test_case "hit vectors are charged from a chunk's first hit" `Quick (fun () ->
        let rs = Engine.ruleset (Datasets.generate Datasets.Emerging_threats ~n:3000) in
        let keys = Engine.keys rs ~enc_chunk in
        let word = Sys.word_size / 8 in
        let fresh () = Engine.make Engine.default_config keys ~direction ~salt0:0 in
        let idle = fresh () and hit = fresh () in
        let counts = Array.make (Array.length (Engine.chunks rs)) 0 in
        feed hit (reference_records (Engine.chunks rs) ~salt0:0 counts ~base:0 [ 0 ]);
        Alcotest.(check int) "one hit" 1 (Engine.hit_count hit);
        (* a restored engine queues every undecided rule, so two restored
           engines differ by their hit evidence alone: one offset in one
           vector (record and array of 4 words + 1) in [hit], and nothing
           for the 12 045 chunks without a hit in either *)
        let restored e = Engine.footprint_bytes (Engine.restore (Engine.snapshot e)) in
        Alcotest.(check int) "one vector of one offset" (5 * word) (restored hit - restored idle));
  ]

(* ---------- tiered escalation over recovered record streams ---------- *)

let tiered_tests =
  let k_ssl = String.make 16 'K' in
  let pcre_rule sid =
    rule_of_string
      (Printf.sprintf
         "alert tcp any any -> any any (content:\"userquery\"; \
          pcre:\"/userquery=[0-9]+'/\"; sid:%d;)"
         sid)
  in
  let mk_writer () = Record.create ~key:k_ssl ~direction:"client->server" () in
  (* Ship one delivery the way Session does: the sealed record first (the
     escalation pump decrypts in stream order), then the token stream. *)
  let deliver e s writer payload =
    Engine.record_stream e (Record.seal writer ("T" ^ payload));
    feed e (encrypt_payload ~k_ssl s payload)
  in
  [ Alcotest.test_case "records escalate to a regex verdict, no caller plaintext"
      `Quick (fun () ->
        let e = mk_engine ~mode:Probable [ pcre_rule 31 ] in
        let s = sender ~mode:Probable () in
        let writer = mk_writer () in
        let payload = "GET /?userquery=42' HTTP/1.1" in
        deliver e s writer payload;
        Alcotest.(check bool) "unlocked" true (Engine.escalation e = `Unlocked);
        Alcotest.(check (option string)) "stream recovered" (Some payload)
          (Engine.decrypted_stream e);
        (match Engine.verdicts e with
         | [ v ] ->
           Alcotest.(check bool) "probable cause" true
             (Engine.via v.Engine.detail = `Probable_cause);
           Alcotest.(check string) "regex-match detail" "regex-match"
             (Engine.detail_name v.Engine.detail)
         | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))));
    Alcotest.test_case "budget exhaustion flags, never matches" `Quick (fun () ->
        let budget = { Engine.max_plain_bytes = 32; max_scan_ms = 0 } in
        let e =
          mk_engine_with { Engine.default_config with mode = Probable; budget }
            [ pcre_rule 32 ]
        in
        let s = sender ~mode:Probable () in
        let writer = mk_writer () in
        let payload = "GET /?userquery=42' HTTP/1.1 " ^ String.make 400 'z' in
        deliver e s writer payload;
        Alcotest.(check bool) "exhausted" true (Engine.escalation e = `Exhausted);
        (match Engine.verdicts e with
         | [ v ] ->
           Alcotest.(check string) "flagged, not matched" "budget-exceeded"
             (Engine.detail_name v.Engine.detail)
         | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))));
    Alcotest.test_case "escalated state survives reset" `Quick (fun () ->
        let e = mk_engine ~mode:Probable [ pcre_rule 33 ] in
        let s = sender ~mode:Probable () in
        let writer = mk_writer () in
        let p1 = "GET /?userquery=42' HTTP/1.1" in
        deliver e s writer p1;
        Alcotest.(check int) "verdict before reset" 1
          (List.length (Engine.verdicts e));
        let new_salt0 = sender_reset s in
        Engine.reset e ~salt0:new_salt0;
        (* the whole escalation state downstream of probable cause is a
           connection-lifetime fact: a salt rotation must not forget it *)
        Alcotest.(check (option string)) "key survives" (Some k_ssl)
          (Engine.recovered_key e);
        Alcotest.(check bool) "still unlocked" true (Engine.escalation e = `Unlocked);
        Alcotest.(check (option string)) "stream survives" (Some p1)
          (Engine.decrypted_stream e);
        Alcotest.(check int) "not reported again" 0 (List.length (Engine.verdicts e));
        (match Engine.decided e with
         | [ v ] ->
           Alcotest.(check string) "sticky decision kept" "regex-match"
             (Engine.detail_name v.Engine.detail)
         | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs)));
        (* the record layer keeps decrypting across the reset: sequence
           numbers continue, so a post-reset record still opens *)
        let p2 = " and more userquery=7' data" in
        deliver e s writer p2;
        Alcotest.(check (option string)) "stream extends" (Some (p1 ^ p2))
          (Engine.decrypted_stream e));
    Alcotest.test_case "tier gates which rules execute" `Quick (fun () ->
        let rules =
          [ rule_of_string
              "alert tcp any any -> any any (content:\"alertkw1\"; sid:41;)";
            rule_of_string
              "alert tcp any any -> any any (content:\"firstkey\"; content:\"secondkey\"; sid:42;)";
            pcre_rule 43 ]
        in
        let payload = "x=alertkw1 y=firstkey z=secondkey GET /?userquery=42' q" in
        let run tier =
          let e = mk_engine_with { Engine.default_config with mode = Probable; tier } rules in
          let s = sender ~mode:Probable () in
          let writer = mk_writer () in
          deliver e s writer payload;
          ( List.sort_uniq compare
              (List.map
                 (fun v -> Option.value v.Engine.rule.Rule.sid ~default:0)
                 (Engine.verdicts e)),
            e )
        in
        let sids1, e1 = run Classify.Protocol_I in
        Alcotest.(check (list int)) "tier 1: exact only" [ 41 ] sids1;
        Alcotest.(check bool) "tier getter" true
          ((Engine.config e1).Engine.tier = Classify.Protocol_I);
        let sids2, e2 = run Classify.Protocol_II in
        Alcotest.(check (list int)) "tier 2: no decrypt rules" [ 41; 42 ] sids2;
        (* below tier 3 the engine never retains records *)
        Alcotest.(check (option string)) "no stream at tier 2" None
          (Engine.decrypted_stream e2);
        let sids3, _ = run Classify.Protocol_III in
        Alcotest.(check (list int)) "tier 3: everything" [ 41; 42; 43 ] sids3);
    Alcotest.test_case "verdict details name the protocol that fired" `Quick
      (fun () ->
        let rules =
          [ rule_of_string
              "alert tcp any any -> any any (content:\"alertkw1\"; sid:51;)";
            rule_of_string
              "alert tcp any any -> any any (content:\"firstkey\"; content:\"secondkey\"; sid:52;)";
            pcre_rule 53 ]
        in
        let e = mk_engine ~mode:Probable rules in
        let s = sender ~mode:Probable () in
        let writer = mk_writer () in
        deliver e s writer "x=alertkw1 y=firstkey z=secondkey GET /?userquery=42' q";
        let details =
          List.sort compare
            (List.map
               (fun v ->
                  ( Option.value v.Engine.rule.Rule.sid ~default:0,
                    Engine.detail_name v.Engine.detail ))
               (Engine.verdicts e))
        in
        Alcotest.(check (list (pair int string))) "per-class details"
          [ (51, "exact-hit"); (52, "composite-match"); (53, "regex-match") ]
          details);
  ]

(* ---------- probable-cause analysis scripts ---------- *)

let script_tests =
  let http_post ?(headers = []) ~body path =
    Bbx_net.Http.render_request (Bbx_net.Http.post ~headers ~body path)
  in
  [ Alcotest.test_case "large upload flagged" `Quick (fun () ->
        let s = Scripts.large_upload ~threshold:1000 () in
        let big = http_post ~body:(String.make 2000 'x') "/upload" in
        let small = http_post ~body:"tiny" "/upload" in
        Alcotest.(check bool) "big" true (Scripts.run s big <> None);
        Alcotest.(check bool) "small" false (Scripts.run s small <> None);
        (* GETs never flagged *)
        let get = Bbx_net.Http.render_request (Bbx_net.Http.get "/x") in
        Alcotest.(check bool) "get" false (Scripts.run s get <> None));
    Alcotest.test_case "high entropy body flagged" `Quick (fun () ->
        let s = Scripts.high_entropy_body () in
        let drbg = Bbx_crypto.Drbg.create "entropy" in
        let random_blob = http_post ~body:(Bbx_crypto.Drbg.bytes drbg 4096) "/exfil" in
        let text = http_post ~body:(String.concat " " (List.init 200 (fun _ -> "word"))) "/ok" in
        Alcotest.(check bool) "blob" true (Scripts.run s random_blob <> None);
        Alcotest.(check bool) "text" false (Scripts.run s text <> None));
    Alcotest.test_case "sql injection grammar flagged" `Quick (fun () ->
        let s = Scripts.sql_injection () in
        let evil = Bbx_net.Http.render_request (Bbx_net.Http.get "/item?id=1' union select password from users--") in
        let fine = Bbx_net.Http.render_request (Bbx_net.Http.get "/item?id=union station") in
        Alcotest.(check bool) "evil" true (Scripts.run s evil <> None);
        Alcotest.(check bool) "fine" false (Scripts.run s fine <> None));
    Alcotest.test_case "nop sled flagged" `Quick (fun () ->
        let s = Scripts.nop_sled () in
        let sled = "prefix" ^ String.make 32 '\x90' ^ "suffix" in
        Alcotest.(check bool) "sled" true (Scripts.run s sled <> None);
        Alcotest.(check bool) "short run" false
          (Scripts.run s (String.make 8 '\x90') <> None));
    Alcotest.test_case "run_all aggregates" `Quick (fun () ->
        let payload =
          http_post ~body:(String.make 200_000 '\x90') "/upload"
        in
        let findings = Scripts.run_all Scripts.defaults payload in
        let names = List.map (fun f -> f.Scripts.script) findings in
        Alcotest.(check bool) "large-upload" true (List.mem "large-upload" names);
        Alcotest.(check bool) "nop-sled" true (List.mem "nop-sled" names));
  ]

(* Snapshot/restore (connection migration) and the fleet-shared prefilter.
   The contract under test: [restore (snapshot e)] is observably identical
   to [e] — same verdicts now and on every future delivery — and a shared
   prefilter prep changes footprint, never behaviour. *)
let snapshot_tests =
  let k_ssl = String.make 16 'K' in
  let pcre_rule sid =
    rule_of_string
      (Printf.sprintf
         "alert tcp any any -> any any (content:\"userquery\"; \
          pcre:\"/userquery=[0-9]+'/\"; sid:%d;)"
         sid)
  in
  let mk_writer () = mk_writer k_ssl in
  (* everything decided so far, after evaluating what is pending *)
  let details e =
    ignore (Engine.verdicts e : Engine.verdict list);
    List.map (fun v -> (v.Engine.rule_idx, Engine.detail_name v.Engine.detail))
      (Engine.decided e)
  in
  [ Alcotest.test_case "restore is observably identical (exact mode)" `Quick (fun () ->
        let rules =
          [ Rule.make ~sid:1 [ Rule.make_content "evilword" ];
            Rule.make ~sid:2 [ Rule.make_content "otherkw2" ] ]
        in
        let e = mk_engine rules in
        let s = sender () in
        feed e (encrypt_payload s "x=evilword tail");
        Alcotest.(check int) "decided before the snapshot" 1 (List.length (Engine.verdicts e));
        let r = Engine.restore (Engine.snapshot e) in
        Alcotest.(check (list (pair int string))) "verdicts travel" (details e) (details r);
        Alcotest.(check int) "not reported again after restore" 0
          (List.length (Engine.verdicts r));
        Alcotest.(check int) "hit count travels" (Engine.hit_count e) (Engine.hit_count r);
        (* identical future: the same post-snapshot wires land the same *)
        let toks = encrypt_payload s "y=otherkw2 and evilword again" in
        feed e toks;
        feed r toks;
        Alcotest.(check (list (pair int string))) "future verdicts agree"
          (details e) (details r);
        Alcotest.(check int) "future hits agree" (Engine.hit_count e) (Engine.hit_count r);
        (* and across a salt reset *)
        let salt0 = sender_reset s in
        Engine.reset e ~salt0;
        Engine.reset r ~salt0;
        let toks = encrypt_payload s "post-reset evilword" in
        feed e toks;
        feed r toks;
        Alcotest.(check int) "post-reset hits agree" (Engine.hit_count e)
          (Engine.hit_count r));
    Alcotest.test_case "mid-escalation snapshot carries the sealed stream" `Quick
      (fun () ->
        let e = mk_engine ~mode:Probable [ pcre_rule 41 ] in
        let s = sender ~mode:Probable () in
        let writer = mk_writer () in
        let p1 = "GET /?userquery=42' HTTP/1.1" in
        (* record shipped, tokens not yet processed: the snapshot must
           carry the still-sealed pending record and the record-layer
           sequence so escalation completes on the restored side *)
        Engine.record_stream e (Record.seal writer ("T" ^ p1));
        let r = Engine.restore (Engine.snapshot e) in
        let toks = encrypt_payload ~k_ssl s p1 in
        feed e toks;
        feed r toks;
        List.iter
          (fun (name, x) ->
             Alcotest.(check bool) (name ^ " unlocked") true
               (Engine.escalation x = `Unlocked);
             Alcotest.(check (option string)) (name ^ " stream") (Some p1)
               (Engine.decrypted_stream x);
             Alcotest.(check (list (pair int string))) (name ^ " verdicts")
               [ (0, "regex-match") ] (details x))
          [ ("original", e); ("restored", r) ]);
    Alcotest.test_case "post-escalation snapshot keeps decrypting" `Quick (fun () ->
        let e = mk_engine ~mode:Probable [ pcre_rule 42 ] in
        let s = sender ~mode:Probable () in
        let writer = mk_writer () in
        let p1 = "GET /?userquery=42' HTTP/1.1" in
        Engine.record_stream e (Record.seal writer ("T" ^ p1));
        feed e (encrypt_payload ~k_ssl s p1);
        Alcotest.(check bool) "unlocked before" true (Engine.escalation e = `Unlocked);
        let r = Engine.restore (Engine.snapshot e) in
        Alcotest.(check (option string)) "key travels" (Some k_ssl)
          (Engine.recovered_key r);
        (* the record-layer sequence travels: the next sealed record still
           opens on the restored engine *)
        let p2 = " more userquery=7' data" in
        Engine.record_stream r (Record.seal writer ("T" ^ p2));
        feed r (encrypt_payload ~k_ssl s p2);
        Alcotest.(check (option string)) "stream extends after restore"
          (Some (p1 ^ p2)) (Engine.decrypted_stream r));
    Alcotest.test_case "malformed snapshots are rejected" `Quick (fun () ->
        let e = mk_engine [ Rule.make ~sid:1 [ Rule.make_content "evilword" ] ] in
        let s = sender () in
        feed e (encrypt_payload s "x=evilword");
        let blob = Engine.snapshot e in
        let rejects what b =
          Alcotest.(check bool) what true
            (match Engine.restore b with
             | exception Invalid_argument _ -> true
             | _ -> false)
        in
        rejects "empty" "";
        rejects "truncated" (String.sub blob 0 (String.length blob - 1));
        rejects "bad version" ("\xff" ^ String.sub blob 1 (String.length blob - 1));
        rejects "v1 (cipher-index byte) format"
          ("\x01" ^ String.sub blob 1 (String.length blob - 1));
        rejects "trailing garbage" (blob ^ "x"));
    Alcotest.test_case "middlebox export/import: reporting and blocking travel"
      `Quick (fun () ->
        let rules =
          [ Rule.make ~sid:1 [ Rule.make_content "alertkw1" ];
            Rule.make ~action:Rule.Drop ~sid:3 [ Rule.make_content "dropkw33" ] ]
        in
        let src = Shard.create Engine.default_config in
        let s = sender () in
        Shard.register src ~conn_id:5 ~salt0:0 ~direction
          (Engine.keys (Engine.ruleset rules) ~enc_chunk);
        Alcotest.(check int) "first report" 1
          (List.length (Shard.process_wire src ~conn_id:5 (encrypt_payload s "x=alertkw1")));
        let blob = Shard.export_conn src ~conn_id:5 in
        Alcotest.(check bool) "gone from source" true
          (match Shard.flow_stats src ~conn_id:5 with
           | exception Invalid_argument _ -> true
           | _ -> false);
        Alcotest.(check int) "source totals stay" 1 (Shard.stats src).alerts;
        let dst = Shard.create Engine.default_config in
        Shard.import_conn dst ~conn_id:5 blob;
        (* the decided rules travelled: no re-report of sid 1 *)
        Alcotest.(check int) "no re-report after import" 0
          (List.length (Shard.process_wire dst ~conn_id:5 (encrypt_payload s "x=alertkw1 again")));
        ignore (Shard.process_wire dst ~conn_id:5 (encrypt_payload s "q=dropkw33")
                : Engine.verdict list);
        Alcotest.(check bool) "drop rule blocks after import" true
          (Shard.is_blocked dst ~conn_id:5);
        (* duplicate and mode-mismatch imports are rejected *)
        Alcotest.(check bool) "duplicate id rejected" true
          (match Shard.import_conn dst ~conn_id:5 blob with
           | exception Invalid_argument _ -> true
           | _ -> false);
        let wrong = Shard.create { Engine.default_config with mode = Probable } in
        let blob2 = Shard.export_conn dst ~conn_id:5 in
        Alcotest.(check bool) "mode mismatch rejected" true
          (match Shard.import_conn wrong ~conn_id:5 blob2 with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "shard export v1 (reported-rule bitset) is rejected" `Quick
      (fun () ->
        let sh = Shard.create Engine.default_config in
        Shard.register sh ~conn_id:1 ~salt0:0 ~direction
          (Engine.keys (Engine.ruleset [ Rule.make ~sid:1 [ Rule.make_content "alertkw1" ] ])
             ~enc_chunk);
        let blob = Shard.export_conn sh ~conn_id:1 in
        let rejects what b =
          Alcotest.(check bool) what true
            (match Shard.parse_export ~mode:Exact b with
             | exception Invalid_argument _ -> true
             | _ -> false)
        in
        rejects "v1" ("\x01" ^ String.sub blob 1 (String.length blob - 1));
        rejects "trailing garbage" (blob ^ "x");
        Shard.import_conn sh ~conn_id:1 blob;
        Alcotest.(check int) "v2 round-trips" 1 (Shard.conn_count sh));
    Alcotest.test_case "shared prefilter: same verdicts, flat footprint" `Quick
      (fun () ->
        let rules = [ pcre_rule 51; Rule.make ~sid:52 [ Rule.make_content "evilword" ] ] in
        let own = mk_engine ~mode:Probable rules in
        (* two connections borrowing one ruleset (prefilter automaton
           included) and one key material *)
        let keys = Engine.keys (Engine.ruleset rules) ~enc_chunk in
        let sh = Shard.create { Engine.default_config with mode = Probable } in
        Shard.register sh ~conn_id:1 ~salt0:0 ~direction keys;
        let one = Shard.footprint_bytes sh in
        Shard.register sh ~conn_id:2 ~salt0:0 ~direction keys;
        let two = Shard.footprint_bytes sh in
        Alcotest.(check int) "borrowed ruleset and keys are charged once"
          (one - Engine.ruleset_bytes (Engine.ruleset_of keys) - Engine.keys_bytes keys)
          (two - one);
        let shared = Shard.engine sh ~conn_id:1 in
        let s = sender ~mode:Probable () in
        let w_own = mk_writer () and w_shared = mk_writer () in
        List.iter
          (fun p ->
             Engine.record_stream own (Record.seal w_own ("T" ^ p));
             Engine.record_stream shared (Record.seal w_shared ("T" ^ p));
             let toks = encrypt_payload ~k_ssl s p in
             feed own toks;
             feed shared toks;
             Alcotest.(check (list (pair int string))) ("verdicts for " ^ p)
               (details own) (details shared))
          [ "benign first"; "x=evilword"; "GET /?userquery=42' HTTP/1.1" ]);
  ]

(* Rule updates without a salt reset: a keyword the sender emitted before
   the update must match its next occurrence, because every keyword that
   survives an update keeps its salt counter. *)
let update_tests =
  let rules =
    [ Rule.make ~sid:1 [ Rule.make_content "alertkw1" ];
      Rule.make ~sid:2 [ Rule.make_content "otherkw2" ] ]
  in
  let survivor_matches_after next_rules () =
    let sh = Shard.create Engine.default_config in
    Shard.register sh ~conn_id:1 ~salt0:0 ~direction
      (Engine.keys (Engine.ruleset rules) ~enc_chunk);
    let s = sender () in
    let hits () = (Shard.flow_stats sh ~conn_id:1).Shard.flow_hits in
    ignore (Shard.process_wire sh ~conn_id:1 (encrypt_payload s "q=alertkw1") : Engine.verdict list);
    Alcotest.(check int) "first occurrence" 1 (hits ());
    Shard.update_rules sh ~conn_id:1
      (Engine.keys (Engine.ruleset next_rules) ~enc_chunk);
    ignore (Shard.process_wire sh ~conn_id:1 (encrypt_payload s "q=alertkw1") : Engine.verdict list);
    Alcotest.(check int) "next occurrence after the update" 2 (hits ())
  in
  let index_holds_reference_ciphers () =
    let rules_a =
      [ Rule.make ~sid:1 [ Rule.make_content "alertkw1" ];
        Rule.make ~sid:2 [ Rule.make_content "otherkw2"; Rule.make_content "sharedk3" ];
        Rule.make ~sid:3 [ Rule.make_content "maliciouspayload" ] ]
    in
    let rules_b =
      Engine.next_rules rules_a ~remove_sids:[ 1 ]
        ~add:[ Rule.make ~sid:4 [ Rule.make_content "freshkw4"; Rule.make_content "sharedk3" ] ]
    in
    let chunks_a = Engine.chunks (Engine.ruleset rules_a) in
    let e = mk_engine_with Engine.default_config rules_a in
    (* every chunk found at its reference cipher under its current salt:
       one hit per chunk, each at its own offset from [base] *)
    let check_index what chunks ~salt0 counts ~base =
      let n = Array.length chunks in
      let before = Engine.hit_count e in
      feed e (reference_records chunks ~salt0 counts ~base (List.init n Fun.id));
      Alcotest.(check int) (what ^ ": a hit per chunk") n (Engine.hit_count e - before);
      Alcotest.(check (list (pair string int)))
        (what ^ ": every chunk at its offset")
        (List.init n (fun j -> (chunks.(j), base + j)))
        (List.filter (fun (_, off) -> off >= base) (Engine.keyword_hits e))
    in
    let counts = Array.make (Array.length chunks_a) 0 in
    check_index "fresh" chunks_a ~salt0:0 counts ~base:100;
    feed e (reference_records chunks_a ~salt0:0 counts ~base:200 [ 1; 1; 3; 1 ]);
    check_index "after hits" chunks_a ~salt0:0 counts ~base:300;
    Engine.reset e ~salt0:40;
    Array.fill counts 0 (Array.length counts) 0;
    feed e (reference_records chunks_a ~salt0:40 counts ~base:400 [ 2; 0 ]);
    check_index "after a reset" chunks_a ~salt0:40 counts ~base:500;
    (* shared chunks keep their counters; a new chunk starts at 0 under
       the current salt epoch *)
    let rs_b = Engine.ruleset rules_b in
    let chunks_b = Engine.chunks rs_b in
    let counts_b =
      Array.map
        (fun c ->
           let rec find i =
             if i = Array.length chunks_a then 0
             else if chunks_a.(i) = c then counts.(i)
             else find (i + 1)
           in
           find 0)
        chunks_b
    in
    Alcotest.(check bool) "a new chunk and a dropped one" true
      (Array.exists (fun c -> not (Array.mem c chunks_a)) chunks_b
       && Array.exists (fun c -> not (Array.mem c chunks_b)) chunks_a);
    Engine.update e (Engine.keys rs_b ~enc_chunk);
    check_index "after an update" chunks_b ~salt0:40 counts_b ~base:600
  in
  [ Alcotest.test_case "index holds the reference ciphers: hit, reset, update" `Quick
      index_holds_reference_ciphers;
    Alcotest.test_case "add-only update keeps salt counters" `Quick
      (survivor_matches_after (rules @ [ Rule.make ~sid:3 [ Rule.make_content "freshkw3" ] ]));
    Alcotest.test_case "removing another rule keeps salt counters" `Quick
      (survivor_matches_after [ List.hd rules ]);
  ]

let () =
  Alcotest.run "mbox"
    [ ("engine", engine_tests);
      ("tiered", tiered_tests);
      ("middlebox", middlebox_tests);
      ("stats", stats_tests);
      ("snapshot", snapshot_tests);
      ("update", update_tests);
      ("scripts", script_tests) ]
