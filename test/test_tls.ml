open Bbx_crypto
open Bbx_tls

let handshake_tests =
  [ Alcotest.test_case "both sides derive identical keys" `Quick (fun () ->
        let st, client_share = Handshake.initiate (Drbg.create "client") in
        let server_keys, server_share = Handshake.respond (Drbg.create "server") ~peer_share:client_share in
        let client_keys = Handshake.complete st ~peer_share:server_share in
        Alcotest.(check string) "k_ssl" server_keys.Handshake.k_ssl client_keys.Handshake.k_ssl;
        Alcotest.(check string) "k" server_keys.Handshake.k client_keys.Handshake.k;
        Alcotest.(check string) "k_rand" server_keys.Handshake.k_rand client_keys.Handshake.k_rand);
    Alcotest.test_case "three keys are independent" `Quick (fun () ->
        let keys = Handshake.derive_keys "master" in
        Alcotest.(check bool) "ssl<>dpi" true (keys.Handshake.k_ssl <> keys.Handshake.k);
        Alcotest.(check int) "k_ssl 16" 16 (String.length keys.Handshake.k_ssl);
        Alcotest.(check int) "k 16" 16 (String.length keys.Handshake.k);
        Alcotest.(check int) "k_rand 32" 32 (String.length keys.Handshake.k_rand));
    Alcotest.test_case "sessions with different peers differ" `Quick (fun () ->
        let _, share1 = Handshake.initiate (Drbg.create "c1") in
        let k1, _ = Handshake.respond (Drbg.create "s") ~peer_share:share1 in
        let _, share2 = Handshake.initiate (Drbg.create "c2") in
        let k2, _ = Handshake.respond (Drbg.create "s") ~peer_share:share2 in
        Alcotest.(check bool) "differ" true (k1.Handshake.k_ssl <> k2.Handshake.k_ssl));
    Alcotest.test_case "bad share length rejected" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Handshake: bad key-share length")
          (fun () -> ignore (Handshake.respond (Drbg.create "s") ~peer_share:"short")));
  ]

let record_tests =
  [ Alcotest.test_case "seal/open round trip" `Quick (fun () ->
        let w = Record.create ~key:"k" ~direction:"c2s" () in
        let r = Record.create ~key:"k" ~direction:"c2s" () in
        List.iter
          (fun msg -> Alcotest.(check string) "msg" msg (Record.open_ r (Record.seal w msg)))
          [ "hello"; ""; String.make 5000 'x'; "final" ]);
    Alcotest.test_case "directions are independent" `Quick (fun () ->
        let w = Record.create ~key:"k" ~direction:"c2s" () in
        let r = Record.create ~key:"k" ~direction:"s2c" () in
        Alcotest.check_raises "raises" Record.Auth_failure
          (fun () -> ignore (Record.open_ r (Record.seal w "x"))));
    Alcotest.test_case "tamper detected" `Quick (fun () ->
        let w = Record.create ~key:"k" ~direction:"d" () in
        let r = Record.create ~key:"k" ~direction:"d" () in
        let rec_ = Record.seal w "attack at dawn" in
        let bad = String.mapi (fun i c -> if i = 14 then Char.chr (Char.code c lxor 1) else c) rec_ in
        Alcotest.check_raises "raises" Record.Auth_failure
          (fun () -> ignore (Record.open_ r bad)));
    Alcotest.test_case "replay detected" `Quick (fun () ->
        let w = Record.create ~key:"k" ~direction:"d" () in
        let r = Record.create ~key:"k" ~direction:"d" () in
        let rec_ = Record.seal w "once" in
        Alcotest.(check string) "first ok" "once" (Record.open_ r rec_);
        Alcotest.check_raises "raises" Record.Auth_failure
          (fun () -> ignore (Record.open_ r rec_)));
    Alcotest.test_case "reorder detected" `Quick (fun () ->
        let w = Record.create ~key:"k" ~direction:"d" () in
        let r = Record.create ~key:"k" ~direction:"d" () in
        let r1 = Record.seal w "one" in
        let r2 = Record.seal w "two" in
        Alcotest.check_raises "raises" Record.Auth_failure
          (fun () -> ignore (Record.open_ r r2));
        Alcotest.(check string) "in order still fine" "one" (Record.open_ r r1));
    Alcotest.test_case "wrong key detected" `Quick (fun () ->
        let w = Record.create ~key:"k1" ~direction:"d" () in
        let r = Record.create ~key:"k2" ~direction:"d" () in
        Alcotest.check_raises "raises" Record.Auth_failure
          (fun () -> ignore (Record.open_ r (Record.seal w "x"))));
    Alcotest.test_case "ciphertext hides plaintext" `Quick (fun () ->
        let w = Record.create ~key:"k" ~direction:"d" () in
        let rec_ = Record.seal w "supersecretpayload" in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "hidden" false (contains rec_ "supersecret"));
  ]

let ssldump_tests =
  [ Alcotest.test_case "decrypts a recorded stream" `Quick (fun () ->
        let keys = Handshake.derive_keys "master" in
        let w = Record.create ~key:keys.Handshake.k_ssl ~direction:"c2s" () in
        let records = List.map (Record.seal w) [ "GET /a"; "GET /b"; "GET /c" ] in
        Alcotest.(check string) "stream" "GET /aGET /bGET /c"
          (Ssldump.decrypt_stream ~k_ssl:keys.Handshake.k_ssl ~direction:"c2s" records));
    Alcotest.test_case "wrong key fails" `Quick (fun () ->
        let keys = Handshake.derive_keys "master" in
        let w = Record.create ~key:keys.Handshake.k_ssl ~direction:"c2s" () in
        let records = [ Record.seal w "data" ] in
        Alcotest.check_raises "raises" Record.Auth_failure
          (fun () ->
             ignore (Ssldump.decrypt_stream ~k_ssl:(String.make 16 'z') ~direction:"c2s" records)));
  ]

let () =
  Alcotest.run "tls"
    [ ("handshake", handshake_tests); ("record", record_tests); ("ssldump", ssldump_tests) ]
