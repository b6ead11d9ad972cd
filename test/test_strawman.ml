open Bbx_strawman
open Bbx_crypto

let t8 = Bbx_tokenizer.Tokenizer.pad_short

let song_tests =
  [ Alcotest.test_case "trapdoor finds its keyword" `Quick (fun () ->
        let key = Song.key_of_secret "k" in
        let s = Song.sender_create key in
        let td = Song.trapdoor key (t8 "attack") in
        let c1 = Song.encrypt s (t8 "benign") in
        let c2 = Song.encrypt s (t8 "attack") in
        Alcotest.(check bool) "miss" false (Song.test td c1);
        Alcotest.(check bool) "hit" true (Song.test td c2));
    Alcotest.test_case "randomized: repeats differ on the wire" `Quick (fun () ->
        let key = Song.key_of_secret "k" in
        let s = Song.sender_create key in
        let c1 = Song.encrypt s (t8 "same") in
        let c2 = Song.encrypt s (t8 "same") in
        Alcotest.(check bool) "ciphertexts differ" true (c1 <> c2);
        let td = Song.trapdoor key (t8 "same") in
        Alcotest.(check bool) "both match" true (Song.test td c1 && Song.test td c2));
    Alcotest.test_case "detect scans linearly and finds the index" `Quick (fun () ->
        let key = Song.key_of_secret "k" in
        let s = Song.sender_create key in
        let tds = Array.of_list (List.map (fun w -> Song.trapdoor key (t8 w)) [ "aa"; "bb"; "cc" ]) in
        let c = Song.encrypt s (t8 "bb") in
        Alcotest.(check (option int)) "index 1" (Some 1) (Song.detect tds c);
        Alcotest.(check (option int)) "no match" None
          (Song.detect tds (Song.encrypt s (t8 "dd"))));
    Alcotest.test_case "different keys do not cross-match" `Quick (fun () ->
        let k1 = Song.key_of_secret "k1" and k2 = Song.key_of_secret "k2" in
        let s = Song.sender_create k1 in
        let td = Song.trapdoor k2 (t8 "attack") in
        Alcotest.(check bool) "miss" false (Song.test td (Song.encrypt s (t8 "attack"))));
  ]

let fe_tests =
  [ Alcotest.test_case "predicate matches equal tokens" `Quick (fun () ->
        let key = Fe.key_of_secret "k" in
        let drbg = Drbg.create "fe" in
        let c = Fe.encrypt key drbg (t8 "attack") in
        Alcotest.(check bool) "hit" true (Fe.test (Fe.rule_key key (t8 "attack")) c);
        Alcotest.(check bool) "miss" false (Fe.test (Fe.rule_key key (t8 "benign")) c));
    Alcotest.test_case "randomized ciphertexts" `Quick (fun () ->
        let key = Fe.key_of_secret "k" in
        let drbg = Drbg.create "fe2" in
        let c1 = Fe.encrypt key drbg (t8 "same") in
        let c2 = Fe.encrypt key drbg (t8 "same") in
        Alcotest.(check bool) "differ" true (c1 <> c2);
        let rk = Fe.rule_key key (t8 "same") in
        Alcotest.(check bool) "both match" true (Fe.test rk c1 && Fe.test rk c2));
    Alcotest.test_case "detect linear scan" `Quick (fun () ->
        let key = Fe.key_of_secret "k" in
        let drbg = Drbg.create "fe3" in
        let rks = Array.of_list (List.map (fun w -> Fe.rule_key key (t8 w)) [ "x"; "y" ]) in
        Alcotest.(check (option int)) "found" (Some 1)
          (Fe.detect rks (Fe.encrypt key drbg (t8 "y")));
        Alcotest.(check (option int)) "absent" None
          (Fe.detect rks (Fe.encrypt key drbg (t8 "z"))));
  ]

(* The headline relative-performance claim (Table 2's shape): DPIEnc
   encryption is orders of magnitude faster than the FE strawman and the
   Song scheme's detection is linear while BlindBox's is logarithmic. *)
let shape_tests =
  [ Alcotest.test_case "FE encryption is >100x slower than DPIEnc" `Slow (fun () ->
        let time f =
          let t0 = Unix.gettimeofday () in
          f ();
          Unix.gettimeofday () -. t0
        in
        let dpi_key = Bbx_dpienc.Dpienc.key_of_secret "k" in
        let tk = Bbx_oracle.Token_keys.token_key dpi_key (t8 "word") in
        let dpi_t =
          time (fun () ->
              for salt = 0 to 999 do ignore (Bbx_oracle.Token_keys.encrypt tk ~salt) done)
          /. 1000.0
        in
        let fe_key = Fe.key_of_secret "k" in
        let drbg = Drbg.create "shape" in
        let fe_t = time (fun () -> for _ = 1 to 10 do ignore (Fe.encrypt fe_key drbg (t8 "word")) done) /. 10.0 in
        Alcotest.(check bool)
          (Printf.sprintf "fe %.1fus vs dpi %.3fus" (fe_t *. 1e6) (dpi_t *. 1e6))
          true (fe_t > 100.0 *. dpi_t));
  ]

let () =
  Alcotest.run "strawman"
    [ ("song", song_tests); ("fe", fe_tests); ("shape", shape_tests) ]
