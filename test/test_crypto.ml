open Bbx_crypto

let hex = Util.of_hex

let check_hex msg expected got = Alcotest.(check string) msg expected (Util.to_hex got)

let aes_tests =
  [ Alcotest.test_case "FIPS-197 appendix C.1" `Quick (fun () ->
        let key = Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
        let ct = Aes.encrypt_block key (hex "00112233445566778899aabbccddeeff") in
        check_hex "ciphertext" "69c4e0d86a7b0430d8cdb78070b4c55a" ct;
        check_hex "decrypt" "00112233445566778899aabbccddeeff" (Aes.decrypt_block key ct));
    Alcotest.test_case "NIST SP800-38A ECB vector" `Quick (fun () ->
        let key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
        check_hex "block 1" "3ad77bb40d7a3660a89ecaf32466ef97"
          (Aes.encrypt_block key (hex "6bc1bee22e409f96e93d7e117393172a")));
    Alcotest.test_case "sbox spot values" `Quick (fun () ->
        Alcotest.(check int) "S(0x00)" 0x63 Aes.sbox.(0x00);
        Alcotest.(check int) "S(0x01)" 0x7c Aes.sbox.(0x01);
        Alcotest.(check int) "S(0x53)" 0xed Aes.sbox.(0x53);
        Alcotest.(check int) "S(0xff)" 0x16 Aes.sbox.(0xff));
    Alcotest.test_case "bad key length" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Aes.expand_key: key must be 16 bytes")
          (fun () -> ignore (Aes.expand_key "short")));
    Alcotest.test_case "ctr round trip" `Quick (fun () ->
        let key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
        let nonce = hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
        let msg = "the quick brown fox jumps over the lazy dog, twice over" in
        let ct = Aes.ctr_transform key ~nonce msg in
        Alcotest.(check bool) "differs" true (ct <> msg);
        Alcotest.(check string) "round trip" msg (Aes.ctr_transform key ~nonce ct));
    Alcotest.test_case "ctr known vector SP800-38A F.5.1" `Quick (fun () ->
        let key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
        let nonce = hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
        check_hex "ct" "874d6191b620e3261bef6864990db6ce"
          (Aes.ctr_transform key ~nonce (hex "6bc1bee22e409f96e93d7e117393172a")));
    Alcotest.test_case "encrypt_u64 consistent with encrypt_block" `Quick (fun () ->
        let key = Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
        let salt = 0x123456789ab in
        let block = String.make 8 '\000' ^ Util.u64_be salt in
        let full = Aes.encrypt_block key block in
        Alcotest.(check int) "prefix" (Util.read_u64_be full 0) (Aes.encrypt_u64 (Aes.key_arena key) 0 salt));
  ]

(* FIPS-197 Appendix A.1: the expansion of key 2b7e1516 28aed2a6
   abf71588 09cf4f3c, w0..w43 as the standard prints them (big-endian
   words; an arena packs each column little-endian). *)
let fips_a1_words =
  [| 0x2b7e1516; 0x28aed2a6; 0xabf71588; 0x09cf4f3c; 0xa0fafe17; 0x88542cb1;
     0x23a33939; 0x2a6c7605; 0xf2c295f2; 0x7a96b943; 0x5935807a; 0x7359f67f;
     0x3d80477d; 0x4716fe3e; 0x1e237e44; 0x6d7a883b; 0xef44a541; 0xa8525b7f;
     0xb671253b; 0xdb0bad00; 0xd4d1c6f8; 0x7c839d87; 0xcaf2b8bc; 0x11f915bc;
     0x6d88a37a; 0x110b3efd; 0xdbf98641; 0xca0093fd; 0x4e54f70e; 0x5f5fc9f3;
     0x84a64fb2; 0x4ea6dc4f; 0xead27321; 0xb58dbad2; 0x312bf560; 0x7f8d292f;
     0xac7766f3; 0x19fadc21; 0x28d12941; 0x575c006e; 0xd014f9a8; 0xc9ee2589;
     0xe13f0cc8; 0xb6630ca6 |]

let bswap32 v =
  ((v land 0xff) lsl 24) lor ((v land 0xff00) lsl 8)
  lor ((v lsr 8) land 0xff00) lor ((v lsr 24) land 0xff)

let key16 = QCheck.Gen.(string_size ~gen:char (return 16))

(* Salts [encrypt_u64] must agree on: both sides of the 2^32 fast-path
   boundary, and one random salt below and above it. *)
let salt_cases lo hi = [ 0; 1; (1 lsl 32) - 1; 1 lsl 32; lo; hi ]

(* [encrypt_u64] is the first 8 bytes of [encrypt_block] on
   0^8 || BE64(v) (62-bit mask), and [encrypt_u64_into] the whole
   block, under the key at ([arena], [slot]). *)
let u64_agrees key arena slot v =
  let full = Aes.encrypt_block key (String.make 8 '\000' ^ Util.u64_be v) in
  let dst = Bytes.make 20 '\000' in
  Aes.encrypt_u64_into arena slot v ~dst ~dst_off:3;
  Aes.encrypt_u64 arena slot v = Util.read_u64_be full 0
  && Bytes.sub_string dst 3 16 = full

let arena_tests =
  let prop name ?(count = 200) gen f =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count (QCheck.make gen) f)
  in
  [ Alcotest.test_case "FIPS-197 A.1 schedule in an arena slot" `Quick (fun () ->
        let a = Array.make (3 * Aes.key_words) (-1) in
        Aes.expand_into a 1 (hex "2b7e151628aed2a6abf7158809cf4f3c");
        Array.iteri
          (fun i w ->
             Alcotest.(check int) (Printf.sprintf "w%d" i) w (bswap32 a.(Aes.key_words + i)))
          fips_a1_words;
        let untouched o = Array.for_all (( = ) (-1)) (Array.sub a o Aes.key_words) in
        Alcotest.(check bool) "slot 0 untouched" true (untouched 0);
        Alcotest.(check bool) "slot 2 untouched" true (untouched (2 * Aes.key_words));
        Alcotest.(check (array int)) "matches the byte-wise reference"
          (Bbx_oracle.Ref_aes.arena_words (hex "2b7e151628aed2a6abf7158809cf4f3c"))
          (Array.sub a Aes.key_words Aes.key_words));
    Alcotest.test_case "arena slot and key length are checked" `Quick (fun () ->
        let a = Array.make (2 * Aes.key_words) 0 in
        let k = String.make 16 'k' in
        Alcotest.check_raises "slot past the end"
          (Invalid_argument "Aes.expand_into: slot out of range")
          (fun () -> Aes.expand_into a 2 k);
        Alcotest.check_raises "short key" (Invalid_argument "Aes.expand_into: key must be 16 bytes")
          (fun () -> Aes.expand_into a 0 "short");
        Alcotest.check_raises "one-shot short key"
          (Invalid_argument "Aes.encrypt_u64_once: key must be 16 bytes")
          (fun () -> ignore (Aes.encrypt_u64_once (String.make 17 'k') 0 : int));
        Alcotest.check_raises "encrypt past the end"
          (Invalid_argument "Aes.encrypt_u64: slot out of range")
          (fun () -> ignore (Aes.encrypt_u64 a 2 0 : int));
        Alcotest.check_raises "negative slot"
          (Invalid_argument "Aes.encrypt_u64_into: slot out of range")
          (fun () -> Aes.encrypt_u64_into a (-1) 0 ~dst:(Bytes.create 16) ~dst_off:0));
    prop "word-wise expansion equals the byte-wise reference" ~count:500
      QCheck.Gen.(pair key16 (int_bound 3))
      (fun (k, slot) ->
         let a = Array.make (4 * Aes.key_words) 0 in
         Aes.expand_into a slot k;
         Array.sub a (slot * Aes.key_words) Aes.key_words = Bbx_oracle.Ref_aes.arena_words k);
    prop "encrypt_u64 agrees with encrypt_block, boxed and in slot 2" ~count:300
      QCheck.Gen.(quad key16 key16 (int_bound ((1 lsl 32) - 1)) (int_range (1 lsl 32) max_int))
      (fun (k, other, lo, hi) ->
         let key = Aes.expand_key k in
         let a = Array.make (3 * Aes.key_words) 0 in
         Aes.expand_into a 0 other;
         Aes.expand_into a 1 other;
         Aes.expand_into a 2 k;
         List.for_all
           (fun v -> u64_agrees key (Aes.key_arena key) 0 v && u64_agrees key a 2 v)
           (salt_cases lo hi));
    prop "one-shot cipher equals encrypt_u64 under expand_key" ~count:300
      QCheck.Gen.(triple key16 (int_bound ((1 lsl 32) - 1)) (int_range (1 lsl 32) max_int))
      (fun (k, lo, hi) ->
         let a = Aes.key_arena (Aes.expand_key k) in
         List.for_all
           (fun v -> Aes.encrypt_u64_once k v = Aes.encrypt_u64 a 0 v)
           (max_int :: salt_cases lo hi));
    Alcotest.test_case "the block entry points allocate nothing" `Quick (fun () ->
        let k = hex "000102030405060708090a0b0c0d0e0f" in
        let a = Array.make (2 * Aes.key_words) 0 in
        Aes.expand_into a 1 k;
        let src = Bytes.make 16 'p' and dst = Bytes.create 16 in
        (* minor words allocated by 1 000 calls of [f], less those of a
           loop that calls nothing: the closure is built before the first
           reading *)
        let words f =
          let w0 = Gc.minor_words () in
          for i = 1 to 1000 do f i done;
          Gc.minor_words () -. w0
        in
        let empty = words (fun _ -> ()) in
        List.iter
          (fun (name, f) -> Alcotest.(check (float 0.)) name empty (words f))
          [ ("encrypt_u64 below 2^32", fun i ->
                ignore (Sys.opaque_identity (Aes.encrypt_u64 a 1 i) : int));
            ("encrypt_u64 above 2^32", fun i ->
                ignore (Sys.opaque_identity (Aes.encrypt_u64 a 1 ((1 lsl 40) + i)) : int));
            ("encrypt_u64_into below 2^32", fun i -> Aes.encrypt_u64_into a 1 i ~dst ~dst_off:0);
            ("encrypt_u64_into above 2^32", fun i ->
                Aes.encrypt_u64_into a 1 ((1 lsl 40) + i) ~dst ~dst_off:0);
            ("encrypt_block_into", fun _ ->
                Aes.encrypt_block_into a 1 ~src ~src_off:0 ~dst ~dst_off:0);
            ("expand_into", fun _ -> Aes.expand_into a 0 k);
            ("encrypt_u64_once", fun i ->
                ignore (Sys.opaque_identity (Aes.encrypt_u64_once k i) : int)) ]);
  ]

let sha_tests =
  [ Alcotest.test_case "empty string" `Quick (fun () ->
        Alcotest.(check string) "digest"
          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
          (Sha256.hexdigest ""));
    Alcotest.test_case "abc" `Quick (fun () ->
        Alcotest.(check string) "digest"
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
          (Sha256.hexdigest "abc"));
    Alcotest.test_case "two-block message" `Quick (fun () ->
        Alcotest.(check string) "digest"
          "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
          (Sha256.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    Alcotest.test_case "million a's (streaming)" `Slow (fun () ->
        let ctx = Sha256.init () in
        for _ = 1 to 10_000 do Sha256.update ctx (String.make 100 'a') done;
        Alcotest.(check string) "digest"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (Util.to_hex (Sha256.final ctx)));
    Alcotest.test_case "streaming equals one-shot at odd boundaries" `Quick (fun () ->
        let msg = String.init 200 (fun i -> Char.chr (i land 0xff)) in
        List.iter
          (fun cut ->
             let ctx = Sha256.init () in
             Sha256.update ctx (String.sub msg 0 cut);
             Sha256.update ctx (String.sub msg cut (200 - cut));
             Alcotest.(check string) (Printf.sprintf "cut=%d" cut)
               (Sha256.hexdigest msg) (Util.to_hex (Sha256.final ctx)))
          [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 199 ]);
  ]

let hmac_tests =
  [ Alcotest.test_case "RFC 4231 case 1" `Quick (fun () ->
        let key = String.make 20 '\x0b' in
        check_hex "tag" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
          (Hmac.mac ~key "Hi There"));
    Alcotest.test_case "RFC 4231 case 2" `Quick (fun () ->
        check_hex "tag" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
          (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
    Alcotest.test_case "long key is hashed" `Quick (fun () ->
        let key = String.make 131 '\xaa' in
        check_hex "tag" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
          (Hmac.mac ~key "Test Using Larger Than Block-Size Key - Hash Key First"));
    Alcotest.test_case "verify accepts and rejects" `Quick (fun () ->
        let tag = Hmac.mac ~key:"k" "data" in
        Alcotest.(check bool) "good" true (Hmac.verify ~key:"k" ~tag "data");
        Alcotest.(check bool) "bad data" false (Hmac.verify ~key:"k" ~tag "datb");
        Alcotest.(check bool) "bad key" false (Hmac.verify ~key:"K" ~tag "data"));
  ]

let kdf_tests =
  [ Alcotest.test_case "RFC 5869 test case 1" `Quick (fun () ->
        let ikm = String.make 22 '\x0b' in
        let salt = hex "000102030405060708090a0b0c" in
        let prk = Kdf.extract ~salt ikm in
        check_hex "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
        check_hex "okm"
          "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
          (Kdf.expand ~prk ~info:(hex "f0f1f2f3f4f5f6f7f8f9") 42));
    Alcotest.test_case "derive labels independent" `Quick (fun () ->
        let a = Kdf.derive ~secret:"s" ~label:"a" 32 in
        let b = Kdf.derive ~secret:"s" ~label:"b" 32 in
        Alcotest.(check bool) "differ" true (a <> b));
    Alcotest.test_case "expand length cap" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Kdf.expand: output too long")
          (fun () -> ignore (Kdf.expand ~prk:"p" ~info:"" (255 * 32 + 1))));
  ]

let drbg_tests =
  [ Alcotest.test_case "deterministic" `Quick (fun () ->
        let a = Drbg.create "seed" and b = Drbg.create "seed" in
        Alcotest.(check string) "same stream" (Drbg.bytes a 100) (Drbg.bytes b 100));
    Alcotest.test_case "seed sensitivity" `Quick (fun () ->
        let a = Drbg.create "seed1" and b = Drbg.create "seed2" in
        Alcotest.(check bool) "differ" true (Drbg.bytes a 32 <> Drbg.bytes b 32));
    Alcotest.test_case "chunking does not matter" `Quick (fun () ->
        let a = Drbg.create "s" and b = Drbg.create "s" in
        let big = Drbg.bytes a 50 in
        let p1 = Drbg.bytes b 7 in
        let p2 = Drbg.bytes b 13 in
        let p3 = Drbg.bytes b 30 in
        let parts = p1 ^ p2 ^ p3 in
        Alcotest.(check string) "same" big parts);
    Alcotest.test_case "fork independence" `Quick (fun () ->
        let a = Drbg.create "s" in
        let f1 = Drbg.fork a "x" and f2 = Drbg.fork a "y" in
        Alcotest.(check bool) "forks differ" true (Drbg.bytes f1 32 <> Drbg.bytes f2 32);
        let b = Drbg.create "s" in
        Alcotest.(check string) "parent undisturbed" (Drbg.bytes b 32) (Drbg.bytes a 32));
    Alcotest.test_case "uniform in range" `Quick (fun () ->
        let d = Drbg.create "u" in
        for _ = 1 to 1000 do
          let v = Drbg.uniform d 17 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
        done);
    Alcotest.test_case "uniform covers range" `Quick (fun () ->
        let d = Drbg.create "cover" in
        let seen = Array.make 5 false in
        for _ = 1 to 200 do seen.(Drbg.uniform d 5) <- true done;
        Alcotest.(check bool) "all hit" true (Array.for_all Fun.id seen));
  ]

let util_props =
  let prop name ?(count = 200) arb f =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)
  in
  [ prop "hex round trip" QCheck.string (fun s -> Util.of_hex (Util.to_hex s) = s);
    prop "xor self-inverse" QCheck.(pair string string) (fun (a, b) ->
        let n = min (String.length a) (String.length b) in
        let a = String.sub a 0 n and b = String.sub b 0 n in
        Util.xor (Util.xor a b) b = a);
    prop "ct_equal is equality" QCheck.(pair string string) (fun (a, b) ->
        Util.ct_equal a b = (a = b));
    prop "u64 round trip" QCheck.(int_bound max_int) (fun v ->
        let v = v land ((1 lsl 62) - 1) in
        Util.read_u64_be (Util.u64_be v) 0 = v);
    prop "aes enc/dec round trip" ~count:100 QCheck.(pair string string) (fun (ks, bs) ->
        let pad s = (s ^ String.make 16 '\000') |> fun s -> String.sub s 0 16 in
        let key = Aes.expand_key (pad ks) in
        let block = pad bs in
        Aes.decrypt_block key (Aes.encrypt_block key block) = block);
    prop "sha256 distinct on distinct inputs" QCheck.(pair string string) (fun (a, b) ->
        a = b || Sha256.digest a <> Sha256.digest b);
    prop "T-table AES equals reference AES" ~count:300 QCheck.(pair string string)
      (fun (ks, bs) ->
         let pad s = (s ^ String.make 16 '\000') |> fun s -> String.sub s 0 16 in
         let key = Aes.expand_key (pad ks) in
         Aes.encrypt_block key (pad bs) = Aes.encrypt_block_reference key (pad bs));
  ]

let () =
  Alcotest.run "crypto"
    [ ("aes", aes_tests);
      ("aes-arena", arena_tests);
      ("sha256", sha_tests);
      ("hmac", hmac_tests);
      ("kdf", kdf_tests);
      ("drbg", drbg_tests);
      ("util-props", util_props);
    ]
