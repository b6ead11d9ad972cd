(* Executable security properties: statistical and structural checks of
   the privacy models (the indistinguishability proofs live in the
   paper's extended version; these tests rule out the *observable*
   failure modes — frequency leakage, salt reuse, key exposure without
   probable cause, trivially biased ciphertexts). *)

open Bbx_dpienc.Dpienc
open Bbx_oracle.Records
open Bbx_oracle.Token_keys

let key = key_of_secret "security-suite-k"

let pad_short = Bbx_tokenizer.Tokenizer.pad_short

let mk_tokens contents =
  List.mapi (fun i c -> { Bbx_oracle.Tokens.content = pad_short c; offset = 8 * i }) contents

(* ---------- exact match privacy ---------- *)

let exact_match_tests =
  [ Alcotest.test_case "no equality pattern leaks across a long stream" `Quick (fun () ->
        (* two streams with very different repetition structure produce
           ciphertext multisets that are both all-distinct: an observer
           cannot tell "aaaa..." from "abcd..." by repetitions *)
        let s1 = sender_create Exact key ~salt0:0 in
        let s2 = sender_create Exact key ~salt0:0 in
        let repeated = mk_tokens (List.init 500 (fun _ -> "same")) in
        let distinct = mk_tokens (List.init 500 (fun i -> Printf.sprintf "w%05d" i)) in
        let c1 = List.map (fun e -> e.cipher) (sender_encrypt s1 repeated) in
        let c2 = List.map (fun e -> e.cipher) (sender_encrypt s2 distinct) in
        Alcotest.(check int) "stream 1 all distinct" 500
          (List.length (List.sort_uniq compare c1));
        Alcotest.(check int) "stream 2 all distinct" 500
          (List.length (List.sort_uniq compare c2)));
    Alcotest.test_case "ciphertext bits are balanced" `Quick (fun () ->
        (* ~40 bits x 2000 samples; each bit position should be ~50% ones *)
        let s = sender_create Exact key ~salt0:0 in
        let toks = mk_tokens (List.init 2000 (fun i -> Printf.sprintf "t%05d" i)) in
        let ciphers = List.map (fun e -> e.cipher) (sender_encrypt s toks) in
        for bit = 0 to 39 do
          let ones = List.length (List.filter (fun c -> (c lsr bit) land 1 = 1) ciphers) in
          Alcotest.(check bool)
            (Printf.sprintf "bit %d balance (%d/2000)" bit ones)
            true
            (ones > 850 && ones < 1150)
        done);
    Alcotest.test_case "ciphertexts unlinkable across salt resets" `Quick (fun () ->
        let s = sender_create Exact key ~salt0:0 in
        let before = sender_encrypt s (mk_tokens [ "token" ]) in
        let _ = sender_reset s in
        let after = sender_encrypt s (mk_tokens [ "token" ]) in
        Alcotest.(check bool) "differ" true
          ((List.hd before).cipher <> (List.hd after).cipher));
  ]

(* ---------- probable cause privacy ---------- *)

let probable_cause_tests =
  [ Alcotest.test_case "embeds from non-matching tokens do not combine to the key" `Quick
      (fun () ->
         (* The mask of token t at salt s is AES_{AES_k(t)}(s+1); without
            AES_k(t) (i.e. without a rule for t) no embed equals k_ssl, and
            masks derived from *other* rules do not unmask it. *)
         let k_ssl = String.init 16 (fun i -> Char.chr (0x40 + i)) in
         let s = sender_create Probable key ~salt0:0 in
         let out = sender_encrypt s ~k_ssl (mk_tokens [ "private1"; "private2" ]) in
         let wrong_rule_tk = token_key key (pad_short "ruleword") in
         List.iter
           (fun e ->
              match e.embed with
              | None -> Alcotest.fail "expected embeds"
              | Some c2 ->
                Alcotest.(check bool) "embed is not the key itself" true (c2 <> k_ssl);
                let mask = encrypt_full wrong_rule_tk ~salt:1 in
                Alcotest.(check bool) "wrong rule cannot unmask" true
                  (Bbx_crypto.Util.xor c2 mask <> k_ssl))
           out);
    Alcotest.test_case "c1/c2 salt separation (even/odd) holds" `Quick (fun () ->
        (* if c1 and c2 ever shared a salt, c1's mask XOR c2 would expose
           k_ssl; verify the parity discipline on a long stream *)
        let k_ssl = String.make 16 '\xaa' in
        let s = sender_create Probable key ~salt0:0 in
        let toks = mk_tokens (List.init 50 (fun _ -> "reptoken")) in
        let out = sender_encrypt s ~k_ssl toks in
        let tk = token_key key (pad_short "reptoken") in
        List.iteri
          (fun i e ->
             (* c1 uses salt 2i; its 40-bit value must never let c2's mask
                at the same salt leak: check c2 = mask(2i+1) XOR k_ssl and
                mask(2i) <> mask(2i+1) *)
             let c2 = Option.get e.embed in
             Alcotest.(check string) "c2 uses odd salt"
               (Bbx_crypto.Util.xor (encrypt_full tk ~salt:((2 * i) + 1)) k_ssl) c2;
             Alcotest.(check bool) "masks differ" true
               (encrypt_full tk ~salt:(2 * i) <> encrypt_full tk ~salt:((2 * i) + 1)))
          out);
  ]

(* ---------- garbled circuits ---------- *)

let garble_tests =
  [ Alcotest.test_case "one evaluation reveals only the output" `Quick (fun () ->
        (* the evaluator's labels for input x carry no colour pattern that
           depends on x: colour bits of delivered labels look random;
           concretely, two different inputs yield label sets that differ in
           every position (labels are per-wire pairs, not per-value) *)
        let open Bbx_circuit in
        let open Bbx_crypto in
        let c = Samples.adder 16 in
        let _, s = Bbx_garble.Garble.garble (Drbg.create "sec") c in
        let bits_of_int n v = Array.init n (fun i -> (v lsr i) land 1 = 1) in
        let l1 = Bbx_garble.Garble.encode_inputs s (Array.append (bits_of_int 16 7) (bits_of_int 16 9)) in
        let l2 = Bbx_garble.Garble.encode_inputs s (Array.append (bits_of_int 16 7) (bits_of_int 16 8)) in
        (* inputs differ only in one bit -> exactly one label differs *)
        let diffs = ref 0 in
        Array.iteri (fun i a -> if a <> l2.(i) then incr diffs) l1;
        Alcotest.(check int) "one label differs" 1 !diffs;
        (* and the two labels of that wire are unrelated beyond the global
           offset (never equal, never zero) *)
        let w = ref 0 in
        Array.iteri (fun i a -> if a <> l2.(i) then w := i) l1;
        Alcotest.(check bool) "labels distinct" true (l1.(!w) <> l2.(!w)));
    Alcotest.test_case "garbled tables leak nothing recognisable" `Quick (fun () ->
        (* byte-level sanity: table rows are not trivially structured *)
        let open Bbx_crypto in
        let c = Bbx_circuit.Samples.adder 32 in
        let g, _ = Bbx_garble.Garble.garble (Drbg.create "sec2") c in
        let bytes = Bbx_garble.Garble.to_string g in
        let zeros = ref 0 in
        String.iter (fun ch -> if ch = '\000' then incr zeros) bytes;
        let frac = float_of_int !zeros /. float_of_int (String.length bytes) in
        Alcotest.(check bool) (Printf.sprintf "zero-byte fraction %.3f" frac) true
          (frac < 0.02));
  ]

(* ---------- record layer ---------- *)

let record_tests =
  [ Alcotest.test_case "identical plaintexts never repeat on the wire" `Quick (fun () ->
        let w = Bbx_tls.Record.create ~key:"k" ~direction:"d" () in
        let a = Bbx_tls.Record.seal w "same message" in
        let b = Bbx_tls.Record.seal w "same message" in
        (* strip length+seq header; compare ciphertext bodies *)
        Alcotest.(check bool) "bodies differ" true
          (String.sub a 12 12 <> String.sub b 12 12));
  ]

let () =
  Alcotest.run "security"
    [ ("exact-match-privacy", exact_match_tests);
      ("probable-cause-privacy", probable_cause_tests);
      ("garbling", garble_tests);
      ("record-layer", record_tests);
    ]
