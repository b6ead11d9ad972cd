open Bbx_dpienc.Dpienc
open Bbx_oracle
open Records
open Token_keys

let key = key_of_secret "session-key-k"

let mk_tokens contents =
  List.mapi (fun i c -> { Tokens.content = c; offset = 8 * i }) contents

let t8 s = Bbx_tokenizer.Tokenizer.pad_short s

let unit_tests =
  [ Alcotest.test_case "ciphertext is 40 bits" `Quick (fun () ->
        let tk = token_key key (t8 "attack") in
        for salt = 0 to 100 do
          let c = encrypt tk ~salt in
          Alcotest.(check bool) "fits" true (c >= 0 && c < 1 lsl 40)
        done);
    Alcotest.test_case "deterministic given key, token, salt" `Quick (fun () ->
        let tk = token_key key (t8 "attack") in
        Alcotest.(check int) "equal" (encrypt tk ~salt:7) (encrypt tk ~salt:7));
    Alcotest.test_case "different salts give different ciphertexts" `Quick (fun () ->
        let tk = token_key key (t8 "attack") in
        Alcotest.(check bool) "differ" true (encrypt tk ~salt:0 <> encrypt tk ~salt:1));
    Alcotest.test_case "middlebox path equals sender path" `Quick (fun () ->
        (* MB builds the token key from AES_k(t) without knowing k. *)
        let enc = token_enc key (t8 "attack") in
        let mb_tk = token_key_of_enc enc in
        let sender_tk = token_key key (t8 "attack") in
        Alcotest.(check int) "same cipher" (encrypt sender_tk ~salt:42) (encrypt mb_tk ~salt:42);
        (* The middlebox's on-demand path — the one-shot cipher straight
           from the 16-byte enc, and the k_ssl mask through a one-key
           arena — against the byte-wise reference cipher, itself pinned
           to FIPS-197 C.1. *)
        let hex h =
          String.init (String.length h / 2) (fun i ->
              Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))
        in
        Alcotest.(check string) "reference cipher on FIPS-197 C.1"
          (hex "69c4e0d86a7b0430d8cdb78070b4c55a")
          (Ref_aes.encrypt_block (hex "000102030405060708090a0b0c0d0e0f")
             (hex "00112233445566778899aabbccddeeff"));
        let rng = Random.State.make [| 24 |] in
        let bytes16 () = String.init 16 (fun _ -> Char.chr (Random.State.int rng 256)) in
        for _ = 1 to 200 do
          let enc = bytes16 () and k_ssl = bytes16 () in
          List.iter
            (fun salt ->
              let block =
                Ref_aes.encrypt_block enc (String.make 8 '\000' ^ Bbx_crypto.Util.u64_be salt)
              in
              (* the 40-bit cipher is the block's bytes 3..7, big-endian *)
              let expect = Bbx_crypto.Util.read_u64_be block 0 land ((1 lsl rs_bits) - 1) in
              Alcotest.(check int) (Printf.sprintf "cipher at salt %d" salt) expect
                (cipher enc ~salt);
              Alcotest.(check string) (Printf.sprintf "k_ssl mask at salt %d" salt)
                (Bbx_crypto.Util.xor block k_ssl) (mask_xor enc ~salt k_ssl))
            [ 0; 1; (1 lsl 32) - 1; 1 lsl 32; (1 lsl 32) + Random.State.bits rng; max_int ]
        done);
    Alcotest.test_case "equal tokens never share a ciphertext (salt counters)" `Quick (fun () ->
        let s = sender_create Exact key ~salt0:0 in
        let toks = mk_tokens [ t8 "dup"; t8 "dup"; t8 "dup"; t8 "other"; t8 "dup" ] in
        let out = sender_encrypt s toks in
        let ciphers = List.map (fun e -> e.cipher) out in
        let sorted = List.sort_uniq compare ciphers in
        Alcotest.(check int) "all distinct" (List.length ciphers) (List.length sorted));
    Alcotest.test_case "salt0 must be even in probable mode" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Dpienc.sender_create: salt0 must be even")
          (fun () -> ignore (sender_create Probable key ~salt0:1));
        (* exact mode has no parity constraint *)
        ignore (sender_create Exact key ~salt0:1));
    Alcotest.test_case "probable mode requires k_ssl" `Quick (fun () ->
        let s = sender_create Probable key ~salt0:0 in
        Alcotest.check_raises "raises"
          (Invalid_argument "Dpienc.sender_encrypt_into: Probable mode needs ~k_ssl")
          (fun () -> ignore (sender_encrypt_into s (t8 "x") (Buffer.create 16) : int)));
    Alcotest.test_case "probable mode embeds recoverable key" `Quick (fun () ->
        let s = sender_create Probable key ~salt0:0 in
        let k_ssl = String.init 16 Char.chr in
        let out = sender_encrypt s ~k_ssl (mk_tokens [ t8 "attack" ]) in
        match out with
        | [ { embed = Some c2; _ } ] ->
          (* With AES_k(t), the mask at salt+1 recovers k_ssl. *)
          let tk = token_key key (t8 "attack") in
          let mask = encrypt_full tk ~salt:1 in
          Alcotest.(check string) "recovered" k_ssl (Bbx_crypto.Util.xor c2 mask)
        | _ -> Alcotest.fail "expected one embedded token");
    Alcotest.test_case "exact mode has no embed" `Quick (fun () ->
        let s = sender_create Exact key ~salt0:0 in
        match sender_encrypt s (mk_tokens [ t8 "x" ]) with
        | [ { embed = None; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected embed");
    Alcotest.test_case "reset advances salt0 past every used salt" `Quick (fun () ->
        let s = sender_create Exact key ~salt0:0 in
        let _ = sender_encrypt s (mk_tokens [ t8 "a"; t8 "a"; t8 "a"; t8 "b" ]) in
        let new_salt0 = sender_reset s in
        Alcotest.(check bool) "advanced" true (new_salt0 > 3);
        (* After the reset the same token restarts from the new salt. *)
        let out = sender_encrypt s (mk_tokens [ t8 "a" ]) in
        let tk = token_key key (t8 "a") in
        Alcotest.(check int) "fresh salt" (encrypt tk ~salt:new_salt0)
          (List.hd out).cipher);
    Alcotest.test_case "different keys give different ciphertexts" `Quick (fun () ->
        let tk1 = token_key (key_of_secret "k1") (t8 "attack") in
        let tk2 = token_key (key_of_secret "k2") (t8 "attack") in
        Alcotest.(check bool) "differ" true (encrypt tk1 ~salt:0 <> encrypt tk2 ~salt:0));
    Alcotest.test_case "wire encoding round trip" `Quick (fun () ->
        let s = sender_create Probable key ~salt0:0 in
        let k_ssl = String.make 16 'K' in
        let toks = sender_encrypt s ~k_ssl (mk_tokens [ t8 "a"; t8 "b"; t8 "c" ]) in
        let decoded = decode_tokens (encode_tokens ~explicit:true toks) in
        Alcotest.(check int) "count" (List.length toks) (List.length decoded);
        List.iter2
          (fun a b ->
             Alcotest.(check int) "cipher" a.cipher b.cipher;
             Alcotest.(check int) "offset" a.offset b.offset;
             Alcotest.(check (option string)) "embed" a.embed b.embed)
          toks decoded);
    Alcotest.test_case "decode rejects truncation" `Quick (fun () ->
        let s = sender_create Exact key ~salt0:0 in
        let enc = wire s (t8 "a") in
        Alcotest.check_raises "raises" (Invalid_argument "Dpienc.decode_iter: truncated")
          (fun () ->
             decode_iter (String.sub enc 0 (String.length enc - 1))
               ~f:(fun ~cipher:_ ~offset:_ ~embed_pos:_ -> ())));
  ]

(* Frequency-analysis resistance: the histogram of ciphertexts of a stream
   with many repeats is flat (all ciphertexts distinct), unlike
   deterministic encryption where repeats leak. *)
let security_tests =
  [ Alcotest.test_case "no frequency leakage" `Quick (fun () ->
        let s = sender_create Exact key ~salt0:0 in
        let toks = mk_tokens (List.init 200 (fun i -> t8 (if i mod 2 = 0 then "yes" else "no"))) in
        let out = sender_encrypt s toks in
        let ciphers = List.map (fun e -> e.cipher) out in
        Alcotest.(check int) "all distinct" 200 (List.length (List.sort_uniq compare ciphers)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"streams with same histogram are indistinguishable by count"
         ~count:50
         QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 20) (string_of_size (QCheck.Gen.return 8)))
                  (list_of_size (QCheck.Gen.int_range 1 20) (string_of_size (QCheck.Gen.return 8))))
         (fun (xs, ys) ->
            (* Whatever the token values, #ciphertexts = #tokens and all are
               in range; ciphertext values alone don't reveal equality. *)
            let s = sender_create Exact key ~salt0:0 in
            let out = sender_encrypt s (mk_tokens (xs @ ys)) in
            List.length out = List.length xs + List.length ys
            && List.for_all (fun e -> e.cipher >= 0 && e.cipher < 1 lsl 40) out));
  ]

(* ---------- wire format: round trip, streaming decode, truncation ---------- *)

let arb_contents =
  QCheck.(list_of_size (QCheck.Gen.int_range 1 12) (string_of_size (QCheck.Gen.int_range 1 8)))

(* The production sender's wire for a token sequence, one 8-byte window
   per token. *)
let encrypt_stream mode contents =
  let s = sender_create mode key ~salt0:0 in
  let k_ssl = if mode = Probable then Some (String.make 16 'K') else None in
  String.concat "" (List.mapi (fun i c -> wire s ?k_ssl ~base:(8 * i) (t8 c)) contents)

(* Two sender calls on one sender: a two-run stream in [tokenization]'s
   layout, and the length of its first run. *)
let two_runs mode tokenization =
  let s = sender_create mode key ~salt0:0 in
  let k_ssl = if mode = Probable then Some (String.make 16 'K') else None in
  let first = wire s ?k_ssl ~tokenization "the first, run." in
  (first ^ wire s ?k_ssl ~base:15 ~tokenization "and then. the second", String.length first)

let layouts =
  [ (Exact, Window); (Exact, Delimiter { short_units = true }); (Probable, Window);
    (Probable, Delimiter { short_units = false }) ]

let offsets wire =
  let acc = ref [] in
  decode_iter wire ~f:(fun ~cipher ~offset ~embed_pos -> acc := (cipher, offset, embed_pos) :: !acc);
  List.rev !acc

let wire_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode/decode round trip (both modes)" ~count:100
         arb_contents
         (fun contents ->
            (* the reference codec inverts the sender's encoder byte for byte *)
            List.for_all
              (fun mode ->
                 let w = encrypt_stream mode contents in
                 let runs = decode_runs w in
                 List.length runs = List.length contents
                 && String.equal (encode_runs runs) w)
              [ Exact; Probable ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"decode_iter agrees with decode_tokens" ~count:100
         arb_contents
         (fun contents ->
            List.for_all
              (fun mode ->
                 let wire = encrypt_stream mode contents in
                 let via_iter = ref [] in
                 decode_iter wire ~f:(fun ~cipher ~offset ~embed_pos ->
                     let embed =
                       if embed_pos < 0 then None else Some (String.sub wire embed_pos 16)
                     in
                     via_iter := { cipher; offset; embed } :: !via_iter);
                 let via_iter = List.rev !via_iter in
                 let via_list = decode_tokens wire in
                 wire_token_count wire = List.length via_list
                 && wire_valid ~mode wire
                 && via_iter = via_list)
              [ Exact; Probable ]));
    Alcotest.test_case "record sizes match the wire" `Quick (fun () ->
        (* a one-token run: layout byte, count 1 and base 0 as one-byte
           varints, then the record *)
        Alcotest.(check int) "exact" (3 + exact_record_bytes)
          (String.length (encrypt_stream Exact [ "a" ]));
        Alcotest.(check int) "probable" (3 + probable_record_bytes)
          (String.length (encrypt_stream Probable [ "a" ]));
        (* a window token costs its record; a delimiter token one more
           byte for a delta below 64 *)
        let s = sender_create Exact key ~salt0:0 in
        let payload = String.concat " " (List.init 12 (fun i -> Printf.sprintf "word%04d" i)) in
        Alcotest.(check int) "window" (3 + (100 * exact_record_bytes))
          (String.length (wire s (String.sub payload 0 107)));
        let n = Bbx_tokenizer.Tokenizer.delimiter_count payload in
        Alcotest.(check int) "delimiter" (3 + (n * (1 + exact_record_bytes)))
          (String.length (wire s ~tokenization:(Delimiter { short_units = false }) payload)));
    Alcotest.test_case "truncation rejected at every byte boundary" `Quick (fun () ->
        (* a two-run stream of each layout cut at every byte: only the cut
           between the runs is a stream; every other cut must fail
           validation and make the decoder raise, never return a short read
           or crash *)
        List.iter
          (fun (mode, tokenization) ->
             let wire, first = two_runs mode tokenization in
             Alcotest.(check bool) "whole stream valid" true (wire_valid ~mode wire);
             for cut = 1 to String.length wire - 1 do
               let truncated = String.sub wire 0 cut in
               if cut = first then
                 Alcotest.(check bool) "first run alone valid" true (wire_valid ~mode truncated)
               else begin
                 Alcotest.(check bool) (Printf.sprintf "cut %d fails validation" cut) false
                   (wire_valid ~mode truncated);
                 match decode_iter truncated ~f:(fun ~cipher:_ ~offset:_ ~embed_pos:_ -> ()) with
                 | () -> Alcotest.failf "decode accepted a %d-byte cut" cut
                 | exception Invalid_argument msg ->
                   Alcotest.(check bool)
                     (Printf.sprintf "cut %d names the decoder" cut)
                     true
                     (String.starts_with ~prefix:"Dpienc.decode_iter:" msg)
               end
             done)
          layouts);
    Alcotest.test_case "drop_records keeps the tail's bytes and offsets" `Quick (fun () ->
        List.iter
          (fun (mode, tokenization) ->
             let wire, first_len = two_runs mode tokenization in
             let all = offsets wire in
             let total = List.length all in
             let first = List.length (offsets (String.sub wire 0 first_len)) in
             List.iter
               (fun k ->
                  let dropped = drop_records wire k in
                  let tail = List.filteri (fun i _ -> i >= k) all in
                  let strip = List.map (fun (c, o, _) -> (c, o)) in
                  Alcotest.(check (list (pair int int)))
                    (Printf.sprintf "drop %d of %d" k total) (strip tail) (strip (offsets dropped));
                  Alcotest.(check bool) "valid" true (wire_valid ~mode dropped);
                  if k = 0 then Alcotest.(check string) "k = 0 is the identity" wire dropped)
               [ 0; 1; first - 1; first; first + 1; total - 1; total; total + 5 ])
          layouts);
    Alcotest.test_case "offsets wrap mod 2^32 from base 2^32 - 3" `Quick (fun () ->
        let base = (1 lsl 32) - 3 in
        List.iter
          (fun (mode, tokenization) ->
             let s = sender_create mode key ~salt0:0 in
             let k_ssl = if mode = Probable then Some (String.make 16 'K') else None in
             let payload = "wrap around the top, of the offsets" in
             let w = wire s ?k_ssl ~base ~tokenization payload in
             let visits =
               match tokenization with
               | Window -> Tokens.window payload
               | Delimiter { short_units } -> Tokens.delimiter ~short_units payload
             in
             Alcotest.(check (list int)) "wrapped offsets"
               (List.map (fun (t : Tokens.token) -> (base + t.offset) land 0xffffffff) visits)
               (List.map (fun (_, o, _) -> o) (offsets w));
             Alcotest.(check bool) "offsets wrapped" true
               (List.exists (fun (_, o, _) -> o < 8) (offsets w));
             Alcotest.(check bool) "valid" true (wire_valid ~mode w))
          layouts);
  ]

(* ---- reference sender differentials ----

   The sender's packed counter table, rolling window and sweep-staged
   wire output may not change a single wire byte against the reference
   sender of [Bbx_oracle.Ref_sender] (a [Hashtbl] of counters and the
   list path).  Drive both through identical payload sequences (both
   modes, both tokenizations, across salt resets) and require byte
   equality. *)

let drive_pair ~mode ~tokenization ~payloads ~resets_at =
  let salt0 = 100 in
  let k_ssl = if mode = Probable then Some (String.init 16 Char.chr) else None in
  let s = sender_create mode key ~salt0 in
  let r = Ref_sender.create mode key ~salt0 in
  let out_s = Buffer.create 256 and out_r = Buffer.create 256 in
  List.iteri
    (fun i payload ->
       let base = i * 1000 in
       let n_s = sender_encrypt_into s ?k_ssl ~base ~tokenization payload out_s in
       let n_r = Ref_sender.encrypt_into r ?k_ssl ~base ~tokenization payload out_r in
       Alcotest.(check int) "token count" n_r n_s;
       if List.mem i resets_at then
         Alcotest.(check int) "reset salt0" (Ref_sender.reset r) (sender_reset s))
    payloads;
  Alcotest.(check string) "wire bytes" (Buffer.contents out_r) (Buffer.contents out_s)

let repeat_heavy =
  (* few distinct tokens, deep counters *)
  String.concat "" (List.init 40 (fun i -> if i mod 3 = 0 then "attackXY" else "zzzzzzzz"))

let kernel_payloads =
  [ "the quick brown fox jumps over the lazy dog";
    repeat_heavy;
    "malware attack vector with, delimiters. and short, bits";
    String.init 700 (fun i -> Char.chr (((i * 37) land 63) + 48));
    "ab" (* shorter than a token *) ]

let kernel_tests =
  let case name mode tokenization =
    Alcotest.test_case name `Quick (fun () ->
        drive_pair ~mode ~tokenization ~payloads:kernel_payloads ~resets_at:[ 1; 3 ])
  in
  [ case "wire equality: exact / window" Exact Window;
    case "wire equality: exact / delimiter" Exact (Delimiter { short_units = true });
    case "wire equality: probable / window" Probable Window;
    case "wire equality: probable / delimiter" Probable (Delimiter { short_units = false });
    Alcotest.test_case "packed table growth survives (many distinct tokens)" `Quick (fun () ->
        (* >2048 distinct tokens forces several table grows in mid-payload,
           and the key ids run over more than three key pages.  The reset
           after the first payload rewinds the ids onto pages the sender
           already owns; the third payload, without a reset, claims ids
           past them.  Probable mode reads each token's page twice (cipher
           and embed).  Equality with the reference proves no slot,
           look-ahead or key page went stale. *)
        let numbers from =
          String.concat ""
            (List.init 3000 (fun i -> Printf.sprintf "%08d" (from + i)))
        in
        let payloads = [ numbers 0; numbers 50_000; numbers 1_000 ] in
        let distinct = Hashtbl.create 4096 in
        List.iter
          (fun (t : Tokens.token) -> Hashtbl.replace distinct t.content ())
          (Tokens.window (List.hd payloads));
        Alcotest.(check bool) "more than three key pages" true
          (Hashtbl.length distinct > 3 * page_keys);
        List.iter
          (fun mode -> drive_pair ~mode ~tokenization:Window ~payloads ~resets_at:[ 0 ])
          [ Exact; Probable ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"qcheck wire equality vs reference sender" ~count:60
         QCheck.(
           quad bool (int_bound 2)
             (list_of_size (QCheck.Gen.int_range 1 6)
                (string_of_size (QCheck.Gen.int_range 0 200)))
             (small_list (int_bound 5)))
         (fun (probable, tok, payloads, resets) ->
            let mode = if probable then Probable else Exact in
            let tokenization =
              match tok with
              | 0 -> Window
              | t -> Delimiter { short_units = t = 1 }
            in
            drive_pair ~mode ~tokenization ~payloads ~resets_at:resets;
            true));
  ]

let () =
  Alcotest.run "dpienc"
    [ ("dpienc", unit_tests); ("security", security_tests); ("wire", wire_tests);
      ("kernel", kernel_tests) ]
