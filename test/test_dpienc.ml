open Bbx_dpienc.Dpienc
open Bbx_tokenizer.Tokenizer

let key = key_of_secret "session-key-k"

let mk_tokens contents = List.mapi (fun i c -> { content = c; offset = 8 * i }) contents

let t8 s = pad_short s

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
        Alcotest.(check int) "same cipher" (encrypt sender_tk ~salt:42) (encrypt mb_tk ~salt:42));
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
          (Invalid_argument "Dpienc.sender_encrypt: Probable mode needs ~k_ssl")
          (fun () -> ignore (sender_encrypt s (mk_tokens [ t8 "x" ]))));
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
        let decoded = decode_tokens (encode_tokens toks) in
        Alcotest.(check int) "count" (List.length toks) (List.length decoded);
        List.iter2
          (fun a b ->
             Alcotest.(check int) "cipher" a.cipher b.cipher;
             Alcotest.(check int) "offset" a.offset b.offset;
             Alcotest.(check (option string)) "embed" a.embed b.embed)
          toks decoded);
    Alcotest.test_case "decode rejects truncation" `Quick (fun () ->
        let s = sender_create Exact key ~salt0:0 in
        let enc = encode_tokens (sender_encrypt s (mk_tokens [ t8 "a" ])) in
        Alcotest.check_raises "raises" (Invalid_argument "Dpienc.decode_tokens: truncated")
          (fun () -> ignore (decode_tokens (String.sub enc 0 (String.length enc - 1)))));
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

let encrypt_stream mode contents =
  let s = sender_create mode key ~salt0:0 in
  let k_ssl = if mode = Probable then Some (String.make 16 'K') else None in
  sender_encrypt s ?k_ssl (mk_tokens (List.map t8 contents))

let wire_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode/decode round trip (both modes)" ~count:100
         arb_contents
         (fun contents ->
            List.for_all
              (fun mode ->
                 let toks = encrypt_stream mode contents in
                 let decoded = decode_tokens (encode_tokens toks) in
                 List.length toks = List.length decoded
                 && List.for_all2
                   (fun a b ->
                      a.cipher = b.cipher && a.offset = b.offset && a.embed = b.embed)
                   toks decoded)
              [ Exact; Probable ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"decode_iter agrees with decode_tokens" ~count:100
         arb_contents
         (fun contents ->
            List.for_all
              (fun mode ->
                 let wire = encode_tokens (encrypt_stream mode contents) in
                 let via_iter = ref [] in
                 decode_iter wire ~f:(fun ~cipher ~offset ~embed_pos ->
                     let embed =
                       if embed_pos < 0 then None else Some (String.sub wire embed_pos 16)
                     in
                     via_iter := { cipher; offset; embed } :: !via_iter);
                 let via_iter = List.rev !via_iter in
                 let via_list = decode_tokens wire in
                 List.length via_iter = List.length via_list
                 && wire_token_count wire = List.length via_list
                 && List.for_all2
                   (fun a b ->
                      a.cipher = b.cipher && a.offset = b.offset && a.embed = b.embed)
                   via_iter via_list)
              [ Exact; Probable ]));
    Alcotest.test_case "record sizes match the wire" `Quick (fun () ->
        Alcotest.(check int) "exact" exact_record_bytes
          (String.length (encode_tokens (encrypt_stream Exact [ "a" ])));
        Alcotest.(check int) "probable" probable_record_bytes
          (String.length (encode_tokens (encrypt_stream Probable [ "a" ]))));
    Alcotest.test_case "truncation rejected at every byte boundary" `Quick (fun () ->
        (* one full record then a partial one, cut at every possible point:
           the decoder must raise, never return a short read or crash *)
        List.iter
          (fun mode ->
             let wire = encode_tokens (encrypt_stream mode [ "a"; "b" ]) in
             let record = String.length wire / 2 in
             for cut = 1 to String.length wire - 1 do
               if cut mod record <> 0 then begin
                 let truncated = String.sub wire 0 cut in
                 match decode_tokens truncated with
                 | _ -> Alcotest.failf "decode accepted a %d-byte cut" cut
                 | exception Invalid_argument msg ->
                   Alcotest.(check bool)
                     (Printf.sprintf "cut %d names the decoder" cut)
                     true
                     (String.length msg >= 19 && String.sub msg 0 19 = "Dpienc.decode_token")
               end
             done)
          [ Exact; Probable ]);
  ]

(* ---- reference sender differentials ----

   The sender's packed counter table, rolling window and sweep-staged
   wire output may not change a single wire byte.  The reference below
   spells §3.2 out directly: a [Hashtbl] of counters keyed by token
   value, the i-th occurrence salted [salt0 + stride * i], one 10-byte
   record (flag, 5-byte cipher, 4-byte offset) plus the 16-byte embed in
   Probable mode, and a reset that moves [salt0] past every salt used.
   Drive both through identical payload sequences (both modes, both
   tokenizations, across salt resets and with the per-token list API
   interleaved) and require byte equality. *)

type ref_sender = {
  r_mode : mode;
  mutable r_salt0 : int;
  r_counts : (string, int) Hashtbl.t;   (* padded token -> occurrences *)
}

let ref_create mode ~salt0 = { r_mode = mode; r_salt0 = salt0; r_counts = Hashtbl.create 64 }

(* odd salts carry the Probable-mode embed *)
let ref_stride r = match r.r_mode with Exact -> 1 | Probable -> 2

let ref_encrypt r ~k_ssl buf tok ~offset =
  let n = Option.value (Hashtbl.find_opt r.r_counts tok) ~default:0 in
  Hashtbl.replace r.r_counts tok (n + 1);
  let salt = r.r_salt0 + (ref_stride r * n) in
  let tk = token_key key tok in
  let cipher = encrypt tk ~salt in
  let add_be v bytes =
    for i = bytes - 1 downto 0 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  Buffer.add_char buf (if k_ssl = None then '\000' else '\001');
  add_be cipher 5;
  add_be offset 4;
  Option.iter
    (fun k -> Buffer.add_string buf (Bbx_crypto.Util.xor (encrypt_full tk ~salt:(salt + 1)) k))
    k_ssl

let ref_encrypt_into r ~k_ssl ~base ~tokenization payload buf =
  let f n ~off ~len =
    ref_encrypt r ~k_ssl buf (t8 (String.sub payload off len)) ~offset:(base + off);
    n + 1
  in
  match tokenization with
  | Window -> fold_window payload ~init:0 ~f
  | Delimiter { short_units } -> fold_delimiter ~short_units payload ~init:0 ~f

let ref_reset r =
  let max_count = Hashtbl.fold (fun _ c m -> max c m) r.r_counts 0 in
  r.r_salt0 <- r.r_salt0 + (ref_stride r * (max_count + 1));
  Hashtbl.reset r.r_counts;
  r.r_salt0

let drive_pair ~mode ~tokenization ~payloads ~resets_at ~interleave_at =
  let salt0 = 100 in
  let k_ssl = if mode = Probable then Some (String.init 16 Char.chr) else None in
  let s = sender_create mode key ~salt0 in
  let r = ref_create mode ~salt0 in
  let out_s = Buffer.create 256 and out_r = Buffer.create 256 in
  List.iteri
    (fun i payload ->
       if List.mem i interleave_at then begin
         (* the per-token list API shares the counter table with the
            streaming path *)
         let toks = mk_tokens [ t8 "mix"; t8 "mix" ] in
         Buffer.add_string out_s (encode_tokens (sender_encrypt s ?k_ssl toks));
         List.iter (fun tok -> ref_encrypt r ~k_ssl out_r tok.content ~offset:tok.offset) toks
       end;
       let base = i * 1000 in
       let n_s = sender_encrypt_into s ?k_ssl ~base ~tokenization payload out_s in
       let n_r = ref_encrypt_into r ~k_ssl ~base ~tokenization payload out_r in
       Alcotest.(check int) "token count" n_r n_s;
       if List.mem i resets_at then
         Alcotest.(check int) "reset salt0" (ref_reset r) (sender_reset s))
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
        drive_pair ~mode ~tokenization ~payloads:kernel_payloads
          ~resets_at:[ 1; 3 ] ~interleave_at:[ 2 ])
  in
  [ case "wire equality: exact / window" Exact Window;
    case "wire equality: exact / delimiter" Exact (Delimiter { short_units = true });
    case "wire equality: probable / window" Probable Window;
    case "wire equality: probable / delimiter" Probable (Delimiter { short_units = false });
    Alcotest.test_case "packed table growth survives (many distinct tokens)" `Quick (fun () ->
        (* >2048 distinct tokens forces several grows in mid-payload;
           equality with the reference proves no slot or look-ahead went
           stale *)
        let payload =
          String.concat ""
            (List.init 3000 (fun i -> Printf.sprintf "%08d" i))
        in
        drive_pair ~mode:Exact ~tokenization:Window ~payloads:[ payload ]
          ~resets_at:[] ~interleave_at:[]);
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
            drive_pair ~mode ~tokenization ~payloads ~resets_at:resets
              ~interleave_at:[];
            true));
  ]

let () =
  Alcotest.run "dpienc"
    [ ("dpienc", unit_tests); ("security", security_tests); ("wire", wire_tests);
      ("kernel", kernel_tests) ]
