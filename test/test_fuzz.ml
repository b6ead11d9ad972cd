(* Robustness: attacker-facing decoders must fail cleanly (documented
   exceptions only), never crash or loop, on arbitrary bytes.  The
   middlebox parses rules from its vendor and tokens from untrusted
   senders; the receiver parses records off the wire. *)

let no_crash ~name ~expected f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 QCheck.string (fun s ->
         match f s with
         | _ -> true
         | exception e -> expected e))

let mutate_prop ~name ~count gen_good ~expected f =
  (* flip one byte of a well-formed input *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       QCheck.(pair small_nat (int_bound 255))
       (fun (pos, byte) ->
          let good = gen_good () in
          if good = "" then true
          else begin
            let pos = pos mod String.length good in
            let bad =
              String.mapi (fun i c -> if i = pos then Char.chr byte else c) good
            in
            match f bad with
            | _ -> true
            | exception e -> expected e
          end))

let is_invalid_arg = function Invalid_argument _ -> true | _ -> false

let rule_parser_fuzz =
  [ no_crash ~name:"rule parser on random bytes"
      ~expected:(function Bbx_rules.Parser.Syntax_error _ -> true | _ -> false)
      Bbx_rules.Parser.parse_rule;
    mutate_prop ~name:"rule parser on mutated valid rules" ~count:300
      (fun () ->
         "alert tcp $EXTERNAL_NET any -> $HOME_NET any (msg:\"m\"; \
          content:\"Server|3a| x\"; offset:3; depth:20; pcre:\"/a+b/i\"; sid:1;)")
      ~expected:(function
          | Bbx_rules.Parser.Syntax_error _ | Bbx_regex.Regex.Parse_error _ -> true
          | _ -> false)
      Bbx_rules.Parser.parse_rule;
  ]

let regex_fuzz =
  [ no_crash ~name:"regex compiler on random bytes"
      ~expected:(function Bbx_regex.Regex.Parse_error _ -> true | _ -> false)
      (fun s -> Bbx_regex.Regex.compile s);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compiled regexes never crash on random input" ~count:300
         QCheck.(pair (oneofl [ "a+(b|c)*"; "[x-z]{2,4}$"; "^\\d+\\.\\d+"; "(ab)+c?" ]) string)
         (fun (pat, input) ->
            let r = Bbx_regex.Regex.compile pat in
            let _ = Bbx_regex.Regex.matches r input in
            let _ = Bbx_regex.Regex.search r input in
            true));
  ]

module Dpienc = Bbx_dpienc.Dpienc

(* The daemon front's validator never raises and accepts, per mode,
   exactly the streams the decoder accepts whose records all carry that
   mode's embed (or none, in Exact); the decoder fails only with
   [Invalid_argument]. *)
let decode_validated s =
  let valid mode = Dpienc.wire_valid ~mode s in
  let embeds = ref 0 and plain = ref 0 in
  match
    Dpienc.decode_iter s ~f:(fun ~cipher:_ ~offset:_ ~embed_pos ->
        if embed_pos < 0 then incr plain else incr embeds)
  with
  | () ->
    if valid Dpienc.Exact <> (!embeds = 0) || valid Dpienc.Probable <> (!plain = 0) then
      failwith "validator and decoder disagree on a decodable stream"
  | exception (Invalid_argument _ as e) ->
    if valid Dpienc.Exact || valid Dpienc.Probable then
      failwith "validator accepted an undecodable stream"
    else raise e

(* Two sender calls (two runs) for each mode and tokenization, taken in
   turn by the mutation property. *)
let valid_streams =
  let key = Dpienc.key_of_secret "fuzz" in
  List.map
    (fun (mode, tokenization) ->
       let s = Dpienc.sender_create mode key ~salt0:0 in
       let k_ssl = if mode = Dpienc.Probable then Some (String.make 16 'k') else None in
       let buf = Buffer.create 256 in
       ignore (Dpienc.sender_encrypt_into s ?k_ssl ~tokenization "some payload, bytes here" buf : int);
       ignore
         (Dpienc.sender_encrypt_into s ?k_ssl ~base:300 ~tokenization "and. a second one" buf : int);
       Buffer.contents buf)
    [ (Dpienc.Exact, Dpienc.Window); (Dpienc.Exact, Dpienc.Delimiter { short_units = true });
      (Dpienc.Probable, Dpienc.Window); (Dpienc.Probable, Dpienc.Delimiter { short_units = false }) ]

let next_valid_stream =
  let i = ref 0 in
  fun () ->
    incr i;
    List.nth valid_streams (!i mod List.length valid_streams)

(* Each class of malformed stream is refused by both validators and makes
   the decoder raise; a run whose embed bit contradicts the mode decodes
   but is refused for that mode. *)
let malformed_cases =
  List.map
    (fun (name, body) ->
       Alcotest.test_case ("malformed: " ^ name) `Quick (fun () ->
           List.iter
             (fun mode ->
                Alcotest.(check bool) "refused" false (Dpienc.wire_valid ~mode body))
             [ Dpienc.Exact; Dpienc.Probable ];
           match decode_validated body with
           | () -> Alcotest.fail "decoded"
           | exception Invalid_argument _ -> ()))
    Bbx_oracle.Records.undecodable
  @ [ Alcotest.test_case "malformed: embed bit contradicts the mode" `Quick (fun () ->
        List.iter
          (fun (mode, embed) ->
             let body = Bbx_oracle.Records.one_record_run ~embed in
             decode_validated body;
             Alcotest.(check bool) "refused" false (Dpienc.wire_valid ~mode body))
          [ (Dpienc.Exact, true); (Dpienc.Probable, false) ]);
      Alcotest.test_case "5-byte varints: below 2^32 accepted, above refused" `Quick (fun () ->
        let run base = "\x00\x01" ^ base ^ "\x00\x00\x00\x00\x01" in
        Alcotest.(check bool) "2^32 - 1" true
          (Dpienc.wire_valid ~mode:Dpienc.Exact (run "\xff\xff\xff\xff\x0f"));
        let delta z = "\x02\x01\x00" ^ z ^ "\x00\x00\x00\x00\x01" in
        Alcotest.(check bool) "delta 2^32 - 1" true
          (Dpienc.wire_valid ~mode:Dpienc.Exact (delta "\xff\xff\xff\xff\x0f"));
        Alcotest.(check bool) "delta 2^32" false
          (Dpienc.wire_valid ~mode:Dpienc.Exact (delta "\x80\x80\x80\x80\x10"));
        decode_validated (run "\xff\xff\xff\xff\x0f");
        decode_validated (delta "\xff\xff\xff\xff\x0f")) ]

let token_fuzz =
  [ no_crash ~name:"token decoder on random bytes" ~expected:is_invalid_arg decode_validated;
    mutate_prop ~name:"token decoder on mutated valid streams" ~count:300 next_valid_stream
      ~expected:is_invalid_arg decode_validated;
  ]
  @ malformed_cases

let compress_fuzz =
  [ no_crash ~name:"decompressor on random bytes" ~expected:is_invalid_arg
      Bbx_compress.Compress.decompress;
    mutate_prop ~name:"decompressor on mutated archives" ~count:200
      (fun () -> Bbx_compress.Compress.compress "the quick brown fox the quick brown fox")
      ~expected:is_invalid_arg
      Bbx_compress.Compress.decompress;
  ]

let garble_fuzz =
  [ no_crash ~name:"garbled-circuit decoder on random bytes" ~expected:is_invalid_arg
      Bbx_garble.Garble.of_string;
  ]

let record_fuzz =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"record layer rejects every mutation" ~count:300
         QCheck.(pair small_nat (int_range 1 255))
         (fun (pos, delta) ->
            let w = Bbx_tls.Record.create ~key:"fz" ~direction:"d" () in
            let r = Bbx_tls.Record.create ~key:"fz" ~direction:"d" () in
            let sealed = Bbx_tls.Record.seal w "authentic payload" in
            let pos = pos mod String.length sealed in
            let bad =
              String.mapi
                (fun i c -> if i = pos then Char.chr (Char.code c lxor delta) else c)
                sealed
            in
            match Bbx_tls.Record.open_ r bad with
            | _ -> false (* every single-byte change must be caught *)
            | exception Bbx_tls.Record.Auth_failure -> true));
  ]

let () =
  Alcotest.run "fuzz"
    [ ("rules", rule_parser_fuzz);
      ("regex", regex_fuzz);
      ("tokens", token_fuzz);
      ("compress", compress_fuzz);
      ("garble", garble_fuzz);
      ("record", record_fuzz);
    ]
