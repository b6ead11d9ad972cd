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

(* The daemon front's validator never raises, and no stream it accepts
   makes the decoder raise; the decoder fails only with
   [Invalid_argument]. *)
let decode_validated s =
  let module Dpienc = Bbx_dpienc.Dpienc in
  let valid = List.exists (fun mode -> Dpienc.wire_valid ~mode s) [ Dpienc.Exact; Dpienc.Probable ] in
  match Dpienc.decode_iter s ~f:(fun ~cipher:_ ~offset:_ ~embed_pos:_ -> ()) with
  | () -> ()
  | exception (Invalid_argument _ as e) ->
    if valid then failwith "validator accepted an undecodable stream" else raise e

let token_fuzz =
  [ no_crash ~name:"token decoder on random bytes" ~expected:is_invalid_arg decode_validated;
    mutate_prop ~name:"token decoder on mutated valid streams" ~count:300
      (fun () ->
         let module Dpienc = Bbx_dpienc.Dpienc in
         let key = Dpienc.key_of_secret "fuzz" in
         let s = Dpienc.sender_create Dpienc.Exact key ~salt0:0 in
         let buf = Buffer.create 256 in
         ignore (Dpienc.sender_encrypt_into s "some payload bytes here" buf : int);
         Buffer.contents buf)
      ~expected:is_invalid_arg decode_validated;
  ]

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
