(* Wire-protocol codec tests: encode/decode roundtrips for every message
   type (unit + qcheck-random payloads), incremental Framer extraction
   (split points chosen adversarially, down to byte-at-a-time feeding),
   and rejection of malformed input — truncated bodies, trailing bytes,
   unknown type bytes, bad enum bytes and over-limit length prefixes. *)

open Bbx_wire

let token_len = Bbx_tokenizer.Tokenizer.token_len

let chunk c = String.make token_len c
let enc16 c = String.make 16 c

let samples : Wire.msg list =
  [ Wire.Hello
      { version = Wire.version; mode = Bbx_dpienc.Dpienc.Exact; salt0 = 42; features = 0 };
    Wire.Hello { version = 7; mode = Bbx_dpienc.Dpienc.Probable; salt0 = 0; features = 0 };
    Wire.Hello
      { version = Wire.version; mode = Bbx_dpienc.Dpienc.Exact; salt0 = 1; features = 1 };
    Wire.Hello
      { version = Wire.version; mode = Bbx_dpienc.Dpienc.Probable; salt0 = 2; features = 255 };
    Wire.Hello_ok { conn_id = 12345; mode = Bbx_dpienc.Dpienc.Exact;
                    rules_text = "alert tcp any any -> any any (content:\"attackkw\"; sid:1;)" };
    Wire.Rule_setup { pairs = [||] };
    Wire.Rule_setup { pairs = [| (chunk 'a', enc16 'A'); (chunk 'b', enc16 'B') |] };
    Wire.Setup_ok;
    Wire.Token_stream { seq = 0; records = "" };
    Wire.Token_stream { seq = max_int land 0xFFFFFFFF; records = String.init 30 Char.chr };
    Wire.Verdict { seq = 9; status = Wire.Clean; verdicts = [] };
    Wire.Verdict
      { seq = 10; status = Wire.Alerts;
        verdicts =
          [ { Wire.v_sid = 1; v_detail = `Exact_hit; v_msg = "hit" };
            { Wire.v_sid = 7; v_detail = `Composite_match; v_msg = "composite" };
            { Wire.v_sid = 8; v_detail = `Budget_exceeded; v_msg = "flagged" };
            { Wire.v_sid = 0; v_detail = `Regex_match; v_msg = "" } ] };
    Wire.Verdict { seq = 11; status = Wire.Dropped; verdicts = [] };
    Wire.Record_stream { seq = 0; record = "" };
    Wire.Record_stream { seq = 77; record = String.init 45 Char.chr };
    Wire.Salt_reset { salt0 = 1 lsl 30 };
    Wire.Rule_update
      { remove_sids = [ 3; 1; 4 ]; add_text = "alert tcp ...";
        pairs = [| (chunk 'z', enc16 'Z') |] };
    Wire.Rule_update { remove_sids = []; add_text = ""; pairs = [||] };
    Wire.Update_ok { added = 2 };
    Wire.Stats_req;
    Wire.Stats
      { s_connections = 1; s_total_tokens = 999999; s_total_keyword_hits = 5;
        s_alerts = 2; s_blocked = 1 };
    Wire.Bye;
    Wire.Error { code = Wire.err_protocol; message = "nope" };
    Wire.Metrics_req { scope = Wire.Prometheus };
    Wire.Metrics_req { scope = Wire.Jsonl };
    Wire.Metrics_req { scope = Wire.Trace };
    Wire.Metrics { scope = Wire.Prometheus; body = "bbx_x_total 1\n" };
    Wire.Metrics { scope = Wire.Jsonl; body = "" };
    Wire.Metrics { scope = Wire.Trace; body = "{\"traceEvents\":[]}" };
    Wire.Conn_export;
    Wire.Conn_state { state = "" };
    Wire.Conn_state { state = String.init 64 Char.chr };
    Wire.Conn_import { state = "opaque snapshot bytes \x00\xff" } ]

(* strip the 4-byte length prefix *)
let payload_of msg =
  let framed = Wire.encode_frame_string msg in
  String.sub framed 4 (String.length framed - 4)

let roundtrip msg = Wire.decode (payload_of msg)

let check_roundtrip msg =
  Alcotest.(check bool) "roundtrip" true (roundtrip msg = msg)

let feed_in_pieces framer s piece =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    let n = min piece (Bytes.length b - !off) in
    Wire.Framer.feed framer b !off n;
    off := !off + n
  done

let drain framer =
  let rec go acc =
    match Wire.Framer.next framer with
    | Some msg -> go (msg :: acc)
    | None -> List.rev acc
  in
  go []

let rejects what payload =
  Alcotest.(check bool) what true
    (match Wire.decode payload with
     | exception Wire.Malformed _ -> true
     | _ -> false)

let unit_tests =
  [ Alcotest.test_case "every message type roundtrips" `Quick (fun () ->
        List.iter check_roundtrip samples);
    Alcotest.test_case "framer: all samples, byte at a time" `Quick (fun () ->
        let stream = String.concat "" (List.map Wire.encode_frame_string samples) in
        List.iter
          (fun piece ->
            let framer = Wire.Framer.create () in
            feed_in_pieces framer stream piece;
            let msgs = drain framer in
            Alcotest.(check int) "frame count" (List.length samples)
              (List.length msgs);
            List.iter2
              (fun msg m ->
                Alcotest.(check bool) "frame decodes back" true (m = msg))
              samples msgs;
            Alcotest.(check int) "nothing buffered" 0 (Wire.Framer.buffered framer))
          [ 1; 2; 3; 7; 64; max_int ]);
    Alcotest.test_case "framer: partial frame stays buffered" `Quick (fun () ->
        let framer = Wire.Framer.create () in
        let framed = Wire.encode_frame_string Wire.Setup_ok in
        let b = Bytes.of_string framed in
        Wire.Framer.feed framer b 0 (Bytes.length b - 1);
        Alcotest.(check bool) "no frame yet" true (Wire.Framer.next framer = None);
        Wire.Framer.feed framer b (Bytes.length b - 1) 1;
        Alcotest.(check bool) "now complete" true
          (Wire.Framer.next framer = Some Wire.Setup_ok));
    Alcotest.test_case "framer: over-limit length prefix raises early" `Quick (fun () ->
        let framer = Wire.Framer.create () in
        let b = Bytes.create 4 in
        Bytes.set_uint8 b 0 0xFF; Bytes.set_uint8 b 1 0xFF;
        Bytes.set_uint8 b 2 0xFF; Bytes.set_uint8 b 3 0xFF;
        Wire.Framer.feed framer b 0 4;
        Alcotest.(check bool) "raises without the body" true
          (match Wire.Framer.next framer with
           | exception Wire.Malformed _ -> true
           | _ -> false));
    Alcotest.test_case "decode rejects malformed payloads" `Quick (fun () ->
        rejects "empty payload" "";
        rejects "unknown type byte" "\x00";
        rejects "unknown type byte 99" (String.make 1 (Char.chr 99));
        rejects "hello truncated" "\x01\x01";
        rejects "retired type 17" (String.make 1 (Char.chr 17));
        List.iter
          (fun msg ->
            match msg with
            (* rules_text / records / metrics / record bodies are
               rest-encoded: any suffix length is a valid (different)
               message, so skip the mutation checks *)
            | Wire.Hello_ok _ | Wire.Token_stream _ | Wire.Metrics _
            | Wire.Record_stream _ | Wire.Conn_state _ | Wire.Conn_import _ -> ()
            | _ ->
              let p = payload_of msg in
              if String.length p > 1 then
                rejects "truncated body" (String.sub p 0 (String.length p - 1));
              rejects "trailing byte" (p ^ "\x00"))
          samples;
        (* bad enum bytes inside otherwise-valid messages *)
        let hello = Bytes.of_string (payload_of
          (Wire.Hello
             { version = Wire.version; mode = Bbx_dpienc.Dpienc.Exact; salt0 = 0;
               features = 0 })) in
        Bytes.set hello 2 '\x07';      (* mode byte *)
        rejects "bad mode byte" (Bytes.to_string hello);
        let mreq = Bytes.of_string (payload_of (Wire.Metrics_req { scope = Wire.Prometheus })) in
        Bytes.set mreq 1 '\x07';       (* scope byte *)
        rejects "bad metrics scope byte" (Bytes.to_string mreq);
        let verdict = Bytes.of_string (payload_of
          (Wire.Verdict { seq = 1; status = Wire.Clean; verdicts = [] })) in
        Bytes.set verdict 5 '\x09';    (* status byte *)
        rejects "bad status byte" (Bytes.to_string verdict);
        let va = Bytes.of_string (payload_of
          (Wire.Verdict
             { seq = 1; status = Wire.Alerts;
               verdicts = [ { Wire.v_sid = 1; v_detail = `Exact_hit; v_msg = "" } ] })) in
        (* per-verdict layout: u32 sid, detail byte, str16 msg *)
        Bytes.set va (5 + 1 + 2 + 4) '\x09';
        rejects "bad detail byte" (Bytes.to_string va));
    Alcotest.test_case "VERDICT carries every detail" `Quick (fun () ->
        (* one entry per detail: each reads back as itself, so a composite
           match never reads as an exact hit and a budget-exceeded flag
           never reads as a regex match *)
        let details = [ `Exact_hit; `Composite_match; `Regex_match; `Budget_exceeded ] in
        let verdicts =
          List.mapi (fun i d -> { Wire.v_sid = i; v_detail = d; v_msg = "m" }) details
        in
        let msg = Wire.Verdict { seq = 3; status = Wire.Alerts; verdicts } in
        (match roundtrip msg with
         | Wire.Verdict { verdicts = back; _ } ->
           Alcotest.(check bool) "each detail reads back as itself" true
             (List.map (fun v -> v.Wire.v_detail) back = details)
         | _ -> Alcotest.fail "expected VERDICT");
        (* type 6; seq u32, status u8, count u16, then per entry
           sid u32, detail u8, msg str16 *)
        let p = payload_of msg in
        Alcotest.(check int) "type byte" 6 (Char.code p.[0]);
        Alcotest.(check int) "body length" (1 + 4 + 1 + 2 + (4 * (4 + 1 + 2 + 1)))
          (String.length p));
    Alcotest.test_case "HELLO has one 12-byte layout" `Quick (fun () ->
        let hello features =
          payload_of
            (Wire.Hello
               { version = Wire.version; mode = Bbx_dpienc.Dpienc.Exact; salt0 = 9;
                 features })
        in
        Alcotest.(check int) "features 0" 12 (String.length (hello 0));
        Alcotest.(check int) "features 255" 12 (String.length (hello 255));
        Alcotest.(check int) "version byte" Wire.version (Char.code (hello 0).[1]);
        (* the features-less body of version 1 is gone, and so is any
           trailing extension *)
        rejects "11-byte hello" (String.sub (hello 0) 0 11);
        rejects "13-byte hello" (hello 0 ^ "\x00"));
    Alcotest.test_case "rule_setup enforces pair lengths at encode" `Quick (fun () ->
        Alcotest.(check bool) "short chunk" true
          (match Wire.encode_frame_string (Wire.Rule_setup { pairs = [| ("ab", enc16 'x') |] }) with
           | exception Invalid_argument _ -> true
           | _ -> false);
        Alcotest.(check bool) "short enc" true
          (match Wire.encode_frame_string (Wire.Rule_setup { pairs = [| (chunk 'a', "xy") |] }) with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "length prefix and the 16 MiB encode cap" `Quick (fun () ->
        List.iter
          (fun msg ->
            let framed = Wire.encode_frame_string msg in
            Alcotest.(check int) "prefix = payload length" (String.length framed - 4)
              (Int32.to_int (String.get_int32_be framed 0)))
          samples;
        let stream n = Wire.Token_stream { seq = 0; records = String.make n 'r' } in
        (* a TOKEN_STREAM payload is the type byte, the seq and the records *)
        let at_cap = Wire.max_frame_bytes - 5 in
        Alcotest.(check int) "a payload at the cap encodes" (4 + Wire.max_frame_bytes)
          (String.length (Wire.encode_frame_string (stream at_cap)));
        Alcotest.(check bool) "one byte over is refused" true
          (match Wire.encode_frame_string (stream (at_cap + 1)) with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "HELLO_OK is hello_ok_head and the text" `Quick (fun () ->
        let text = "alert tcp any any -> any any (content:\"alertkw1\"; sid:1;)" in
        List.iter
          (fun conn_id ->
            List.iter
              (fun mode ->
                List.iter
                  (fun rules_text ->
                    let head =
                      Wire.hello_ok_head ~conn_id ~mode ~text_bytes:(String.length rules_text)
                    in
                    let msg = Wire.Hello_ok { conn_id; mode; rules_text } in
                    let framed = head ^ rules_text in
                    Alcotest.(check int) "10-byte head" 10 (String.length head);
                    Alcotest.(check string) "the encoder's frame" (Wire.encode_frame_string msg)
                      framed;
                    Alcotest.(check int) "prefix = payload length" (String.length framed - 4)
                      (Int32.to_int (String.get_int32_be framed 0));
                    Alcotest.(check bool) "decodes to the message" true
                      (Wire.decode (String.sub framed 4 (String.length framed - 4)) = msg))
                  [ ""; text ])
              [ Bbx_dpienc.Dpienc.Exact; Bbx_dpienc.Dpienc.Probable ])
          [ 0; 1; (1 lsl 31) - 1 ];
        (* the payload is the type byte, conn_id, the mode byte and the text *)
        let at_cap = Wire.max_frame_bytes - 6 in
        Alcotest.(check int) "a text at the cap" 10
          (String.length
             (Wire.hello_ok_head ~conn_id:0 ~mode:Bbx_dpienc.Dpienc.Exact ~text_bytes:at_cap));
        Alcotest.check_raises "one byte over is refused"
          (Invalid_argument "Wire.hello_ok_head: frame too large") (fun () ->
            ignore
              (Wire.hello_ok_head ~conn_id:0 ~mode:Bbx_dpienc.Dpienc.Exact
                 ~text_bytes:(at_cap + 1)
               : string)));
    Alcotest.test_case "golden: the samples' frames, byte for byte" `Quick (fun () ->
        (* one digest over every sample's frame: a codec change that moves
           any byte of a valid frame shows here *)
        Alcotest.(check string) "sha256"
          "be7918ff4b22a88d94ad7d9aec689eac730019cc74ab71e1bf4ed076f02ddd15"
          (Bbx_crypto.Sha256.hexdigest
             (String.concat "" (List.map Wire.encode_frame_string samples))));
    Alcotest.test_case "64-bit fields outside the int range are refused" `Quick (fun () ->
        (* salt0 sits at payload bytes 3..10 of a HELLO, 1..8 of a
           SALT_RESET, as 8 big-endian bytes *)
        let hello =
          Bytes.of_string
            (payload_of
               (Wire.Hello
                  { version = Wire.version; mode = Bbx_dpienc.Dpienc.Exact; salt0 = 1;
                    features = 0 }))
        in
        Bytes.set hello 3 '\x80';
        rejects "HELLO salt0 80 00 00 00 00 00 00 01" (Bytes.to_string hello);
        rejects "SALT_RESET salt0 40 00 00 00 00 00 00 00" "\x07\x40\x00\x00\x00\x00\x00\x00\x00";
        (* the ends of the int range still travel *)
        List.iter
          (fun salt0 -> check_roundtrip (Wire.Salt_reset { salt0 }))
          [ max_int; min_int; -1; 0 ]);
    Alcotest.test_case "framer: a drained large buffer is let go" `Quick (fun () ->
        (* a HELLO_OK the size of the 3 000-rule text, fed as a socket
           delivers it, then small frames: the framer keeps no more than
           a few KiB once the large frame is gone *)
        let hello_ok =
          Wire.Hello_ok
            { conn_id = 7; mode = Bbx_dpienc.Dpienc.Exact;
              rules_text = String.init 700_000 (fun i -> Char.chr (32 + (i mod 95))) }
        in
        let small i =
          Wire.Token_stream { seq = i; records = String.make 596 (Char.chr (i land 0xff)) }
        in
        Alcotest.(check int) "605 B frames" 605
          (String.length (Wire.encode_frame_string (small 0)));
        let framer = Wire.Framer.create () in
        feed_in_pieces framer (Wire.encode_frame_string hello_ok) 65_536;
        Alcotest.(check bool) "HELLO_OK decodes" true (drain framer = [ hello_ok ]);
        for i = 1 to 100 do
          feed_in_pieces framer (Wire.encode_frame_string (small i)) 65_536;
          Alcotest.(check bool) "small frame decodes" true (drain framer = [ small i ])
        done;
        let bytes = Obj.reachable_words (Obj.repr framer) * (Sys.word_size / 8) in
        Alcotest.(check bool) (Printf.sprintf "%d B reachable, under 16 KiB" bytes) true
          (bytes < 16_384));
    Alcotest.test_case "framer: a stream of large frames keeps its buffer" `Quick
      (fun () ->
        (* window-token writes of 16 KiB make ~82 KB frames: each fills
           more than half of the buffer they grew, which stays *)
        let big i = Wire.Token_stream { seq = i; records = String.make 81_920 'r' } in
        let framer = Wire.Framer.create () in
        let reachable () = Obj.reachable_words (Obj.repr framer) in
        feed_in_pieces framer (Wire.encode_frame_string (big 0)) 65_536;
        Alcotest.(check bool) "first frame" true (drain framer = [ big 0 ]);
        let grown = reachable () in
        Alcotest.(check bool) "the grown buffer outlives the frame" true
          (grown * (Sys.word_size / 8) > 81_920);
        for i = 1 to 10 do
          feed_in_pieces framer (Wire.encode_frame_string (big i)) 65_536;
          Alcotest.(check bool) "frame decodes" true (drain framer = [ big i ]);
          Alcotest.(check int) "same buffer" grown (reachable ())
        done) ]

(* ---------- qcheck ---------- *)

let gen_verdict =
  QCheck.Gen.(
    map3
      (fun sid detail msg -> { Wire.v_sid = sid; v_detail = detail; v_msg = msg })
      (int_bound 0xFFFF)
      (oneofl [ `Exact_hit; `Composite_match; `Regex_match; `Budget_exceeded ])
      (string_size (int_bound 40)))

let gen_msg =
  QCheck.Gen.(
    oneof
      [ map3
          (fun v (m, f) s -> Wire.Hello { version = v; mode = m; salt0 = s; features = f })
          (int_bound 255)
          (pair
             (oneofl [ Bbx_dpienc.Dpienc.Exact; Bbx_dpienc.Dpienc.Probable ])
             (int_bound 255))
          (int_bound 0xFFFFFF);
        map
          (fun scope -> Wire.Metrics_req { scope })
          (oneofl [ Wire.Prometheus; Wire.Jsonl; Wire.Trace ]);
        map2
          (fun scope body -> Wire.Metrics { scope; body })
          (oneofl [ Wire.Prometheus; Wire.Jsonl; Wire.Trace ])
          (string_size (int_bound 200));
        map
          (fun pairs -> Wire.Rule_setup { pairs })
          (array_size (int_bound 20)
             (pair (string_size (return token_len)) (string_size (return 16))));
        map2
          (fun seq records -> Wire.Token_stream { seq; records })
          (int_bound 0xFFFFFF)
          (string_size (int_bound 200));
        map3
          (fun seq status verdicts -> Wire.Verdict { seq; status; verdicts })
          (int_bound 0xFFFFFF)
          (oneofl [ Wire.Clean; Wire.Alerts; Wire.Dropped ])
          (list_size (int_bound 8) gen_verdict);
        map2
          (fun seq record -> Wire.Record_stream { seq; record })
          (int_bound 0xFFFFFF)
          (string_size (int_bound 200));
        map2
          (fun sids text ->
            Wire.Rule_update { remove_sids = sids; add_text = text; pairs = [||] })
          (list_size (int_bound 10) (int_bound 0xFFFF))
          (string_size (int_bound 100)) ])

let qcheck_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"random message roundtrips"
         (QCheck.make gen_msg)
         (fun msg -> roundtrip msg = msg));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"framer reassembles random split points"
         QCheck.(pair (make gen_msg) small_nat)
         (fun (msg, split) ->
           let framed = Wire.encode_frame_string msg in
           let framer = Wire.Framer.create () in
           let cut = 1 + (split mod max 1 (String.length framed - 1)) in
           let b = Bytes.of_string framed in
           Wire.Framer.feed framer b 0 cut;
           let early = Wire.Framer.next framer in
           Wire.Framer.feed framer b cut (Bytes.length b - cut);
           (match early with
            | Some m -> m = msg
            | None ->
              (match Wire.Framer.next framer with
               | Some m -> m = msg
               | None -> false))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"random garbage never escapes Malformed"
         QCheck.string
         (fun s ->
           match Wire.decode s with
           | _ -> true                    (* parsed: fine *)
           | exception Wire.Malformed _ -> true
           | exception _ -> false)) ]

let () =
  Alcotest.run "wire"
    [ ("unit", unit_tests); ("qcheck", qcheck_tests) ]
