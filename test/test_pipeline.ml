(* Differential test for the token pipeline: the streaming path
   (sender_encrypt_into -> decode_iter -> Detect.process_stream) must be
   observationally identical to the reference list path of [Bbx_oracle]
   (list tokenizer -> Hashtbl sender -> record codec -> AVL detector):
   byte-identical wire output and identical match events, in both Exact
   and Probable modes, under both tokenizers. *)

open Bbx_dpienc.Dpienc
open Bbx_oracle

let key = key_of_secret "pipeline-diff-k"

(* Payloads that exercise both tokenizers: random printable text with an
   attack keyword planted on a delimiter boundary, so both the window and
   the delimiter tokenizer emit its chunks. *)
let planted = "attackers"

let arb_payload =
  QCheck.make ~print:Fun.id
    QCheck.Gen.(
      let* left = string_size ~gen:(char_range 'a' 'z') (int_range 0 60) in
      let* right = string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '/'; '.'; '=' ]) (int_range 0 60) in
      return (left ^ " " ^ planted ^ " " ^ right))

let tokenize = function
  | Window -> Tokens.window
  | Delimiter { short_units } -> Tokens.delimiter ~short_units

let planted_encs =
  Array.of_list
    (List.map (fun (c, _) -> token_enc key c)
       (Bbx_tokenizer.Tokenizer.keyword_chunks planted))

let same_events mode batch stream =
  List.length batch = List.length stream
  && List.for_all2
    (fun b (s, embed_pos) ->
       b.Bbx_detect.Detect.kw_id = s.Bbx_detect.Detect.kw_id
       && b.Bbx_detect.Detect.offset = s.Bbx_detect.Detect.offset
       && b.Bbx_detect.Detect.salt = s.Bbx_detect.Detect.salt
       && (mode = Exact) = (embed_pos < 0))
    batch stream

(* One sender/detector pair per path; [packets] flow through both so the
   differential also covers counter-table state carried across packets. *)
let run_both mode tokenization packets =
  let k_ssl = if mode = Probable then Some (String.make 16 'L') else None in
  let s_legacy = Ref_sender.create mode key ~salt0:0 in
  let s_stream = sender_create mode key ~salt0:0 in
  let d_legacy = Ref_detect.create ~mode ~salt0:0 planted_encs in
  let d_stream = Bbx_detect.Detect.create ~mode ~salt0:0 planted_encs in
  let buf = Buffer.create 1024 in
  List.for_all
    (fun payload ->
       let wire_legacy =
         Records.encode_tokens ~explicit:(tokenization <> Window)
           (Ref_sender.encrypt s_legacy ?k_ssl (tokenize tokenization payload))
       in
       Buffer.clear buf;
       let n =
         sender_encrypt_into s_stream ?k_ssl ~tokenization payload buf
       in
       let wire_stream = Buffer.contents buf in
       let batch_evs = Ref_detect.process_batch d_legacy (Records.decode_tokens wire_legacy) in
       let stream_evs = ref [] in
       let n' =
         Bbx_detect.Detect.process_stream d_stream wire_stream
           ~f:(fun ev ~embed_pos -> stream_evs := (ev, embed_pos) :: !stream_evs)
       in
       String.equal wire_legacy wire_stream
       && n = n'
       && n = wire_token_count wire_stream
       && batch_evs <> []  (* the planted keyword must actually fire *)
       && same_events mode batch_evs (List.rev !stream_evs))
    packets

let diff_tests =
  let prop name mode tokenization =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name ~count:60
         QCheck.(pair arb_payload arb_payload)
         (fun (p1, p2) -> run_both mode tokenization [ p1; p2 ]))
  in
  [ prop "exact + window" Exact Window;
    prop "exact + delimiter" Exact (Delimiter { short_units = false });
    prop "exact + delimiter w/ short units" Exact (Delimiter { short_units = true });
    prop "probable + window" Probable Window;
    prop "probable + delimiter" Probable (Delimiter { short_units = false });
  ]

(* Engine-level differential on a generated ruleset: the wire of the
   reference list path and the streaming sender's wire must produce the
   same keyword hits and verdicts, and the hits must be the AVL detector's
   events on the reference records. *)
let engine_tests =
  [ Alcotest.test_case "process_wire equals process on an ET ruleset" `Quick (fun () ->
        let rules =
          List.filter
            (fun r -> r.Bbx_rules.Rule.pcre = None)
            (Bbx_rules.Datasets.generate Bbx_rules.Datasets.Emerging_threats ~n:80)
        in
        let enc_chunk = token_enc key in
        let kw =
          match List.concat_map Bbx_rules.Rule.keywords rules with
          | kw :: _ -> kw
          | [] -> Alcotest.fail "ruleset has no keywords"
        in
        let payload = "GET /index.html?q=" ^ kw ^ " HTTP/1.1\r\nHost: a.example\r\n\r\n" in
        let e_list = Bbx_mbox.Engine.create ~mode:Exact ~salt0:0 ~rules ~enc_chunk () in
        let e_wire = Bbx_mbox.Engine.create ~mode:Exact ~salt0:0 ~rules ~enc_chunk () in
        let records =
          Ref_sender.encrypt (Ref_sender.create Exact key ~salt0:0) (Tokens.delimiter payload)
        in
        let n_list = Bbx_mbox.Engine.process_wire e_list (Records.encode_tokens ~explicit:true records) in
        let s2 = sender_create Exact key ~salt0:0 in
        let buf = Buffer.create 1024 in
        let n =
          sender_encrypt_into s2
            ~tokenization:(Delimiter { short_units = false }) payload buf
        in
        Alcotest.(check int) "token count" (Bbx_tokenizer.Tokenizer.delimiter_count payload)
          (Bbx_mbox.Engine.process_wire e_wire (Buffer.contents buf));
        Alcotest.(check int) "same count both paths" n n_list;
        let chunks = Bbx_mbox.Engine.chunks (Bbx_mbox.Engine.ruleset rules) in
        let tree = Ref_detect.create ~mode:Exact ~salt0:0 (Array.map enc_chunk chunks) in
        let tree_hits =
          List.map
            (fun ev -> (chunks.(ev.Bbx_detect.Detect.kw_id), ev.Bbx_detect.Detect.offset))
            (Ref_detect.process_batch tree records)
        in
        let sorted = List.sort compare in
        Alcotest.(check (list (pair string int))) "keyword hits"
          (sorted (Bbx_mbox.Engine.keyword_hits e_list))
          (sorted (Bbx_mbox.Engine.keyword_hits e_wire));
        Alcotest.(check (list (pair string int))) "hits are the tree's events" (sorted tree_hits)
          (sorted (Bbx_mbox.Engine.keyword_hits e_wire));
        Alcotest.(check bool) "the keyword hit" true (tree_hits <> []);
        let idxs e =
          List.map (fun v -> v.Bbx_mbox.Engine.rule_idx) (Bbx_mbox.Engine.verdicts e)
        in
        Alcotest.(check (list int)) "verdicts" (idxs e_list) (idxs e_wire));
  ]

let () =
  Alcotest.run "pipeline"
    [ ("differential", diff_tests); ("engine", engine_tests) ]
