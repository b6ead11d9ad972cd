open Bbx_tokenizer.Tokenizer
open Bbx_oracle.Tokens

let token = Alcotest.testable
    (fun fmt t -> Format.fprintf fmt "%S@%d" t.content t.offset)
    (fun a b -> a.content = b.content && a.offset = b.offset)

let window_tests =
  [ Alcotest.test_case "paper example" `Quick (fun () ->
        (* "alice apple" -> "alice ap", "lice app", "ice appl", ... *)
        let toks = window "alice apple" in
        Alcotest.(check int) "count" 4 (List.length toks);
        Alcotest.check token "first" { content = "alice ap"; offset = 0 } (List.nth toks 0);
        Alcotest.check token "second" { content = "lice app"; offset = 1 } (List.nth toks 1);
        Alcotest.check token "third" { content = "ice appl"; offset = 2 } (List.nth toks 2));
    Alcotest.test_case "short payload" `Quick (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (window "short"));
        Alcotest.(check int) "exact" 1 (List.length (window "12345678")));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"one token per offset" ~count:100
         QCheck.(string_of_size (QCheck.Gen.int_range 8 200))
         (fun s ->
            let toks = window s in
            List.length toks = String.length s - token_len + 1
            && List.for_all
              (fun t -> t.content = String.sub s t.offset token_len)
              toks));
  ]

let keyword_tests =
  [ Alcotest.test_case "paper example maliciously" `Quick (fun () ->
        Alcotest.(check (list (pair string int)))
          "chunks" [ ("maliciou", 0); ("iciously", 3) ] (keyword_chunks "maliciously"));
    Alcotest.test_case "exact token length" `Quick (fun () ->
        Alcotest.(check (list (pair string int))) "single" [ ("exactly8", 0) ]
          (keyword_chunks "exactly8"));
    Alcotest.test_case "short keyword padded" `Quick (fun () ->
        Alcotest.(check (list (pair string int))) "padded" [ ("cmd\000\000\000\000\000", 0) ]
          (keyword_chunks "cmd"));
    Alcotest.test_case "long keyword has stride chunks plus tail" `Quick (fun () ->
        let kw = "0123456789abcdefghij" (* 20 bytes *) in
        Alcotest.(check (list (pair string int))) "chunks"
          [ ("01234567", 0); ("89abcdef", 8); ("cdefghij", 12) ]
          (keyword_chunks kw));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"chunks cover whole keyword" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_range 8 64))
         (fun kw ->
            let chunks = keyword_chunks kw in
            let covered = Array.make (String.length kw) false in
            List.iter
              (fun (c, off) ->
                 String.iteri (fun i ch ->
                     if ch = kw.[off + i] then covered.(off + i) <- true) c)
              chunks;
            Array.for_all Fun.id covered
            && List.for_all (fun (c, off) -> c = String.sub kw off token_len) chunks));
  ]

(* Every keyword chunk the middlebox searches for must be emitted by the
   delimiter tokenizer when the keyword appears on a delimiter boundary. *)
let delimiter_covers payload kw =
  let toks = delimiter payload in
  let find_at content offset =
    List.exists (fun t -> t.content = content && t.offset = offset) toks
  in
  (* keyword starts right after "GET /" etc. — locate it *)
  let rec index_of i =
    if i + String.length kw > String.length payload then None
    else if String.sub payload i (String.length kw) = kw then Some i
    else index_of (i + 1)
  in
  match index_of 0 with
  | None -> Alcotest.fail "keyword not in payload"
  | Some base ->
    List.for_all (fun (c, off) -> find_at c (base + off)) (keyword_chunks kw)

let delimiter_tests =
  [ Alcotest.test_case "covers boundary keyword (long)" `Quick (fun () ->
        Alcotest.(check bool) "covered" true
          (delimiter_covers "GET /login.php?user=maliciouspayload HTTP/1.1" "maliciouspayload"));
    Alcotest.test_case "covers keyword containing delimiters" `Quick (fun () ->
        Alcotest.(check bool) "covered" true
          (delimiter_covers "GET /login.php?user=alice HTTP/1.1" "login.php"));
    Alcotest.test_case "covers short keyword as padded unit (opt-in)" `Quick (fun () ->
        let toks = delimiter ~short_units:true "run cmd now" in
        Alcotest.(check bool) "padded cmd present" true
          (List.exists (fun t -> t.content = pad_short "cmd" && t.offset = 4) toks);
        Alcotest.(check bool) "off by default" false
          (List.exists (fun t -> t.content = pad_short "cmd")
             (delimiter "run cmd now")));
    Alcotest.test_case "emits fewer tokens than window on text" `Quick (fun () ->
        let payload =
          "The quick brown fox jumps over the lazy dog while reading the news at example.com today"
        in
        let w = List.length (window payload) and d = List.length (delimiter payload) in
        Alcotest.(check bool) (Printf.sprintf "d=%d < w=%d" d w) true (d < w));
    Alcotest.test_case "offsets valid and contents consistent" `Quick (fun () ->
        let payload = "POST /submit?q=hello&lang=en HTTP/1.1\r\nHost: x.org\r\n\r\nbody=42" in
        List.iter
          (fun t ->
             Alcotest.(check int) "len" token_len (String.length t.content);
             Alcotest.(check bool) "offset in range" true
               (t.offset >= 0 && t.offset <= String.length payload - 1);
             (* unpadded tokens must be substrings at their offset *)
             if not (String.contains t.content '\000') then
               Alcotest.(check string) "substring" (String.sub payload t.offset token_len)
                 t.content)
          (delimiter payload));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"delimiter tokens subset of window tokens (unpadded)" ~count:100
         QCheck.(string_of_size (QCheck.Gen.int_range 8 120))
         (fun s ->
            let w = window s in
            List.for_all
              (fun t ->
                 String.contains t.content '\000'
                 || List.exists (fun u -> u.offset = t.offset && u.content = t.content) w)
              (delimiter s)));
  ]

let count_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"window_count equals list length" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_range 0 150))
         (fun s -> window_count s = List.length (window s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"delimiter_count equals list length" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_range 0 150))
         (fun s ->
            delimiter_count s = List.length (delimiter s)
            && delimiter_count ~short_units:true s
               = List.length (delimiter ~short_units:true s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"delimiter never exceeds window on full tokens" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_range 8 150))
         (fun s -> delimiter_count s <= window_count s + String.length s / token_len));
  ]

(* The list tokenizers of [Bbx_oracle.Tokens] are built on the folds;
   these properties pin the two views together: every fold visit,
   materialised through [slice_token], must reproduce the list tokens in
   emission order, and the folds' visit counts must equal the count API. *)
let streaming_tests =
  let collect fold s =
    List.rev (fold s ~init:[] ~f:(fun acc ~off ~len -> slice_token s ~off ~len :: acc))
  in
  let same_tokens a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> x.content = y.content && x.offset = y.offset) a b
  in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fold_window agrees with window" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_range 0 150))
         (fun s -> same_tokens (collect fold_window s) (window s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fold_delimiter agrees with delimiter" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_range 0 150))
         (fun s ->
            same_tokens (collect (fun s -> fold_delimiter s) s) (delimiter s)
            && same_tokens
                 (collect (fun s -> fold_delimiter ~short_units:true s) s)
                 (delimiter ~short_units:true s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fold visit counts equal the count API" ~count:200
         QCheck.(string_of_size (QCheck.Gen.int_range 0 150))
         (fun s ->
            let visits fold s = fold s ~init:0 ~f:(fun n ~off:_ ~len:_ -> n + 1) in
            visits fold_window s = window_count s
            && visits (fun s -> fold_delimiter s) s = delimiter_count s
            && visits (fun s -> fold_delimiter ~short_units:true s) s
               = delimiter_count ~short_units:true s));
    Alcotest.test_case "slice_token pads short slices" `Quick (fun () ->
        let t = slice_token "run cmd now" ~off:4 ~len:3 in
        Alcotest.(check string) "padded" (pad_short "cmd") t.content;
        Alcotest.(check int) "offset" 4 t.offset);
  ]

let () =
  Alcotest.run "tokenizer"
    [ ("window", window_tests);
      ("keyword-chunks", keyword_tests);
      ("delimiter", delimiter_tests);
      ("counts", count_tests);
      ("streaming", streaming_tests);
    ]
