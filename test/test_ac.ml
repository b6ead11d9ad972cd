open Bbx_ac

let search_naive patterns payload =
  (* reference: for each pattern, all end offsets *)
  let hits = ref [] in
  Array.iteri
    (fun pi pat ->
       let np = String.length pat in
       for q = 0 to String.length payload - np do
         if String.sub payload q np = pat then hits := (pi, q + np) :: !hits
       done)
    patterns;
  List.sort compare !hits

let unit_tests =
  [ Alcotest.test_case "basic multi-pattern" `Quick (fun () ->
        let t = Aho_corasick.build [| "he"; "she"; "his"; "hers" |] in
        let hits = Aho_corasick.search t "ushers" in
        Alcotest.(check (list (pair int int))) "classic example"
          [ (1, 4); (0, 4); (3, 6) ] hits);
    Alcotest.test_case "overlapping matches all reported" `Quick (fun () ->
        let t = Aho_corasick.build [| "aa" |] in
        Alcotest.(check int) "three" 3 (List.length (Aho_corasick.search t "aaaa")));
    Alcotest.test_case "no match" `Quick (fun () ->
        let t = Aho_corasick.build [| "attack" |] in
        Alcotest.(check (list (pair int int))) "none" [] (Aho_corasick.search t "benign"));
    Alcotest.test_case "count matches search" `Quick (fun () ->
        let t = Aho_corasick.build [| "ab"; "b" |] in
        let payload = "ababab" in
        Alcotest.(check int) "same count"
          (List.length (Aho_corasick.search t payload))
          (Aho_corasick.count_matches t payload));
    Alcotest.test_case "empty pattern rejected" `Quick (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Aho_corasick.build: empty pattern")
          (fun () -> ignore (Aho_corasick.build [| "ok"; "" |])));
    Alcotest.test_case "binary patterns" `Quick (fun () ->
        let t = Aho_corasick.build [| "\x00\xff\x00"; "\xde\xad" |] in
        let hits = Aho_corasick.search t "xx\x00\xff\x00yy\xde\xadzz" in
        Alcotest.(check int) "two" 2 (List.length hits));
  ]

let property_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"matches naive scan" ~count:300
         (* two letters in both cases and the two extreme byte values,
            over an alphabet small enough that matches still collide *)
         (let alphabet = [| 'a'; 'A'; 'b'; 'B'; '\x00'; '\xff' |] in
          let over_alphabet lo hi =
            QCheck.Gen.(string_size ~gen:(oneofa alphabet) (int_range lo hi))
          in
          QCheck.make
            ~print:(fun (ps, s) ->
                String.concat "," (Array.to_list (Array.map String.escaped ps))
                ^ " on " ^ String.escaped s)
            QCheck.Gen.(pair (array_size (return 4) (over_alphabet 1 4)) (over_alphabet 0 40)))
         (fun (patterns, payload) ->
            let t = Aho_corasick.build patterns in
            List.sort compare (Aho_corasick.search t payload)
            = search_naive patterns payload));
  ]

let () = Alcotest.run "ac" [ ("unit", unit_tests); ("props", property_tests) ]
