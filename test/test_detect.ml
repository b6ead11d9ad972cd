open Bbx_detect
open Bbx_dpienc.Dpienc
open Bbx_oracle

(* ---------- AVL property tests ---------- *)

let avl_props =
  let prop name ?(count = 300) arb f =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)
  in
  let arb_ops =
    QCheck.(list (pair (int_bound 500) bool)) (* (key, insert?) sequence *)
  in
  [ prop "matches stdlib Map under random ops" arb_ops (fun ops ->
        let module M = Map.Make (Int) in
        let avl, map =
          List.fold_left
            (fun (avl, map) (k, ins) ->
               if ins then (Avl.insert k (k * 2) avl, M.add k (k * 2) map)
               else (Avl.remove k avl, M.remove k map))
            (Avl.empty, M.empty) ops
        in
        Avl.check_invariants avl
        && Avl.to_sorted_list avl = M.bindings map);
    prop "height is logarithmic" QCheck.(int_range 1 2000) (fun n ->
        let t = Avl.of_list (List.init n (fun i -> (i, i))) in
        Avl.check_invariants t
        && float_of_int (Avl.height t)
           <= 1.45 *. (log (float_of_int (n + 2)) /. log 2.0));
    prop "insert replaces" QCheck.(int_bound 100) (fun k ->
        let t = Avl.insert k "b" (Avl.insert k "a" Avl.empty) in
        Avl.find_opt k t = Some "b" && Avl.size t = 1);
    prop "update add/remove" QCheck.(int_bound 100) (fun k ->
        let t = Avl.update k (fun _ -> Some 1) Avl.empty in
        let t' = Avl.update k (fun _ -> None) t in
        Avl.mem k t && not (Avl.mem k t') && Avl.is_empty t');
    (let arb =
       QCheck.(triple (list_of_size (QCheck.Gen.int_range 1 40) (int_bound 500))
                 (int_bound 39) (int_bound 600))
     in
     prop "replace equals remove-then-insert" arb (fun (keys, pick, new_key) ->
         let t =
           List.fold_left (fun t k -> Avl.insert k (k * 3) t) Avl.empty keys
         in
         let old_key = List.nth keys (pick mod List.length keys) in
         let v = new_key * 7 in
         let fast = Avl.replace ~old_key new_key v t in
         let slow = Avl.insert new_key v (Avl.remove old_key t) in
         Avl.check_invariants fast
         && Avl.to_sorted_list fast = Avl.to_sorted_list slow));
    prop "replace with adjacent key keeps all other bindings"
      QCheck.(int_range 1 200) (fun n ->
        (* keys 0,2,4,...: bumping k to k+1 always fits the ordering gap,
           which is exactly Detect's salt-increment pattern *)
        let t = Avl.of_list (List.init n (fun i -> (2 * i, i))) in
        let k = 2 * (n / 2) in
        let t' = Avl.replace ~old_key:k (k + 1) ~-1 t in
        Avl.check_invariants t'
        && Avl.size t' = n
        && Avl.find_opt (k + 1) t' = Some ~-1
        && not (Avl.mem k t'));
  ]

(* ---------- Detect engine ---------- *)

let key = key_of_secret "shared-k"
let t8 = Bbx_tokenizer.Tokenizer.pad_short

(* The encrypted rule tokens AES_k(token), as the middlebox holds them. *)
let encs kws = Array.of_list (List.map (fun k -> token_enc key (t8 k)) kws)

let mk_detect ?(mode = Exact) ?(salt0 = 0) kws = Detect.create ~mode ~salt0 (encs kws)

let mk_sender ?(mode = Exact) ?(salt0 = 0) () = sender_create mode key ~salt0

(* The sender's wire for a token sequence: each (padded) word is an 8-byte
   payload whose one window is the word, at offset 8 * i. *)
let stream sender ?k_ssl contents =
  String.concat ""
    (List.mapi (fun i c -> Records.wire sender ?k_ssl ~base:(8 * i) (t8 c)) contents)

(* Every event of one stream, in order. *)
let events d wire =
  let acc = ref [] in
  ignore (Detect.process_stream d wire ~f:(fun ev ~embed_pos:_ -> acc := ev :: !acc) : int);
  List.rev !acc

let detect_tests =
  [ Alcotest.test_case "single keyword match with offset" `Quick (fun () ->
        let d = mk_detect [ "attack" ] in
        let s = mk_sender () in
        let toks = stream s [ "hello"; "attack"; "world" ] in
        (match events d toks with
         | [ ev ] ->
           Alcotest.(check int) "kw" 0 ev.Detect.kw_id;
           Alcotest.(check int) "offset" 8 ev.Detect.offset
         | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs))));
    Alcotest.test_case "no match on clean traffic" `Quick (fun () ->
        let d = mk_detect [ "attack"; "malware" ] in
        let s = mk_sender () in
        Alcotest.(check int) "no events" 0
          (List.length (events d (stream s [ "just"; "normal"; "words" ]))));
    Alcotest.test_case "repeated keyword matches every time" `Quick (fun () ->
        let d = mk_detect [ "attack" ] in
        let s = mk_sender () in
        let toks = stream s [ "attack"; "x"; "attack"; "attack" ] in
        Alcotest.(check int) "three matches" 3 (List.length (events d toks)));
    Alcotest.test_case "interleaved keywords stay in sync" `Quick (fun () ->
        let d = mk_detect [ "aaa"; "bbb" ] in
        let s = mk_sender () in
        let toks = stream s [ "aaa"; "bbb"; "aaa"; "ccc"; "bbb"; "aaa" ] in
        let evs = events d toks in
        Alcotest.(check (list int)) "ids" [ 0; 1; 0; 1; 0 ]
          (List.map (fun e -> e.Detect.kw_id) evs));
    Alcotest.test_case "out-of-sync counters do not match (semantic security)" `Quick (fun () ->
        (* A second sender starting fresh re-uses low salts; a detector that
           has already advanced past them must not match. *)
        let d = mk_detect [ "attack" ] in
        let s1 = mk_sender () in
        ignore (events d (stream s1 [ "attack"; "attack" ]));
        let s2 = mk_sender () in
        let toks = stream s2 [ "attack" ] in
        Alcotest.(check int) "stale salt ignored" 0
          (List.length (events d toks)));
    Alcotest.test_case "reset resynchronises" `Quick (fun () ->
        let d = mk_detect [ "attack" ] in
        let s = mk_sender () in
        ignore (events d (stream s [ "attack"; "attack" ]));
        let new_salt0 = sender_reset s in
        Detect.reset d ~salt0:new_salt0;
        let toks = stream s [ "attack" ] in
        Alcotest.(check int) "matches again" 1 (List.length (events d toks)));
    Alcotest.test_case "probable cause recovers k_ssl only on match" `Quick (fun () ->
        let d = mk_detect ~mode:Probable [ "attack" ] in
        let s = mk_sender ~mode:Probable () in
        let k_ssl = Bbx_crypto.Sha256.digest "ssl" |> fun x -> String.sub x 0 16 in
        let toks = stream s ~k_ssl [ "benign"; "attack" ] in
        let evs = events d toks in
        (match evs with
         | [ ev ] ->
           let embed =
             match List.nth (Records.decode_tokens toks) 1 with
             | { Records.embed = Some e; _ } -> e
             | _ -> Alcotest.fail "missing embed"
           in
           Alcotest.(check string) "k_ssl recovered" k_ssl
             (Detect.recover_key d ~event:ev ~embed)
         | _ -> Alcotest.fail "expected exactly one event");
        (* the benign token's embed does not decrypt to k_ssl under any rule *)
        let benign_embed =
          match List.nth (Records.decode_tokens toks) 0 with
          | { Records.embed = Some e; _ } -> e
          | _ -> assert false
        in
        Alcotest.(check bool) "benign embed useless" true
          (Detect.recover_key d
             ~event:{ Detect.kw_id = 0; offset = 0; salt = 0 }
             ~embed:benign_embed
           <> k_ssl));
    Alcotest.test_case "recover_key rejected in exact mode" `Quick (fun () ->
        let d = mk_detect [ "attack" ] in
        Alcotest.check_raises "raises"
          (Invalid_argument "Detect.recover_key: not in probable-cause mode")
          (fun () ->
             ignore
               (Detect.recover_key d ~event:{ Detect.kw_id = 0; offset = 0; salt = 0 }
                  ~embed:(String.make 16 'x'))));
    Alcotest.test_case "tree size equals keyword count" `Quick (fun () ->
        let kws = [ "a"; "b"; "c"; "d"; "e" ] in
        Alcotest.(check int) "size" 5 (Detect.size (mk_detect kws));
        let tree = Ref_detect.create ~mode:Exact ~salt0:0 (encs kws) in
        Alcotest.(check int) "tree size" 5 (Ref_detect.size tree);
        Alcotest.(check bool) "height sane" true (Ref_detect.height tree <= 4));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random streams: events match plaintext scan" ~count:50
         QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (QCheck.oneofl [ "atk"; "mal"; "ok"; "fine" ]))
         (fun words ->
            let d = mk_detect [ "atk"; "mal" ] in
            let s = mk_sender () in
            let evs = events d (stream s words) in
            let expected =
              List.filteri (fun _ w -> w = "atk" || w = "mal") words |> List.length
            in
            List.length evs = expected));
  ]

(* The streaming path vs the reference list path (decoded records through
   the AVL detector): same events from the same wire bytes. *)
let stream_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"process_stream equals process_batch" ~count:80
         QCheck.(pair (oneofl [ Exact; Probable ])
                   (list_of_size (QCheck.Gen.int_range 0 30)
                      (QCheck.oneofl [ "atk"; "mal"; "ok"; "fine" ])))
         (fun (mode, words) ->
            let k_ssl = if mode = Probable then Some (String.make 16 'S') else None in
            let d_batch = Ref_detect.create ~mode ~salt0:0 (encs [ "atk"; "mal" ]) in
            let d_stream = mk_detect ~mode [ "atk"; "mal" ] in
            let s = mk_sender ~mode () in
            let wire = stream s ?k_ssl words in
            let batch_evs = Ref_detect.process_batch d_batch (Records.decode_tokens wire) in
            let stream_evs = ref [] in
            let n =
              Detect.process_stream d_stream wire ~f:(fun ev ~embed_pos ->
                  stream_evs := (ev, embed_pos) :: !stream_evs)
            in
            let stream_evs = List.rev !stream_evs in
            n = List.length words
            && List.length batch_evs = List.length stream_evs
            && List.for_all2
              (fun b (sv, embed_pos) ->
                 b.Detect.kw_id = sv.Detect.kw_id
                 && b.Detect.offset = sv.Detect.offset
                 && b.Detect.salt = sv.Detect.salt
                 && (mode = Exact) = (embed_pos < 0))
              batch_evs stream_evs));
    Alcotest.test_case "embed_pos locates the matching record's embed" `Quick (fun () ->
        let d = mk_detect ~mode:Probable [ "attack" ] in
        let s = mk_sender ~mode:Probable () in
        let k_ssl = String.make 16 'Z' in
        let wire = stream s ~k_ssl [ "benign"; "attack" ] in
        let hits = ref [] in
        ignore
          (Detect.process_stream d wire ~f:(fun ev ~embed_pos ->
               hits := (ev, String.sub wire embed_pos 16) :: !hits)
            : int);
        match !hits with
        | [ (ev, embed) ] ->
          Alcotest.(check string) "k_ssl via streamed embed" k_ssl
            (Detect.recover_key d ~event:ev ~embed)
        | l -> Alcotest.fail (Printf.sprintf "expected 1 hit, got %d" (List.length l)));
  ]

(* ---------- token keys on demand ----------

   A detector keeps only each keyword's 16-byte enc and computes a next
   cipher straight from it with the one-shot cipher.  These cases pin
   that every index entry is the reference cipher at the keyword's
   current salt after each kind of re-keying, including a detector
   created at carried counters, and that two detectors on two domains at
   once, borrowing one enc array, match the sequential run. *)

let kw_words = List.init 48 (fun i -> Printf.sprintf "kw%06d" i)

(* [AES_{enc}(salt) mod RS] through a boxed key expanded on its own. *)
let reference_cipher enc ~salt = Token_keys.encrypt (Token_keys.token_key_of_enc enc) ~salt

(* One explicit-offset run of records, each at the reference cipher of
   keyword [id] under [salt] (and with a fixed embed in Probable mode). *)
let records_at mode encs hits =
  Records.encode_tokens ~explicit:true
    (List.mapi
       (fun i (id, salt) ->
          { Records.cipher = reference_cipher encs.(id) ~salt;
            offset = i;
            embed = (if mode = Probable then Some (String.make 16 'e') else None) })
       hits)

(* Send keyword [id] at its next reference cipher for each id of [ids],
   in order, tracking the expected counters in [counts]; the detector
   must report exactly these hits. *)
let hit_in_order mode d encs ~salt0 counts ids =
  let stride = salt_stride mode in
  let hits =
    List.map
      (fun id ->
         let salt = salt0 + (stride * counts.(id)) in
         counts.(id) <- counts.(id) + 1;
         (id, salt))
      ids
  in
  Alcotest.(check (list (triple int int int)))
    "hits at the reference ciphers"
    (List.mapi (fun i (id, salt) -> (id, i, salt)) hits)
    (List.map
       (fun ev -> (ev.Detect.kw_id, ev.Detect.offset, ev.Detect.salt))
       (events d (records_at mode encs hits)))

(* The index holds exactly the reference cipher of every keyword: one
   entry per keyword, and each keyword found at its cipher under its
   current salt.  The probe hits every keyword once, as [counts] records. *)
let check_index what mode d encs ~salt0 counts =
  Alcotest.(check (array int)) (what ^ ": counters") counts (Detect.salt_counts d);
  Alcotest.(check int) (what ^ ": one entry per keyword") (Array.length encs) (Detect.size d);
  hit_in_order mode d encs ~salt0 counts (List.init (Array.length encs) Fun.id)

let index_after_rekeying mode () =
  let encs = encs kw_words in
  let salt0 = 0 in
  let d = Detect.create ~mode ~salt0 encs in
  let counts = Array.make (Array.length encs) 0 in
  check_index "fresh" mode d encs ~salt0 counts;
  hit_in_order mode d encs ~salt0 counts [ 7; 7; 31; 7; 0 ];
  check_index "after hits" mode d encs ~salt0 counts;
  let salt0 = 1000 in
  Detect.reset d ~salt0;
  Array.fill counts 0 (Array.length counts) 0;
  check_index "after a reset" mode d encs ~salt0 counts;
  hit_in_order mode d encs ~salt0 counts [ 3; 3; 3 ];
  let restored = Array.mapi (fun i c -> c + (i mod 5)) counts in
  let d = Detect.create ~counts:restored ~mode ~salt0 encs in
  check_index "created at carried counts" mode d encs ~salt0 restored;
  let rejects what ?(salt0 = salt0) counts =
    Alcotest.check_raises what (Invalid_argument ("Detect.create: " ^ what)) (fun () ->
        ignore (Detect.create ~counts ~mode ~salt0 encs : Detect.t))
  in
  rejects "count table size mismatch" (Array.sub restored 1 (Array.length restored - 1));
  rejects "negative count" (Array.mapi (fun i c -> if i = 3 then -1 else c) restored);
  if mode = Probable then rejects "salt0 must be even" ~salt0:(salt0 + 1) restored

(* The events of one detector run [rounds] times over [wire], each with
   the key recovered from its embed, and the final counters.  A reset
   back to salt 0 (every key expanded again) ends each round. *)
let drive d wire ~rounds =
  let log = ref [] in
  for _ = 1 to rounds do
    ignore
      (Detect.process_stream d wire ~f:(fun ev ~embed_pos ->
           log := (ev, Detect.recover_key d ~event:ev ~embed:(String.sub wire embed_pos 16))
                   :: !log)
        : int);
    Detect.reset d ~salt0:0
  done;
  (List.rev !log, Detect.salt_counts d)

let two_domains_match_sequential () =
  let encs = encs kw_words in
  let k_ssl = String.make 16 'K' in
  let sender = mk_sender ~mode:Probable () in
  (* each keyword of the first 16 several times, among benign words *)
  let words =
    List.concat (List.init 6 (fun r -> List.filteri (fun i _ -> i < 16 && i mod 6 <> r) kw_words))
    @ [ "benign"; "words"; "between" ]
  in
  let wire = stream sender ~k_ssl words in
  let rounds = 30 in
  let fresh () = Detect.create ~mode:Probable ~salt0:0 encs in
  let ((evs, _) as sequential) = drive (fresh ()) wire ~rounds in
  Alcotest.(check int) "80 hits a round" (80 * rounds) (List.length evs);
  Alcotest.(check bool) "every match recovers k_ssl" true
    (List.for_all (fun (_, k) -> String.equal k k_ssl) evs);
  let ready = Atomic.make 0 in
  let racer () =
    let d = fresh () in
    Atomic.incr ready;
    while Atomic.get ready < 2 do Domain.cpu_relax () done;
    drive d wire ~rounds
  in
  let a = Domain.spawn racer and b = Domain.spawn racer in
  let ra = Domain.join a and rb = Domain.join b in
  List.iter
    (fun (name, r) ->
       Alcotest.(check bool) (name ^ ": the sequential events, keys and counters") true
         (r = sequential))
    [ ("domain a", ra); ("domain b", rb) ]

let on_demand_tests =
  [ Alcotest.test_case "exact index at reference ciphers" `Quick
      (index_after_rekeying Exact);
    Alcotest.test_case "probable index at reference ciphers" `Quick
      (index_after_rekeying Probable);
    Alcotest.test_case "two domains equal the sequential run" `Quick
      two_domains_match_sequential ]

let () =
  Alcotest.run "detect"
    [ ("avl", avl_props); ("engine", detect_tests); ("streaming", stream_tests);
      ("on-demand", on_demand_tests) ]
