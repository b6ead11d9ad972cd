(* Differential tests for the flat open-addressing cipher index.

   Three layers of the same claim — [Detect]'s flat index is
   observationally identical to the paper's AVL tree:

   - [Cindex] against a stdlib [Hashtbl] under random insert/remove/clear
     sequences drawn from a tiny key space (forced probe chains and
     backward-shift deletions), with [check_invariants] after every op;
   - [Detect] against the AVL reference detector [Bbx_oracle.Ref_detect]:
     same encrypted keyword set (duplicate ciphers included), same token
     streams, both modes, interleaved [reset] and moves of the counters
     into a fresh detector ([create ~counts]) — event-for-event equal, and
     [recover_key] byte-equal in probable-cause mode;
   - a random multi-connection trace through [Shardpool] at 1/2/4
     domains against a replay of the same wires through one AVL detector
     per connection, lifted to Protocol I verdicts: same per-delivery
     verdicts, aggregate stats and flow stats. *)

open Bbx_detect
open Bbx_dpienc.Dpienc
open Bbx_oracle

(* ---------- Cindex vs Hashtbl ---------- *)

type cop = Insert of int * int | Remove of int | Clear

let arb_cops =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 400)
        (frequency
           [ (6, map2 (fun k v -> Insert (k, v)) (int_bound 60) (int_bound 1000));
             (3, map (fun k -> Remove k) (int_bound 60));
             (1, return Clear) ]))
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Insert (k, v) -> Printf.sprintf "i%d=%d" k v
           | Remove k -> Printf.sprintf "r%d" k
           | Clear -> "c")
         ops)
  in
  QCheck.make ~print gen

let cindex_agrees ops =
  let c = Cindex.create ~capacity:4 () in
  let h = Hashtbl.create 16 in
  List.for_all
    (fun op ->
       (match op with
        | Insert (k, v) ->
          Cindex.insert c k v;
          Hashtbl.replace h k v
        | Remove k ->
          Cindex.remove c k;
          Hashtbl.remove h k
        | Clear ->
          Cindex.clear c;
          Hashtbl.reset h);
       Cindex.check_invariants c
       && Cindex.size c = Hashtbl.length h
       && Hashtbl.fold (fun k v ok -> ok && Cindex.find c k = v) h true
       (* a key outside the op range is never present *)
       && Cindex.find c 1_000_003 = -1)
    ops

let cindex_tests =
  let prop name ?(count = 200) arb f =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)
  in
  [ prop "matches Hashtbl under random ops (forced collisions)" arb_cops
      cindex_agrees;
    prop "find_probe agrees with find and counts >= 1 step"
      QCheck.(list_of_size (QCheck.Gen.int_range 1 80) (int_bound 40))
      (fun keys ->
        let c = Cindex.create () in
        List.iteri (fun i k -> Cindex.insert c k i) keys;
        List.for_all
          (fun k ->
            let steps = ref 0 in
            Cindex.find_probe c k ~steps = Cindex.find c k && !steps >= 1)
          (List.init 60 Fun.id));
    Alcotest.test_case "grows past any initial capacity" `Quick (fun () ->
        let c = Cindex.create ~capacity:1 () in
        for i = 0 to 999 do
          Cindex.insert c (i * 7919) i
        done;
        Alcotest.(check int) "size" 1000 (Cindex.size c);
        Alcotest.(check bool) "invariants" true (Cindex.check_invariants c);
        for i = 0 to 999 do
          Alcotest.(check int) "find" i (Cindex.find c (i * 7919))
        done);
    Alcotest.test_case "insert replaces, remove is idempotent" `Quick (fun () ->
        let c = Cindex.create () in
        Cindex.insert c 5 1;
        Cindex.insert c 5 2;
        Alcotest.(check int) "last id wins" 2 (Cindex.find c 5);
        Alcotest.(check int) "one entry" 1 (Cindex.size c);
        Cindex.remove c 5;
        Cindex.remove c 5;
        Alcotest.(check int) "gone" (-1) (Cindex.find c 5);
        Alcotest.(check int) "empty" 0 (Cindex.size c));
  ]

(* ---------- Detect vs the AVL detector ---------- *)

let key = key_of_secret "index-diff-k"
let t8 = Bbx_tokenizer.Tokenizer.pad_short

let word_pool =
  [| "atk"; "mal"; "worm"; "ok"; "fine"; "noise"; "benign"; "xyz" |]

(* keyword sets may repeat a word: both detectors must keep only the last
   id for a duplicated cipher *)
let arb_scenario =
  let gen =
    QCheck.Gen.(
      let* mode = oneofl [ Exact; Probable ] in
      let* kws = list_size (int_range 1 6) (int_bound 4) in
      let* ops =
        list_size (int_range 1 12)
          (frequency
             [ (6,
                map
                  (fun ws -> `Stream ws)
                  (list_size (int_range 0 12)
                     (int_bound (Array.length word_pool - 1))));
               (2, return `Restore);
               (1, map (fun n -> `Reset (2 * n)) (int_bound 50)) ])
      in
      return (mode, kws, ops))
  in
  let print (mode, kws, ops) =
    Printf.sprintf "%s kws=[%s] ops=[%s]"
      (match mode with Exact -> "exact" | Probable -> "probable")
      (String.concat "," (List.map string_of_int kws))
      (String.concat ";"
         (List.map
            (function
              | `Stream ws ->
                "s:" ^ String.concat "," (List.map string_of_int ws)
              | `Restore -> "m"
              | `Reset n -> Printf.sprintf "r%d" n)
            ops))
  in
  QCheck.make ~print gen

let k_ssl = String.init 16 (fun i -> Char.chr (0x40 + i))

(* What the differential needs of a detector; [Detect] and the AVL
   reference both provide it. *)
module type DETECTOR = sig
  type t
  val create : ?counts:int array -> mode:mode -> salt0:int -> string array -> t
  val process_stream : t -> string -> f:(Detect.event -> embed_pos:int -> unit) -> int
  val recover_key : t -> event:Detect.event -> embed:string -> string
  val reset : t -> salt0:int -> unit
  val salt_counts : t -> int array
  val size : t -> int
end

module Flat = Detect

(* Replay one scenario; returns the observed events (full records), every
   recovered key, in order, and the final index size.  [`Restore] moves
   the detector's counters into a fresh one, as connection migration
   does. *)
let replay (module D : DETECTOR) mode encs ops =
  let det = ref (D.create ~mode ~salt0:0 encs) and salt0 = ref 0 in
  let sender = ref (sender_create mode key ~salt0:0) in
  let events = ref [] and keys = ref [] in
  List.iter
    (function
      | `Stream ws ->
        let wire =
          String.concat ""
            (List.mapi
               (fun i w ->
                  Records.wire !sender
                    ?k_ssl:(if mode = Probable then Some k_ssl else None)
                    ~base:(8 * i) (t8 word_pool.(w)))
               ws)
        in
        ignore
          (D.process_stream !det wire ~f:(fun ev ~embed_pos ->
               events := ev :: !events;
               if embed_pos >= 0 then
                 keys :=
                   D.recover_key !det ~event:ev
                     ~embed:(String.sub wire embed_pos 16)
                   :: !keys)
            : int)
      | `Restore ->
        det := D.create ~counts:(D.salt_counts !det) ~mode ~salt0:!salt0 encs
      | `Reset s0 ->
        D.reset !det ~salt0:s0;
        salt0 := s0;
        sender := sender_create mode key ~salt0:s0)
    ops;
  (List.rev !events, List.rev !keys, D.size !det)

let detect_diff_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"Hash and Avl emit identical events and recovered keys"
         ~count:300 arb_scenario
         (fun (mode, kws, ops) ->
           let encs =
             Array.of_list
               (List.map (fun w -> token_enc key (t8 word_pool.(w))) kws)
           in
           let ((_, keys_h, _) as flat) = replay (module Flat) mode encs ops in
           flat = replay (module Ref_detect) mode encs ops
           && List.for_all (String.equal k_ssl) keys_h));
    Alcotest.test_case "duplicate cipher: last id wins on both backends" `Quick
      (fun () ->
        let enc = token_enc key (t8 "twice") in
        let check (module D : DETECTOR) =
          let d = D.create ~mode:Exact ~salt0:0 [| enc; enc |] in
          Alcotest.(check int) "one entry" 1 (D.size d);
          let s = sender_create Exact key ~salt0:0 in
          let evs = ref [] in
          ignore
            (D.process_stream d (Records.wire s (t8 "twice")) ~f:(fun ev ~embed_pos:_ ->
                 evs := ev :: !evs)
             : int);
          match !evs with
          | [ ev ] -> Alcotest.(check int) "last id" 1 ev.Detect.kw_id
          | evs ->
            Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs))
        in
        check (module Flat);
        check (module Ref_detect));
  ]

(* ---------- Shardpool vs an AVL detector replay ---------- *)

open Bbx_mbox

(* Single-content rules whose keyword is exactly one token-sized chunk:
   Protocol I, so a rule fires as soon as its chunk matches. *)
let rules =
  [ Bbx_rules.Rule.make ~sid:1 [ Bbx_rules.Rule.make_content "alertkw1" ];
    Bbx_rules.Rule.make ~sid:2 [ Bbx_rules.Rule.make_content "otherkw2" ];
    Bbx_rules.Rule.make ~action:Bbx_rules.Rule.Drop ~sid:3
      [ Bbx_rules.Rule.make_content "dropkw33" ] ]

let ruleset = Engine.ruleset rules

let key_for conn = key_of_secret (Printf.sprintf "idx-conn-%d" conn)

let map_in_order f l = List.rev (List.fold_left (fun acc x -> f x :: acc) [] l)

let payload_pool =
  [| "GET /index.html HTTP/1.1";
     "x=alertkw1&noise=1";
     "benign hello world";
     "y=otherkw2 z=alertkw1";
     "q=dropkw33";
     "tail traffic after things" |]

let wires_for conn payloads =
  let s = sender_create Exact (key_for conn) ~salt0:0 in
  map_in_order
    (fun p -> Records.wire s ~tokenization:(Delimiter { short_units = false }) p)
    payloads

let wires_of_trace trace =
  let per_conn = Hashtbl.create 8 in
  List.iter
    (fun (conn, p) ->
       let l = Option.value (Hashtbl.find_opt per_conn conn) ~default:[] in
       Hashtbl.replace per_conn conn (payload_pool.(p) :: l))
    trace;
  let streams = Hashtbl.create 8 in
  Hashtbl.iter
    (fun conn payloads ->
       Hashtbl.replace streams conn (ref (wires_for conn (List.rev payloads))))
    per_conn;
  map_in_order
    (fun (conn, _) ->
       let s = Hashtbl.find streams conn in
       match !s with
       | w :: rest ->
         s := rest;
         (conn, w)
       | [] -> assert false)
    trace

let conns_of_trace trace = List.sort_uniq compare (List.map fst trace)

let obs_of_verdicts vs =
  List.map (fun v -> (v.Engine.rule_idx, Engine.via v.Engine.detail)) vs

(* Rule index -> the id of its one chunk in the detector's keyword array. *)
let rule_chunk =
  let chunks = Engine.chunks ruleset in
  Array.of_list
    (List.map
       (fun r ->
          match Engine.distinct_chunks [ r ] with
          | [| c |] ->
            let rec find i = if chunks.(i) = c then i else find (i + 1) in
            find 0
          | _ -> invalid_arg "rule_chunk: rule is not one chunk")
       rules)

type ref_conn = {
  det : Ref_detect.t;
  matched : bool array;          (* chunk id -> matched since registration *)
  reported : bool array;         (* rule idx -> verdict already reported *)
  mutable blocked : bool;
  mutable tokens : int;
  mutable hits : int;
  mutable verdicts : int;
}

(* The reference middlebox: each connection's wires go through an AVL
   detector; a Protocol I rule fires once its chunk has matched,
   each verdict is reported once, a drop verdict blocks the connection and
   its later deliveries are dropped unseen. *)
let run_avl_replay trace =
  let conns = Hashtbl.create 8 in
  List.iter
    (fun conn ->
       let encs = Array.map (token_enc (key_for conn)) (Engine.chunks ruleset) in
       Hashtbl.replace conns conn
         { det = Ref_detect.create ~mode:Exact ~salt0:0 encs;
           matched = Array.make (Array.length encs) false;
           reported = Array.make (List.length rules) false;
           blocked = false; tokens = 0; hits = 0; verdicts = 0 })
    (conns_of_trace trace);
  let results =
    map_in_order
      (fun (conn, wire) ->
         let c = Hashtbl.find conns conn in
         if c.blocked then None
         else begin
           let n =
             Ref_detect.process_stream c.det wire ~f:(fun ev ~embed_pos:_ ->
                 c.hits <- c.hits + 1;
                 c.matched.(ev.Detect.kw_id) <- true)
           in
           c.tokens <- c.tokens + n;
           let fresh =
             List.filter
               (fun (i, _) -> c.matched.(rule_chunk.(i)) && not c.reported.(i))
               (List.mapi (fun i r -> (i, r)) rules)
           in
           List.iter (fun (i, _) -> c.reported.(i) <- true) fresh;
           c.verdicts <- c.verdicts + List.length fresh;
           if List.exists (fun (_, r) -> r.Bbx_rules.Rule.action = Bbx_rules.Rule.Drop) fresh
           then c.blocked <- true;
           Some (List.map (fun (i, _) -> (i, `Exact_match)) fresh)
         end)
      (wires_of_trace trace)
  in
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 all in
  let stats =
    { Shard.connections = List.length all;
      total_tokens = sum (fun c -> c.tokens);
      total_keyword_hits = sum (fun c -> c.hits);
      alerts = sum (fun c -> c.verdicts);
      blocked = sum (fun c -> if c.blocked then 1 else 0) }
  in
  let flows =
    List.map
      (fun conn ->
         let c = Hashtbl.find conns conn in
         ( conn,
           { Shard.flow_tokens = c.tokens; flow_hits = c.hits;
             flow_verdicts = c.verdicts; flow_blocked = c.blocked },
           c.blocked ))
      (conns_of_trace trace)
  in
  (results, stats, flows)

let run_pool ~domains trace =
  Shardpool.with_pool ~domains Engine.default_config @@ fun pool ->
  List.iter
    (fun conn ->
       Shardpool.register pool ~conn_id:conn ~salt0:0 ~direction:"client->server"
         (fun () -> Engine.keys ruleset ~enc_chunk:(token_enc (key_for conn))))
    (conns_of_trace trace);
  let seqs =
    map_in_order (fun (conn, wire) -> Shardpool.submit pool ~conn_id:conn wire)
      (wires_of_trace trace)
  in
  let by_seq = Hashtbl.create 64 in
  Shardpool.drain pool ~f:(fun ~seq ~conn_id:_ vs ->
      Hashtbl.replace by_seq seq (obs_of_verdicts vs));
  let results = List.map (Hashtbl.find_opt by_seq) seqs in
  let flows =
    List.map
      (fun conn ->
         (conn, Shardpool.flow_stats pool ~conn_id:conn, Shardpool.is_blocked pool ~conn_id:conn))
      (conns_of_trace trace)
  in
  (results, Shardpool.stats pool, flows)

let arb_trace =
  let print trace =
    String.concat ";" (List.map (fun (c, p) -> Printf.sprintf "%d:%d" c p) trace)
  in
  QCheck.make ~print
    QCheck.Gen.(
      let* n_conns = int_range 1 5 in
      let* len = int_range 1 25 in
      list_size (return len)
        (let* c = int_range 0 (n_conns - 1) in
         let* p = int_range 0 (Array.length payload_pool - 1) in
         return (3 + (c * 5), p)))

let pool_diff_tests =
  let prop domains =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:(Printf.sprintf "pool@%d agrees with an Avl Detect replay" domains)
         ~count:8 arb_trace
         (fun trace -> run_avl_replay trace = run_pool ~domains trace))
  in
  [ prop 1; prop 2; prop 4 ]

let () =
  Alcotest.run "detect_index"
    [ ("cindex", cindex_tests);
      ("detect-differential", detect_diff_tests);
      ("shardpool-differential", pool_diff_tests) ]
