(* Dirty-rule evaluation against the full-scan oracle ([Verdict_oracle]).

   [Engine.verdicts] evaluates only the rules whose evidence changed; the
   oracle re-solves every undecided rule on every call.  Random traces of
   deliveries, salt resets, rule updates (adds and removes) and
   snapshot/restore run through both, in Exact and Probable mode at
   tiers 1-3, and every call must return the same fresh decisions and
   leave the same cumulative set.  The history case pins the point of
   the design: a stream that keeps repeating one content of a
   multi-content rule costs the same per delivery at 1k and at 48k
   hits. *)

open Bbx_dpienc.Dpienc
open Bbx_mbox
open Bbx_rules
module Obs = Bbx_obs.Obs
module Record = Bbx_tls.Record

let key = key_of_secret "verdicts-k"
let enc_chunk = token_enc key
let k_ssl = String.make 16 'K'
let direction = "client->server"

(* ---------- random traces ---------- *)

let keywords =
  [| "alphakey"; "betakeyx"; "gammakey9"; "deltakeyword"; "epsilonk"; "zetakey1" |]

let fillers = [| " "; "="; "/"; "7"; "xx"; "GET /"; "&q="; ""; ".." |]

let pcres =
  [| "/alphakey[0-9]/"; "/betakeyx.{0,8}gammakey9/"; "/zetakey1/i"; "/deltakeyword|epsilonk/" |]

type op =
  | Send of string
  | Reset
  | Update of int list * Rule.t list
  | Migrate
  | Check

type case = {
  mode : mode;
  tier : Classify.protocol_class;
  max_plain_bytes : int;
  tokenization : tokenization;
  rules : Rule.t list;
  ops : op list;
}

let gen_rule sid =
  let open QCheck.Gen in
  let opt g = frequency [ (2, return None); (1, map Option.some g) ] in
  let gen_content =
    map
      (fun (kw, offset, depth, distance, within) ->
         Rule.make_content ?offset ?depth ?distance ?within keywords.(kw))
      (tup5 (int_bound 5) (opt (int_bound 24)) (opt (int_range 8 60))
         (opt (int_bound 12)) (opt (int_range 8 48)))
  in
  let plain_content = map (fun kw -> Rule.make_content keywords.(kw)) (int_bound 5) in
  frequency
    [ (2, map (fun c -> Rule.make ~sid [ c ]) plain_content);
      (3, map (fun cs -> Rule.make ~sid cs) (list_size (int_range 1 3) gen_content));
      ( 2,
        map2
          (fun cs p -> Rule.make ~sid ~pcre:pcres.(p) cs)
          (list_size (int_range 0 2) gen_content)
          (int_bound (Array.length pcres - 1)) ) ]

let gen_payload =
  let open QCheck.Gen in
  let piece =
    frequency
      [ (3, map (fun i -> keywords.(i)) (int_bound 5));
        (4, map (fun i -> fillers.(i)) (int_bound (Array.length fillers - 1))) ]
  in
  map (String.concat "") (list_size (int_range 1 10) piece)

let gen_case =
  let open QCheck.Gen in
  let* mode = frequencyl [ (1, Exact); (2, Probable) ] in
  let* tier = oneofl Classify.[ Protocol_I; Protocol_II; Protocol_III ] in
  let* max_plain_bytes = oneofl [ 0; 40; 80; 240 ] in
  let* tokenization = oneofl [ Window; Delimiter { short_units = false } ] in
  let* n = int_range 1 6 in
  let* rules = flatten_l (List.init n (fun i -> gen_rule (i + 1))) in
  let next_sid = ref 100 in
  let gen_update =
    let* remove = list_size (int_bound 2) (int_range 1 (n + 2)) in
    let* k = int_bound 2 in
    let sids = List.init k (fun _ -> incr next_sid; !next_sid) in
    let* add = flatten_l (List.map gen_rule sids) in
    return (Update (remove, add))
  in
  let* ops =
    list_size (int_range 1 14)
      (frequency
         [ (6, map (fun p -> Send p) gen_payload);
           (4, return Check);
           (1, return Reset);
           (1, gen_update);
           (1, return Migrate) ])
  in
  return { mode; tier; max_plain_bytes; tokenization; rules; ops = ops @ [ Check ] }

let print_case c =
  let op = function
    | Send p -> Printf.sprintf "send %S" p
    | Reset -> "reset"
    | Update (rm, add) ->
      Printf.sprintf "update -[%s] +[%s]"
        (String.concat "," (List.map string_of_int rm))
        (String.concat "; " (List.map Rule.to_string add))
    | Migrate -> "migrate"
    | Check -> "check"
  in
  Printf.sprintf "%s tier %d budget %d %s\nrules:\n  %s\nops:\n  %s"
    (match c.mode with Exact -> "exact" | Probable -> "probable")
    (Classify.rank c.tier) c.max_plain_bytes
    (match c.tokenization with Window -> "window" | Delimiter _ -> "delimiter")
    (String.concat "\n  " (List.map Rule.to_string c.rules))
    (String.concat "\n  " (List.map op c.ops))

let pairs vs = List.map (fun v -> (v.Engine.rule_idx, v.Engine.detail)) vs

(* Replay one case through the engine and the oracle; [Check] compares
   both evaluators' fresh decisions and cumulative sets. *)
let agrees c =
  let config =
    { Engine.mode = c.mode; tier = c.tier;
      budget = { Engine.max_plain_bytes = c.max_plain_bytes; max_scan_ms = 0 } }
  in
  let keys rules = Engine.keys (Engine.ruleset rules) ~enc_chunk in
  let e = ref (Engine.make config (keys c.rules) ~direction ~salt0:0) in
  let oracle = Verdict_oracle.create config c.rules in
  let sender = sender_create c.mode key ~salt0:0 in
  let writer = Record.create ~key:k_ssl ~direction () in
  let k_ssl = if c.mode = Probable then Some k_ssl else None in
  let base = ref 0 in
  let reset () = Engine.reset !e ~salt0:(sender_reset sender) in
  List.for_all
    (fun op ->
       match op with
       | Send p ->
         Engine.record_stream !e (Record.seal writer ("T" ^ p));
         let buf = Buffer.create 256 in
         ignore
           (sender_encrypt_into sender ?k_ssl ~base:!base ~tokenization:c.tokenization p buf
            : int);
         base := !base + String.length p;
         ignore (Engine.process_wire !e (Buffer.contents buf) : int);
         true
       | Reset -> reset (); true
       | Update (remove_sids, add) ->
         let next =
           Engine.next_rules (Engine.rules_of (Engine.ruleset_of (Engine.keys_of !e)))
             ~remove_sids ~add
         in
         Engine.update !e (keys next);
         Verdict_oracle.update oracle ~remove_sids ~add;
         reset ();
         true
       | Migrate -> e := Engine.restore (Engine.snapshot !e); true
       | Check ->
         let got = pairs (Engine.verdicts !e) in
         let want = Verdict_oracle.verdicts oracle !e in
         got = want && pairs (Engine.decided !e) = Verdict_oracle.decided oracle)
    c.ops

let differential_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dirty evaluation equals the full-scan oracle" ~count:1000
         (QCheck.make ~print:print_case gen_case)
         agrees) ]

(* ---------- fixed cases ---------- *)

let obs_evaluated = Obs.counter "bbx_engine_rules_evaluated_total"
let obs_visited = Obs.counter "bbx_engine_candidates_visited_total"

(* [verdicts] and the work it did: (fresh decisions, rules evaluated,
   candidates visited) *)
let counted e =
  let r0 = Obs.counter_value obs_evaluated and c0 = Obs.counter_value obs_visited in
  let vs = Engine.verdicts e in
  (vs, Obs.counter_value obs_evaluated - r0, Obs.counter_value obs_visited - c0)

let window_wire ?k_ssl sender ~base payload =
  let buf = Buffer.create (30 * String.length payload) in
  ignore (sender_encrypt_into sender ?k_ssl ~base ~tokenization:Window payload buf : int);
  Buffer.contents buf

let probable = { Engine.default_config with mode = Probable }

let probable_engine ?(config = probable) rules =
  Engine.make config (Engine.keys (Engine.ruleset rules) ~enc_chunk) ~direction ~salt0:0

let fixed_tests =
  [ Alcotest.test_case "key recovery after exhaustion flags pure-pcre rules" `Quick
      (fun () ->
        (* the records blow the byte budget before any keyword hits, so the
           stream never decrypts; recovering k_ssl later still opens the
           gate of a rule that has no contents *)
        let rules =
          [ Rule.make ~sid:1 ~pcre:"/zetakey1/" [];
            Rule.make ~sid:2 [ Rule.make_content "alphakey" ] ]
        in
        let config =
          { probable with budget = { Engine.max_plain_bytes = 16; max_scan_ms = 0 } }
        in
        let e = probable_engine ~config rules in
        let sender = sender_create Probable key ~salt0:0 in
        let writer = Record.create ~key:k_ssl ~direction () in
        let send base p =
          Engine.record_stream e (Record.seal writer ("T" ^ p));
          ignore (Engine.process_wire e (window_wire ~k_ssl sender ~base p) : int);
          pairs (Engine.verdicts e)
        in
        let benign = "nothing to see here, move along" in
        Alcotest.(check (list (pair int string))) "exhausted, no key yet" []
          (List.map (fun (i, d) -> (i, Engine.detail_name d)) (send 0 benign));
        Alcotest.(check bool) "exhausted" true (Engine.escalation e = `Exhausted);
        Alcotest.(check (list (pair int string))) "the hit recovers k_ssl"
          [ (0, "budget-exceeded"); (1, "exact-hit") ]
          (List.map (fun (i, d) -> (i, Engine.detail_name d))
             (send (String.length benign) "q=alphakey")));
    Alcotest.test_case "an added decrypt rule matches the recovered stream" `Quick
      (fun () ->
        let rules = [ Rule.make ~sid:1 [ Rule.make_content "alphakey" ] ] in
        let added =
          Rule.make ~sid:2 ~pcre:"/alphakey[0-9]/" [ Rule.make_content "alphakey" ]
        in
        let e = probable_engine rules in
        let sender = sender_create Probable key ~salt0:0 in
        let writer = Record.create ~key:k_ssl ~direction () in
        let p = "q=alphakey7" in
        Engine.record_stream e (Record.seal writer ("T" ^ p));
        ignore (Engine.process_wire e (window_wire ~k_ssl sender ~base:0 p) : int);
        Alcotest.(check int) "exact rule" 1 (List.length (Engine.verdicts e));
        Engine.update e
          (Engine.keys (Engine.ruleset (rules @ [ added ])) ~enc_chunk);
        (* no further record: the prefilter re-sweeps what was recovered *)
        Alcotest.(check (list (pair int string))) "decided on the next call"
          [ (1, "regex-match") ]
          (List.map (fun (i, d) -> (i, Engine.detail_name d)) (pairs (Engine.verdicts e))));
    Alcotest.test_case "a delivery without hits evaluates nothing" `Quick (fun () ->
        Obs.set_enabled true;
        let rules = Datasets.generate Datasets.Emerging_threats ~n:300 in
        let e = Engine.create ~mode:Exact ~salt0:0 ~rules ~enc_chunk () in
        let sender = sender_create Exact key ~salt0:0 in
        let payload = String.concat " " (List.init 60 (fun i -> Printf.sprintf "word%03d" i)) in
        ignore (Engine.process_wire e (window_wire sender ~base:0 payload) : int);
        let vs, evaluated, visited = counted e in
        Alcotest.(check int) "no hits" 0 (Engine.hit_count e);
        Alcotest.(check int) "no verdicts" 0 (List.length vs);
        Alcotest.(check int) "rules evaluated" 0 evaluated;
        Alcotest.(check int) "candidates visited" 0 visited);
    Alcotest.test_case "repeating one content: flat cost at 1k and 48k hits" `Quick
      (fun () ->
        Obs.set_enabled true;
        let rules = Datasets.generate Datasets.Emerging_threats ~n:300 in
        let first r = (List.hd r.Rule.contents).Rule.pattern in
        let stream_of kw =
          String.concat " " (List.init (840 / (String.length kw + 1)) (fun _ -> kw))
        in
        (* a 3-content rule none of whose other contents' chunks occur in
           a stream of its first content *)
        let rule =
          List.find
            (fun r ->
               List.length r.Rule.contents = 3
               &&
               let stream = stream_of (first r) in
               List.for_all
                 (fun (c : Rule.content) ->
                    List.for_all
                      (fun (chunk, _) ->
                         Classify.keyword_match_positions ~nocase:false chunk stream = [])
                      (Bbx_tokenizer.Tokenizer.keyword_chunks c.Rule.pattern))
                 (List.tl r.Rule.contents))
            rules
        in
        let payload = stream_of (first rule) ^ " " in
        let e = Engine.create ~mode:Exact ~salt0:0 ~rules ~enc_chunk () in
        let sender = sender_create Exact key ~salt0:0 in
        let base = ref 0 in
        let at_hits target =
          let rec go () =
            ignore (Engine.process_wire e (window_wire sender ~base:!base payload) : int);
            base := !base + String.length payload;
            let vs, evaluated, visited = counted e in
            Alcotest.(check int) "never fires" 0 (List.length vs);
            if Engine.hit_count e >= target then (evaluated, visited) else go ()
          in
          go ()
        in
        let ev1, vis1 = at_hits 1_000 in
        let ev48, vis48 = at_hits 48_000 in
        Alcotest.(check bool) "the rule is evaluated" true (ev1 >= 1);
        Alcotest.(check int) "rules evaluated per delivery" ev1 ev48;
        Alcotest.(check int) "candidates visited per delivery" vis1 vis48) ]

let () =
  Alcotest.run "verdicts" [ ("oracle", differential_tests); ("fixed", fixed_tests) ]
