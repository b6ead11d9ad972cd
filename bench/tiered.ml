(* Tiered-inspection accuracy gate: drive a real-shape ruleset (mixed
   Protocol I/II/III with nocase and pcre) through full in-process
   BlindBox connections at every --tier setting and compare the engine's
   verdicts against the plaintext [Classify.matches_plaintext] oracle.

   Each planted connection carries a payload constructed to satisfy one
   rule exactly: contents laid down token-aligned (delimiter-separated)
   at positions honouring their offset/depth/distance/within modifiers,
   plus the rule's pcre witness for Protocol III rules.  The gate demands
   exact parity at every tier — engine verdict set == oracle set
   restricted to rules the tier supports — with one carve-out: verdicts
   whose detail is budget-exceeded are counted separately (flagged, not
   matched), never as mismatches.  A dedicated tiny-budget scenario
   checks that exhaustion produces exactly that flag.

   Results land in BENCH_tiered.json. *)

open Bbx_rules
module Engine = Bbx_mbox.Engine
module Session = Blindbox.Session
module Drbg = Bbx_crypto.Drbg

(* ---- constraint-satisfying planting ---- *)

(* [g] filler bytes between the previous keyword's end and the next
   keyword's start.  The first and last filler byte are delimiters so
   both keywords stay token-aligned under delimiter tokenization. *)
let add_gap buf g =
  if g <= 0 then invalid_arg "add_gap";
  if g = 1 then Buffer.add_char buf ' '
  else begin
    Buffer.add_char buf ' ';
    Buffer.add_string buf (String.make (g - 2) 'z');
    Buffer.add_char buf ' '
  end

(* Append [r]'s contents in order, each at a position satisfying its
   modifiers (see Classify.contents_satisfiable: offset/depth absolute,
   distance/within relative to the previous match's end), then the pcre
   witness when the rule carries one.  Chosen positions:
     first content   s = offset (or 0)
     later contents  s = prev_end + max(1, distance)
   which always fits: depth >= len+2 and within >= len+5 in the
   real-shape generator, and a gap of max(1,distance) never overshoots
   distance + (within - len). *)
let plant_rule r =
  let buf = Buffer.create 256 in
  let first = ref true in
  List.iter
    (fun (c : Rule.content) ->
       let cur = Buffer.length buf in
       if !first then begin
         first := false;
         let s = Option.value c.Rule.offset ~default:0 in
         if s > 0 then add_gap buf s
       end
       else add_gap buf (max 1 (Option.value c.Rule.distance ~default:0));
       ignore cur;
       Buffer.add_string buf c.Rule.pattern)
    r.Rule.contents;
  (match r.Rule.pcre with
   | None -> ()
   | Some p ->
     let w =
       match Datasets.pcre_witness p with
       | Some w -> w
       | None -> failwith ("no witness for pcre " ^ p)
     in
     Buffer.add_char buf ' ';
     Buffer.add_string buf w);
  Buffer.add_string buf " trailingfiller";
  Buffer.contents buf

let benign_payload drbg i =
  let word () =
    String.init (4 + Drbg.uniform drbg 6)
      (fun _ -> Char.chr (Char.code 'a' + Drbg.uniform drbg 26))
  in
  let words = List.init (20 + (i mod 7)) (fun _ -> word ()) in
  String.concat " " words

(* ---- one connection through the session pipeline ---- *)

let run_conn ~config ~rules payload =
  let session, _ = Session.establish ~config ~rules () in
  (try ignore (Session.send session payload : Session.delivery)
   with Session.Connection_blocked -> ());
  (Session.mb_verdicts session, Session.mb_escalation session)

let sid v = Option.value v.Engine.rule.Rule.sid ~default:0

let detail_of_class = function
  | Classify.Protocol_I -> `Exact_hit
  | Classify.Protocol_II -> `Composite_match
  | Classify.Protocol_III -> `Regex_match

let run () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  Bench_util.section
    (if smoke then "Tiered inspection vs plaintext oracle (smoke)"
     else "Tiered inspection vs plaintext oracle");
  let n = if smoke then 24 else 60 in
  let n_benign = if smoke then 4 else 10 in
  let rules = Datasets.real_shape ~n () in
  let tiers = Classify.partition rules in
  Printf.printf "  ruleset: %d rules (%d exact / %d composite / %d decrypt)\n"
    n (List.length tiers.Classify.exact)
    (List.length tiers.Classify.composite)
    (List.length tiers.Classify.decrypt);
  let drbg = Drbg.create "tiered-bench" in
  let planted = List.map (fun r -> (r, plant_rule r)) rules in
  let benign = List.init n_benign (benign_payload drbg) in
  let mismatches = ref 0 in
  let detail_wrong = ref 0 in
  let verdict_count = Hashtbl.create 8 in
  let bump d = Hashtbl.replace verdict_count d (1 + Option.value (Hashtbl.find_opt verdict_count d) ~default:0) in
  let tier_results = ref [] in
  List.iter
    (fun tier ->
       let config =
         { Session.default_config with
           Session.inspect =
             { Engine.default_config with mode = Bbx_dpienc.Dpienc.Probable; tier };
           rule_prep = Session.Direct }
       in
       let conns = ref 0 and hits = ref 0 and tier_mismatch = ref 0 in
       let check payload planted_rule =
         incr conns;
         let verdicts, _ = run_conn ~config ~rules payload in
         let flagged, matched =
           List.partition (fun v -> v.Engine.detail = `Budget_exceeded) verdicts
         in
         assert (flagged = []);   (* default budget: nothing exhausts *)
         List.iter (fun v -> bump v.Engine.detail) matched;
         let engine_sids =
           List.sort_uniq compare (List.map sid matched)
         in
         let oracle_sids =
           List.sort_uniq compare
             (List.filter_map
                (fun r ->
                   if Classify.supported_by tier r
                      && Classify.matches_plaintext r payload
                   then r.Rule.sid
                   else None)
                rules)
         in
         if engine_sids <> oracle_sids then begin
           incr tier_mismatch;
           Printf.printf
             "  MISMATCH tier %d: engine=[%s] oracle=[%s]\n"
             (Classify.rank tier)
             (String.concat ";" (List.map string_of_int engine_sids))
             (String.concat ";" (List.map string_of_int oracle_sids))
         end;
         (match planted_rule with
          | Some r when Classify.supported_by tier r ->
            incr hits;
            let expect = detail_of_class (Classify.classify r) in
            let got =
              List.find_opt (fun v -> Some (sid v) = r.Rule.sid) matched
            in
            (match got with
             | Some v when v.Engine.detail = expect -> ()
             | _ -> incr detail_wrong)
          | _ -> ())
       in
       List.iter (fun (r, payload) -> check payload (Some r)) planted;
       List.iter (fun payload -> check payload None) benign;
       mismatches := !mismatches + !tier_mismatch;
       Printf.printf
         "  tier %d: %d connections, %d planted hits, %d parity mismatches\n"
         (Classify.rank tier) !conns !hits !tier_mismatch;
       tier_results :=
         (Classify.rank tier, !conns, !hits, !tier_mismatch) :: !tier_results)
    [ Classify.Protocol_I; Classify.Protocol_II; Classify.Protocol_III ];
  (* ---- budget exhaustion: flagged, not matched, never a mismatch ---- *)
  let budget_flagged = ref 0 and budget_wrong = ref 0 in
  let tiny =
    { Session.default_config with
      Session.inspect =
        { mode = Bbx_dpienc.Dpienc.Probable;
          tier = Classify.Protocol_III;
          max_plain_bytes = 48 };
      rule_prep = Session.Direct }
  in
  List.iter
    (fun (idx, r) ->
       let payload = plant_rule r ^ " " ^ String.make 400 'z' in
       let verdicts, escalation = run_conn ~config:tiny ~rules payload in
       ignore idx;
       (match
          List.find_opt (fun v -> Some (sid v) = r.Rule.sid) verdicts
        with
        | Some v when v.Engine.detail = `Budget_exceeded ->
          incr budget_flagged;
          if escalation <> `Exhausted then incr budget_wrong
        | Some _ | None -> incr budget_wrong))
    (match tiers.Classify.decrypt with
     | a :: b :: _ -> [ a; b ]
     | l -> l);
  Printf.printf
    "  tiny budget (48 B plaintext cap): %d/%d flows flagged budget-exceeded\n"
    !budget_flagged (min 2 (List.length tiers.Classify.decrypt));
  let pass = !mismatches = 0 && !detail_wrong = 0 && !budget_wrong = 0 in
  Printf.printf "  gate: parity %s (%d mismatches, %d wrong details, %d budget anomalies)\n"
    (if pass then "OK" else "FAILED") !mismatches !detail_wrong !budget_wrong;
  (* ---- machine-readable snapshot ---- *)
  let oc = open_out "BENCH_tiered.json" in
  let detail_json =
    String.concat ","
      (List.map
         (fun (name, d) ->
            Printf.sprintf "\"%s\":%d" name
              (Option.value (Hashtbl.find_opt verdict_count d) ~default:0))
         [ ("exact_hit", `Exact_hit); ("composite_match", `Composite_match);
           ("regex_match", `Regex_match) ])
  in
  let tiers_json =
    String.concat ","
      (List.rev_map
         (fun (rank, conns, hits, mism) ->
            Printf.sprintf
              "{\"tier\":%d,\"connections\":%d,\"planted_hits\":%d,\"mismatches\":%d}"
              rank conns hits mism)
         !tier_results)
  in
  Printf.fprintf oc
    "{\"experiment\":\"tiered\",\"smoke\":%b,\"rules\":%d,\"class_counts\":[%d,%d,%d],\
     \"tiers\":[%s],\"verdict_details\":{%s},\"budget_flagged\":%d,\
     \"mismatches\":%d,\"detail_wrong\":%d,\"budget_anomalies\":%d,\"pass\":%b}\n"
    smoke n
    (List.length tiers.Classify.exact)
    (List.length tiers.Classify.composite)
    (List.length tiers.Classify.decrypt)
    tiers_json detail_json !budget_flagged !mismatches !detail_wrong
    !budget_wrong pass;
  close_out oc;
  Printf.printf "  wrote BENCH_tiered.json\n";
  if not pass then exit 1
