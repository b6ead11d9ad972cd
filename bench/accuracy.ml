(* §7.1 accuracy experiment: replay an ICTF-like trace against an
   Emerging-Threats-like ruleset (regex rules removed, as in the paper)
   and compare BlindBox's delimiter-tokenization detection with the
   plaintext "Snort" ground truth.

   Paper: 97.1% of attack keywords and 99% of attack rules detected. *)

open Bbx_dpienc
open Bbx_net
open Bbx_rules
open Bbx_tokenizer

let run () =
  Bench_util.section "Detection accuracy vs plaintext Snort (ICTF-like trace)";
  let all_rules = Datasets.generate Datasets.Emerging_threats ~n:500 in
  let rules = List.filter (fun r -> r.Rule.pcre = None) all_rules in
  Printf.printf "  ruleset: %d rules after dropping pcre rules (of %d)\n"
    (List.length rules) (List.length all_rules);
  let flows = Trace.generate ~misaligned_fraction:0.03 ~rules ~n_attacks:600 ~n_benign:200 () in
  let dpi_key = Dpienc.key_of_secret "accuracy-k" in
  let enc_chunk = Dpienc.token_enc dpi_key in
  (* ground truth and BlindBox detection, flow by flow (fresh connection
     state per flow, as the middlebox would have) *)
  let kw_truth = ref 0 and kw_detected = ref 0 in
  let rule_truth = ref 0 and rule_detected = ref 0 in
  let false_alarms = ref 0 in
  (* unique coverage across the whole trace (the paper's aggregation:
     which of the keywords/rules Snort flags anywhere does BlindBox also
     flag somewhere?) *)
  let uniq_kw_truth = Hashtbl.create 256 and uniq_kw_det = Hashtbl.create 256 in
  let uniq_rule_truth = Hashtbl.create 256 and uniq_rule_det = Hashtbl.create 256 in
  List.iter
    (fun flow ->
       let payload = flow.Trace.payload in
       (* plaintext Snort reference *)
       let truth_rules =
         List.filter (fun r -> Classify.matches_plaintext r payload) rules
       in
       let truth_kws =
         List.sort_uniq compare
           (List.concat_map
              (fun r ->
                 List.filter
                   (fun kw -> Classify.keyword_match_positions ~nocase:false kw payload <> [])
                   (Rule.keywords r))
              truth_rules)
       in
       (* BlindBox over the encrypted token stream *)
       let engine =
         Bbx_mbox.Engine.create ~mode:Dpienc.Exact ~salt0:0 ~rules ~enc_chunk ()
       in
       let sender = Dpienc.sender_create Dpienc.Exact dpi_key ~salt0:0 in
       let buf = Buffer.create 4096 in
       ignore
         (Dpienc.sender_encrypt_into sender
            ~tokenization:(Dpienc.Delimiter { short_units = false }) payload buf : int);
       ignore (Bbx_mbox.Engine.process_wire engine (Buffer.contents buf) : int);
       ignore (Bbx_mbox.Engine.verdicts engine : Bbx_mbox.Engine.verdict list);
       let verdict_rules =
         List.map (fun v -> v.Bbx_mbox.Engine.rule) (Bbx_mbox.Engine.decided engine)
       in
       let hits = Bbx_mbox.Engine.keyword_hits engine in
       (* a keyword counts as detected when all its chunks were seen at
          consistent offsets, i.e. some hit covers its first chunk *)
       let kw_found kw =
         match Tokenizer.keyword_chunks kw with
         | [] -> false
         | (first, _) :: _ -> List.exists (fun (c, _) -> c = first) hits
       in
       kw_truth := !kw_truth + List.length truth_kws;
       kw_detected := !kw_detected + List.length (List.filter kw_found truth_kws);
       rule_truth := !rule_truth + List.length truth_rules;
       rule_detected :=
         !rule_detected
         + List.length (List.filter (fun r -> List.memq r verdict_rules) truth_rules);
       List.iter
         (fun kw ->
            Hashtbl.replace uniq_kw_truth kw ();
            if kw_found kw then Hashtbl.replace uniq_kw_det kw ())
         truth_kws;
       List.iter
         (fun r ->
            let sid = Option.value r.Rule.sid ~default:0 in
            Hashtbl.replace uniq_rule_truth sid ();
            if List.memq r verdict_rules then Hashtbl.replace uniq_rule_det sid ())
         truth_rules;
       if flow.Trace.attack = None && verdict_rules <> [] then incr false_alarms)
    flows;
  let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b) in
  Printf.printf "  unique keywords detected: %d / %d = %.1f%%   (paper: 97.1%%)\n"
    (Hashtbl.length uniq_kw_det) (Hashtbl.length uniq_kw_truth)
    (pct (Hashtbl.length uniq_kw_det) (Hashtbl.length uniq_kw_truth));
  Printf.printf "  unique rules detected:    %d / %d = %.1f%%   (paper: 99%%)\n"
    (Hashtbl.length uniq_rule_det) (Hashtbl.length uniq_rule_truth)
    (pct (Hashtbl.length uniq_rule_det) (Hashtbl.length uniq_rule_truth));
  Printf.printf "  per-instance: keywords %.1f%%, rules %.1f%%\n"
    (pct !kw_detected !kw_truth) (pct !rule_detected !rule_truth);
  Printf.printf "  false alarms on benign flows: %d\n" !false_alarms
