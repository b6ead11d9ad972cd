(* Exact-counter gate for the rule-level verdict step.

   Wall clock on a shared 1-2 vCPU host moves by +-30% between repeats;
   the rows here do not move at all, so a regression shows as a changed
   number, not as noise.  Each row is "lower is better" and per delivery:

   - benign-3k: 200 benign 600 B writes (generated HTML, delimiter
     tokens) through one connection on 3 000 Emerging Threats rules —
     the e2ebench ruleset-3k shape.  Rules evaluated, candidate start
     positions visited and bytes allocated by [Engine.verdicts].
   - history-1k / history-48k: one connection on the same rules whose
     client keeps sending an 840 B write that repeats the first content
     of a 3-content rule (window tokens) and never resets its salts.  The
     same three counters at the delivery where the hit history first
     passes 1 000 and 48 000 hits; they must not grow with the history.

   Informational lines (not gated) give [verdicts] wall time and
   allocation at 50, 300 and 3 000 rules.

   Usage: bench/main.exe counters [--check] [--write-baseline]
     --check           compare with bench/baseline.json; exit 1 when a
                       row exceeds its baseline by more than 10%, or a
                       baseline row is missing
     --write-baseline  rewrite bench/baseline.json from this run *)

open Bbx_rules
open Bbx_dpienc
module Engine = Bbx_mbox.Engine
module Obs = Bbx_obs.Obs
module Drbg = Bbx_crypto.Drbg

let baseline_path = "bench/baseline.json"
let tolerance = 0.10

let obs_evaluated = Obs.counter "bbx_engine_rules_evaluated_total"
let obs_visited = Obs.counter "bbx_engine_candidates_visited_total"

let key = Dpienc.key_of_secret "bench-counters"
let enc_chunk = Dpienc.token_enc key

(* Bytes [Gc.allocated_bytes] itself allocates between two reads. *)
let alloc_overhead =
  let a0 = Gc.allocated_bytes () in
  let a1 = Gc.allocated_bytes () in
  a1 -. a0

(* One [verdicts] call: (fresh verdicts, rules evaluated, candidates
   visited, bytes allocated, ns). *)
let measured e =
  let r0 = Obs.counter_value obs_evaluated and c0 = Obs.counter_value obs_visited in
  let t0 = Bbx_obs.Trace.now_ns () in
  let a0 = Gc.allocated_bytes () in
  let vs = Engine.verdicts e in
  let a1 = Gc.allocated_bytes () in
  let t1 = Bbx_obs.Trace.now_ns () in
  ( vs,
    Obs.counter_value obs_evaluated - r0,
    Obs.counter_value obs_visited - c0,
    int_of_float (a1 -. a0 -. alloc_overhead),
    t1 - t0 )

let wire sender ~base ~tokenization payload =
  let buf = Buffer.create (10 * String.length payload) in
  ignore (Dpienc.sender_encrypt_into sender ~base ~tokenization payload buf : int);
  Buffer.contents buf

let delimiter = Dpienc.Delimiter { short_units = false }

(* [deliveries] benign 600 B writes through one connection on [rules]:
   per-delivery means of the three counters and of the wall time (the
   clock ticks in microseconds; the mean over many calls resolves less). *)
let benign rules ~deliveries =
  let e = Engine.create ~mode:Dpienc.Exact ~salt0:0 ~rules ~enc_chunk () in
  let sender = Dpienc.sender_create Dpienc.Exact key ~salt0:0 in
  let drbg = Drbg.create "bench-counters/benign" in
  let base = ref 0 in
  let ev = ref 0 and vis = ref 0 and alloc = ref 0 and ns = ref 0 and fired = ref 0 in
  for _ = 1 to deliveries do
    let html = Bbx_net.Page.gen_html drbg ~bytes:600 in
    let payload = String.sub html 0 (min 600 (String.length html)) in
    ignore (Engine.process_wire e (wire sender ~base:!base ~tokenization:delimiter payload) : int);
    base := !base + String.length payload;
    let vs, r, c, a, t = measured e in
    fired := !fired + List.length vs;
    ev := !ev + r;
    vis := !vis + c;
    alloc := !alloc + a;
    ns := !ns + t
  done;
  let per x = float_of_int x /. float_of_int deliveries in
  (per !ev, per !vis, per !alloc, per !ns, Engine.hit_count e, !fired)

(* The first 3-content rule none of whose later contents' chunks occur in
   a stream of its first content, and that stream. *)
let history_rule rules =
  let first r = (List.hd r.Rule.contents).Rule.pattern in
  let stream_of kw =
    String.concat " " (List.init (840 / (String.length kw + 1)) (fun _ -> kw)) ^ " "
  in
  let r =
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
  (r, stream_of (first r))

(* Counters at the deliveries of [payload] where the hit history first
   reaches each of [targets] (ascending). *)
let history rules ~payload ~targets =
  let e = Engine.create ~mode:Dpienc.Exact ~salt0:0 ~rules ~enc_chunk () in
  let sender = Dpienc.sender_create Dpienc.Exact key ~salt0:0 in
  let base = ref 0 in
  List.map
    (fun target ->
       let rec go () =
         ignore
           (Engine.process_wire e (wire sender ~base:!base ~tokenization:Dpienc.Window payload)
            : int);
         base := !base + String.length payload;
         let _, r, c, a, t = measured e in
         if Engine.hit_count e >= target then (target, Engine.hit_count e, r, c, a, t)
         else go ()
       in
       go ())
    targets

(* ---------- baseline file: one row per line ---------- *)

type row = { name : string; unit_ : string; value : float }

let render rows =
  "{\"experiment\": \"counters\", \"tolerance\": 0.10, \"rows\": [\n"
  ^ String.concat ",\n"
      (List.map
         (fun r ->
            Printf.sprintf "  {\"name\": %S, \"unit\": %S, \"value\": %.1f}" r.name r.unit_
              r.value)
         rows)
  ^ "\n]}\n"

let parse text =
  List.filter_map
    (fun line ->
       match
         Scanf.sscanf line " {\"name\": %S, \"unit\": %S, \"value\": %f}" (fun name unit_ value ->
             { name; unit_; value })
       with
       | r -> Some r
       | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)
    (String.split_on_char '\n' text)

let check rows =
  let text = In_channel.with_open_bin baseline_path In_channel.input_all in
  let base = parse text in
  if base = [] then failwith (baseline_path ^ ": no rows");
  let bad =
    List.filter_map
      (fun b ->
         match List.find_opt (fun r -> r.name = b.name) rows with
         | None -> Some (Printf.sprintf "%s: row missing from this run" b.name)
         | Some r when r.value > b.value *. (1.0 +. tolerance) ->
           Some
             (Printf.sprintf "%s: %.1f %s, baseline %.1f (+%.0f%% allowed)" b.name r.value
                r.unit_ b.value (100.0 *. tolerance))
         | Some _ -> None)
      base
  in
  Printf.printf "  baseline check against %s: %d rows, %d regressed\n" baseline_path
    (List.length base) (List.length bad);
  List.iter (Printf.printf "    REGRESSED %s\n") bad;
  if bad <> [] then exit 1

let run () =
  Bench_util.section "Verdict step: exact counters per delivery";
  Obs.set_enabled true;
  let et n = Datasets.generate Datasets.Emerging_threats ~n in
  let rules3k = et 3000 in
  let ev, vis, alloc, ns, hits, fired = benign rules3k ~deliveries:200 in
  Printf.printf
    "  benign-3k (200 x 600 B delimiter writes, %d hits, %d verdicts):\n\
    \    rules evaluated %.1f/delivery  candidates visited %.1f/delivery  \
     verdicts allocated %.1f B/delivery  (%s)\n%!"
    hits fired ev vis alloc (Bench_util.fmt_seconds (ns /. 1e9));
  let hrule, payload = history_rule rules3k in
  Printf.printf "  history: an 840 B window write repeating the first content of sid %d\n"
    (Option.value hrule.Rule.sid ~default:0);
  let hist = history rules3k ~payload ~targets:[ 1_000; 48_000 ] in
  List.iter
    (fun (target, hits, r, c, a, t) ->
       Printf.printf
         "    at %6d hits (target %dk): rules evaluated %d  candidates visited %d  \
          allocated %d B  (%s)\n%!"
         hits (target / 1000) r c a (Bench_util.fmt_seconds (float_of_int t /. 1e9)))
    hist;
  Printf.printf "  informational, verdicts wall time per benign delivery (mean):\n";
  List.iter
    (fun n ->
       let _, _, alloc, ns, _, _ = benign (et n) ~deliveries:200 in
       Printf.printf "    %4d rules: %s, %.0f B allocated\n%!" n
         (Bench_util.fmt_seconds (ns /. 1e9)) alloc)
    [ 50; 300; 3000 ];
  let hist_rows =
    List.concat_map
      (fun (target, _, r, c, a, _) ->
         let p = Printf.sprintf "history-%dk" (target / 1000) in
         [ { name = p ^ ".rules_evaluated"; unit_ = "rules/delivery"; value = float_of_int r };
           { name = p ^ ".candidates_visited"; unit_ = "candidates/delivery";
             value = float_of_int c };
           { name = p ^ ".verdicts_alloc_bytes"; unit_ = "B/delivery"; value = float_of_int a } ])
      hist
  in
  let rows =
    [ { name = "benign-3k.rules_evaluated"; unit_ = "rules/delivery"; value = ev };
      { name = "benign-3k.candidates_visited"; unit_ = "candidates/delivery"; value = vis };
      { name = "benign-3k.verdicts_alloc_bytes"; unit_ = "B/delivery"; value = alloc } ]
    @ hist_rows
  in
  if Array.mem "--write-baseline" Sys.argv then begin
    Out_channel.with_open_bin baseline_path (fun oc -> output_string oc (render rows));
    Printf.printf "  wrote %s\n" baseline_path
  end;
  if Array.mem "--check" Sys.argv then check rows
