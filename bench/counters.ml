(* Exact-counter gate for the rule-level verdict step, the detection
   index, DPIEnc's key expansion, the middlebox's per-connection set-up,
   garbling and the wire bytes.

   Wall clock on a shared 1-2 vCPU host moves by +-30% between repeats;
   the rows here do not move at all, so a regression shows as a changed
   number, not as noise.  Each row is "lower is better"; the verdict rows
   are per delivery:

   - benign-3k: 200 benign 600 B writes (generated HTML, delimiter
     tokens) through one connection on 3 000 Emerging Threats rules —
     the e2ebench ruleset-3k shape.  Rules evaluated, candidate start
     positions visited and bytes allocated by [Engine.verdicts].
   - history-1k / history-48k: one connection on the same rules whose
     client keeps sending an 840 B write that repeats the first content
     of a 3-content rule (window tokens) and never resets its salts.  The
     same three counters at the delivery where the hit history first
     passes 1 000 and 48 000 hits; they must not grow with the history.

   The detect rows run [Detect.process_stream] over the detect bench's
   smoke streams (200 keywords, 20 000 tokens; see [Detect.workload]):
   - detect-miss: index probe slots per lookup on the 0%-hit stream, from
     the 1-in-64 sampled [bbx_detect_probe_len] histogram;
   - detect-hit50: bytes allocated per token on the 50%-hit stream.

   The key rows price the sender, which expands one AES key per token
   value, and the middlebox's key material, which keeps only
   [AES_k(chunk)]:
   - sender-cold: a fresh DPIEnc sender's first pass over a pool of 64
     generated 16 KiB HTML writes (1 MiB, window tokens: the e2ebench
     bulk-window shape); bytes allocated per token, where the sender
     grows its counter table and key pages from nothing;
   - sender-html: the same sender sends the pool again, in reverse
     order, after a salt reset; bytes allocated per token in this second
     period, where every distinct token is first-seen again;
   - sender-delim: bytes per token of the second period for a
     delimiter-tokenized sender over benign-3k's 600 B writes;
   - keys-3k: one [Engine.keys] on 3 000 Emerging Threats rules, from
     precomputed chunk encryptions — bytes allocated and
     [Engine.keys_bytes] per chunk;
   - engine-3k: bytes allocated per chunk by one [Engine.make] on those
     keys, a connection's engine as the daemon registers it.

   The set-up rows price what an endpoint and the daemon redo on every
   connection over the daemon's HELLO_OK text for those 3 000 rules:
   - setup-3k: bytes allocated per chunk by a warm client's
     [Client.rules_of_text] (a text it already holds) plus
     [Client.pairs_for] on the list it returns — the pairs themselves
     are 64 B per chunk;
   - frame-hello-3k: bytes allocated per text byte by
     [Wire.encode_frame_string] on that HELLO_OK frame.

   The garble rows price obfuscated rule encryption's garbling (§3.3) on
   the tower AES circuit ([Aes_circuit.build_tower], 67 848 gates),
   which hashes through [Aes.encrypt_block]:
   - garble-tower: bytes allocated per gate by one [Garble.garble]
     ([alloc_bytes]) and by one [Garble.eval] of the result
     ([eval_alloc_bytes]); the circuit and the evaluator's input labels
     are built outside the meter.

   The wire rows count the TOKEN_STREAM body bytes a fresh sender emits
   per token, one call per write with running stream offsets:
   - wire-window: Exact mode, sender-html's 1 MiB of 16 KiB window writes;
   - wire-delim: Exact mode, benign-3k's 600 B delimiter writes;
   - wire-delim-probable: Probable mode, 64 generated 8 KiB HTML
     delimiter writes (the e2ebench probable-escalate shape).

   Every allocation row reads [Bench_util.allocated_bytes] after a
   [Gc.minor ()], so each measured window starts from an empty minor
   heap.

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
module Client = Bbx_daemon.Client
module Wire = Bbx_wire.Wire
module Obs = Bbx_obs.Obs
module Drbg = Bbx_crypto.Drbg

let baseline_path = "bench/baseline.json"
let tolerance = 0.10

let obs_evaluated = Obs.counter "bbx_engine_rules_evaluated_total"
let obs_visited = Obs.counter "bbx_engine_candidates_visited_total"
let obs_probe_len = Obs.histogram "bbx_detect_probe_len" ~buckets:[||]

let key = Dpienc.key_of_secret "bench-counters"
let enc_chunk = Dpienc.token_enc key

(* One [verdicts] call: (fresh verdicts, rules evaluated, candidates
   visited, bytes allocated, ns). *)
let measured e =
  let r0 = Obs.counter_value obs_evaluated and c0 = Obs.counter_value obs_visited in
  Gc.minor ();
  let t0 = Bbx_obs.Trace.now_ns () in
  let a0 = Bench_util.allocated_bytes () in
  let vs = Engine.verdicts e in
  let a1 = Bench_util.allocated_bytes () in
  let t1 = Bbx_obs.Trace.now_ns () in
  ( vs,
    Obs.counter_value obs_evaluated - r0,
    Obs.counter_value obs_visited - c0,
    int_of_float (a1 -. a0 -. Bench_util.alloc_overhead),
    t1 - t0 )

let wire sender ~base ~tokenization payload =
  let buf = Buffer.create (10 * String.length payload) in
  ignore (Dpienc.sender_encrypt_into sender ~base ~tokenization payload buf : int);
  Buffer.contents buf

let delimiter = Dpienc.Delimiter { short_units = false }

(* [n] generated HTML writes of (at most) [bytes] bytes each. *)
let html_writes seed ~n ~bytes =
  let drbg = Drbg.create seed in
  Array.init n (fun _ ->
      let h = Bbx_net.Page.gen_html drbg ~bytes in
      String.sub h 0 (min bytes (String.length h)))

let benign_writes deliveries = html_writes "bench-counters/benign" ~n:deliveries ~bytes:600

(* [deliveries] benign 600 B writes through one connection on [rules]:
   per-delivery means of the three counters and of the wall time (the
   clock ticks in microseconds; the mean over many calls resolves less). *)
let benign rules ~deliveries =
  let e = Engine.create ~mode:Dpienc.Exact ~salt0:0 ~rules ~enc_chunk () in
  let sender = Dpienc.sender_create Dpienc.Exact key ~salt0:0 in
  let base = ref 0 in
  let ev = ref 0 and vis = ref 0 and alloc = ref 0 and ns = ref 0 and fired = ref 0 in
  Array.iter
    (fun payload ->
       ignore (Engine.process_wire e (wire sender ~base:!base ~tokenization:delimiter payload) : int);
       base := !base + String.length payload;
       let vs, r, c, a, t = measured e in
       fired := !fired + List.length vs;
       ev := !ev + r;
       vis := !vis + c;
       alloc := !alloc + a;
       ns := !ns + t)
    (benign_writes deliveries);
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

(* Probe slots per sampled lookup on the miss stream, and bytes allocated
   per token on the 50%-hit stream. *)
let detect_counters () =
  let n_tok = 20_000 in
  let encs, tkeys = Detect.workload ~n_kw:200 in
  let det = Bbx_detect.Detect.create ~mode:Dpienc.Exact ~salt0:0 encs in
  let run wire =
    ignore (Bbx_detect.Detect.process_stream det wire ~f:(fun _ ~embed_pos:_ -> ()) : int)
  in
  let miss = Detect.stream ~tkeys ~n_tok 0.0 in
  let n0 = Obs.histogram_count obs_probe_len and s0 = Obs.histogram_sum obs_probe_len in
  run miss;
  let probes =
    float_of_int (Obs.histogram_sum obs_probe_len - s0)
    /. float_of_int (Obs.histogram_count obs_probe_len - n0)
  in
  let hit = Detect.stream ~tkeys ~n_tok 0.5 in
  Bbx_detect.Detect.reset det ~salt0:0;
  let (), alloc = Bench_util.metered (fun () -> run hit) in
  (probes, alloc /. float_of_int n_tok)

(* A sender over [pool] (see the header): bytes allocated per token by
   its first salt period and by its second, and the token count of a
   period. *)
type sender_counts = { cold : float; warm : float; tokens : int }

let sender_counts ~tokenization pool =
  let sender = Dpienc.sender_create Dpienc.Exact key ~salt0:0 in
  let buf = Buffer.create (Dpienc.exact_record_bytes * 16_384) in
  (* boxed once: an optional argument passed as [~tokenization] would box
     it again on every call, inside the measured window *)
  let tokenization = Some tokenization in
  let send n payload =
    Buffer.clear buf;
    n + Dpienc.sender_encrypt_into sender ?tokenization payload buf
  in
  let send_back p n = send n p in
  let tokens, cold = Bench_util.metered (fun () -> Array.fold_left send 0 pool) in
  ignore (Dpienc.sender_reset sender : int);
  let (_ : int), warm = Bench_util.metered (fun () -> Array.fold_right send_back pool 0) in
  let per x = x /. float_of_int tokens in
  { cold = per cold; warm = per warm; tokens }

(* TOKEN_STREAM bytes per token of a fresh sender over [writes]. *)
let wire_bytes_per_token mode ~tokenization writes =
  let sender = Dpienc.sender_create mode key ~salt0:0 in
  let k_ssl = if mode = Dpienc.Probable then Some (String.make 16 'k') else None in
  let buf = Buffer.create (1 lsl 16) in
  let base = ref 0 and bytes = ref 0 and tokens = ref 0 in
  Array.iter
    (fun p ->
       Buffer.clear buf;
       tokens := !tokens + Dpienc.sender_encrypt_into sender ?k_ssl ~base:!base ~tokenization p buf;
       bytes := !bytes + Buffer.length buf;
       base := !base + String.length p)
    writes;
  float_of_int !bytes /. float_of_int !tokens

(* Bytes allocated by [Engine.keys] and its [keys_bytes], then bytes
   allocated by an [Engine.make] on those keys, per chunk. *)
let keys_counters rules =
  let rs = Engine.ruleset rules in
  let chunks = Engine.chunks rs in
  let encs = Hashtbl.create (Array.length chunks) in
  Array.iter (fun c -> Hashtbl.replace encs c (enc_chunk c)) chunks;
  let keys, alloc = Bench_util.metered (fun () -> Engine.keys rs ~enc_chunk:(Hashtbl.find encs)) in
  let (_ : Engine.t), make_alloc =
    Bench_util.metered (fun () ->
        Engine.make Engine.default_config keys ~direction:"client->server" ~salt0:0)
  in
  let per x = x /. float_of_int (Array.length chunks) in
  ( per alloc,
    per (float_of_int (Engine.keys_bytes keys)),
    per make_alloc,
    Array.length chunks )

(* A client's set-up over the HELLO_OK text of [rules] (see the header):
   bytes per chunk on a warm entry and, informational, on a cold one (a
   changed text: parse, chunk derivation, pairs — every connection's cost
   before the entry existed), then bytes per text byte to encode the
   frame.  Returns the chunk count and the text's length too. *)
let setup_counters rules =
  let announce rules = String.concat "\n" (List.map Rule.to_string rules) in
  let text = announce rules and other = announce (List.tl rules) in
  let setup () = Client.pairs_for ~key (Client.rules_of_text text) in
  ignore (Client.rules_of_text other : Rule.t list);
  let pairs, cold = Bench_util.metered setup in
  let (_ : (string * string) array), warm = Bench_util.metered setup in
  let frame = Wire.Hello_ok { conn_id = 1; mode = Dpienc.Exact; rules_text = text } in
  let (_ : string), frame_alloc =
    Bench_util.metered (fun () -> Wire.encode_frame_string frame)
  in
  let n = float_of_int (Array.length pairs) in
  ( warm /. n,
    cold /. n,
    frame_alloc /. float_of_int (String.length text),
    Array.length pairs,
    String.length text )

(* Bytes allocated per gate by one garbling and one evaluation of the
   tower AES circuit, and its gate count. *)
let garble_counters () =
  let circuit = Bbx_circuit.Aes_circuit.build_tower () in
  let drbg = Drbg.create "bench-counters/garble" in
  let (g, secrets), garble_alloc =
    Bench_util.metered (fun () -> Bbx_garble.Garble.garble drbg circuit)
  in
  let labels =
    Bbx_garble.Garble.encode_inputs secrets
      (Bbx_circuit.Circuit.bits_of_string (String.make 16 'k' ^ String.make 16 'm'))
  in
  let (_ : bool array), eval_alloc =
    Bench_util.metered (fun () -> Bbx_garble.Garble.eval circuit g labels)
  in
  let gates = Bbx_circuit.Circuit.gate_count circuit in
  (garble_alloc /. float_of_int gates, eval_alloc /. float_of_int gates, gates)

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
  let probes, hit_alloc = detect_counters () in
  Printf.printf
    "  detect (200 keywords, 20 000 tokens): %.2f probe slots/lookup at 0%% hits, \
     %.1f B allocated/token at 50%% hits\n%!"
    probes hit_alloc;
  let rows =
    [ { name = "benign-3k.rules_evaluated"; unit_ = "rules/delivery"; value = ev };
      { name = "benign-3k.candidates_visited"; unit_ = "candidates/delivery"; value = vis };
      { name = "benign-3k.verdicts_alloc_bytes"; unit_ = "B/delivery"; value = alloc } ]
    @ hist_rows
    @ [ { name = "detect-miss.probe_slots"; unit_ = "slots/lookup"; value = probes };
        { name = "detect-hit50.alloc_bytes"; unit_ = "B/token"; value = hit_alloc } ]
  in
  let html = html_writes "bench-counters/html" ~n:64 ~bytes:16_384 in
  let benign_600 = benign_writes 200 in
  let sender_html = sender_counts ~tokenization:Dpienc.Window html in
  Printf.printf
    "  sender (64 x 16 KiB HTML window writes, %d tokens per salt period): \
     %.1f B allocated/token in the first period, %.1f in the second\n%!"
    sender_html.tokens sender_html.cold sender_html.warm;
  let sender_delim = sender_counts ~tokenization:delimiter benign_600 in
  Printf.printf
    "  sender (200 x 600 B HTML delimiter writes, %d tokens per salt period): \
     %.1f B allocated/token in the first period, %.1f in the second\n%!"
    sender_delim.tokens sender_delim.cold sender_delim.warm;
  let wire_window = wire_bytes_per_token Dpienc.Exact ~tokenization:Dpienc.Window html in
  let wire_delim = wire_bytes_per_token Dpienc.Exact ~tokenization:delimiter benign_600 in
  let wire_probable =
    wire_bytes_per_token Dpienc.Probable ~tokenization:delimiter
      (html_writes "bench-counters/probable" ~n:64 ~bytes:8192)
  in
  Printf.printf
    "  wire bytes/token: exact window %.2f, exact delimiter %.2f, probable delimiter %.2f\n%!"
    wire_window wire_delim wire_probable;
  let keys_alloc, keys_bytes, make_alloc, nchunks = keys_counters rules3k in
  Printf.printf
    "  keys (3 000 ET rules, %d chunks): %.1f B allocated/chunk, keys_bytes %.1f B/chunk; \
     Engine.make %.1f B allocated/chunk\n%!"
    nchunks keys_alloc keys_bytes make_alloc;
  let setup_warm, setup_cold, frame_hello, setup_chunks, text_bytes = setup_counters rules3k in
  Printf.printf
    "  client set-up (3 000 ET rules, %d chunks, %d B HELLO_OK text): %.1f B allocated/chunk \
     on a warm entry, %.1f on a changed text; HELLO_OK frame %.2f B allocated/text byte\n%!"
    setup_chunks text_bytes setup_warm setup_cold frame_hello;
  let garble_alloc, eval_alloc, gates = garble_counters () in
  Printf.printf
    "  garbling (tower AES circuit, %d gates): %.1f B allocated/gate to garble, %.1f to \
     evaluate\n%!"
    gates garble_alloc eval_alloc;
  let rows =
    rows
    @ [ { name = "sender-html.alloc_bytes"; unit_ = "B/token"; value = sender_html.warm };
        { name = "sender-delim.alloc_bytes"; unit_ = "B/token"; value = sender_delim.warm };
        { name = "keys-3k.alloc_bytes"; unit_ = "B/chunk"; value = keys_alloc };
        { name = "keys-3k.keys_bytes"; unit_ = "B/chunk"; value = keys_bytes };
        { name = "engine-3k.make_alloc_bytes"; unit_ = "B/chunk"; value = make_alloc };
        { name = "wire-window.bytes_per_token"; unit_ = "B/token"; value = wire_window };
        { name = "wire-delim.bytes_per_token"; unit_ = "B/token"; value = wire_delim };
        { name = "wire-delim-probable.bytes_per_token"; unit_ = "B/token";
          value = wire_probable };
        { name = "sender-cold.alloc_bytes"; unit_ = "B/token"; value = sender_html.cold };
        { name = "setup-3k.client_alloc_bytes"; unit_ = "B/chunk"; value = setup_warm };
        { name = "frame-hello-3k.alloc_bytes"; unit_ = "B/text byte"; value = frame_hello };
        { name = "garble-tower.alloc_bytes"; unit_ = "B/gate"; value = garble_alloc };
        { name = "garble-tower.eval_alloc_bytes"; unit_ = "B/gate"; value = eval_alloc } ]
  in
  if Array.mem "--write-baseline" Sys.argv then begin
    Out_channel.with_open_bin baseline_path (fun oc -> output_string oc (render rows));
    Printf.printf "  wrote %s\n" baseline_path
  end;
  if Array.mem "--check" Sys.argv then check rows
