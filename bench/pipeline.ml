(* Token-pipeline micro-bench: the reference list-of-records path of
   [Bbx_oracle] (list tokenizer -> Hashtbl sender -> record codec -> AVL
   detector) vs the streaming path that ships (sender_encrypt_into ->
   Detect.process_stream), end to end on a 1500-byte packet under window
   tokenization — the paper's worst case of one token per payload byte.

   Reports tokens/sec and GC-allocated bytes per token for both paths
   (the exact meter of [Bench_util.metered]), so the streaming design's
   win is measured, not asserted.  `--smoke` runs a quick sanity pass
   (streaming and reference paths must produce identical wire bytes) for
   CI. *)

open Bbx_crypto
open Bbx_dpienc
open Bbx_rules
open Bbx_tokenizer
open Bbx_oracle

let packet_bytes = 1500

let alloc_per_token ~reps ~tokens f =
  f ();
  (* warmup: first call populates counter tables / token keys *)
  let (), bytes = Bench_util.metered (fun () -> for _ = 1 to reps do f () done) in
  bytes /. float_of_int (reps * tokens)

let run () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  Bench_util.section
    (if smoke then "Token pipeline (smoke)" else "Token pipeline: reference list path vs streaming path");
  let packet =
    let html = Bbx_net.Page.gen_html (Drbg.create "pipeline") ~bytes:(2 * packet_bytes) in
    String.sub html 0 packet_bytes
  in
  let n_rules = if smoke then 50 else 1000 in
  let rules = Datasets.generate Datasets.Emerging_threats ~n:n_rules in
  let chunks = Bbx_mbox.Engine.distinct_chunks rules in
  let dpi_key = Dpienc.key_of_secret "pipeline-k" in
  let encs = Array.map (Dpienc.token_enc dpi_key) chunks in
  let tokens = Tokenizer.window_count packet in
  Printf.printf "  workload: %d-byte packet, window tokenization (%d tokens), %d chunks\n"
    packet_bytes tokens (Array.length chunks);

  (* Two isolated sender/detector pairs so the paths cannot share counter
     state; both consume the identical packet stream. *)
  let sender_legacy = Ref_sender.create Dpienc.Exact dpi_key ~salt0:0 in
  let detect_legacy = Ref_detect.create ~mode:Dpienc.Exact ~salt0:0 encs in
  let legacy () =
    let toks = Tokens.window packet in
    let enc = Ref_sender.encrypt sender_legacy toks in
    let wire = Records.encode_tokens ~explicit:false enc in
    ignore (Ref_detect.process_batch detect_legacy (Records.decode_tokens wire) : _ list);
    wire
  in

  let sender_stream = Dpienc.sender_create Dpienc.Exact dpi_key ~salt0:0 in
  let detect_stream = Bbx_detect.Detect.create ~mode:Dpienc.Exact ~salt0:0 encs in
  let buf = Buffer.create (Dpienc.exact_record_bytes * tokens) in
  let streaming () =
    Buffer.clear buf;
    ignore (Dpienc.sender_encrypt_into sender_stream ~tokenization:Dpienc.Window packet buf : int);
    let wire = Buffer.contents buf in
    ignore
      (Bbx_detect.Detect.process_stream detect_stream wire ~f:(fun _ ~embed_pos:_ -> ()) : int);
    wire
  in

  (* Both senders advance their counters identically per call, so the two
     paths stay byte-comparable on every iteration. *)
  let w_legacy = legacy () and w_stream = streaming () in
  if not (String.equal w_legacy w_stream) then begin
    Printf.printf "  FAIL: streaming wire differs from the reference wire\n";
    exit 1
  end;
  Printf.printf "  wire equivalence: OK (%d bytes per packet)\n" (String.length w_stream);
  if smoke then begin
    for _ = 1 to 5 do
      if not (String.equal (legacy ()) (streaming ())) then begin
        Printf.printf "  FAIL: paths diverged under counter advance\n";
        exit 1
      end
    done;
    Printf.printf "  smoke OK\n"
  end
  else begin
    let reps = 200 in
    let alloc_legacy = alloc_per_token ~reps ~tokens (fun () -> ignore (legacy () : string)) in
    let alloc_stream = alloc_per_token ~reps ~tokens (fun () -> ignore (streaming () : string)) in
    let s_legacy = Bench_util.time_per ~min_time:1.0 (fun () -> ignore (legacy () : string)) in
    let s_stream = Bench_util.time_per ~min_time:1.0 (fun () -> ignore (streaming () : string)) in
    let tps s = float_of_int tokens /. s in
    Printf.printf "  reference list path: %8.0f tokens/s  %7.1f B allocated/token  (%s/packet)\n"
      (tps s_legacy) alloc_legacy (Bench_util.fmt_seconds s_legacy);
    Printf.printf "  streaming path:      %8.0f tokens/s  %7.1f B allocated/token  (%s/packet)\n"
      (tps s_stream) alloc_stream (Bench_util.fmt_seconds s_stream);
    Printf.printf "  speedup: %.2fx tokens/s, %.1fx fewer allocated bytes/token\n"
      (s_legacy /. s_stream) (alloc_legacy /. alloc_stream);
    Bench_util.note
      "acceptance: streaming must allocate >= 3x less per token and run faster";
    if alloc_legacy < 3.0 *. alloc_stream || s_stream > s_legacy then begin
      Printf.printf "  FAIL: streaming path does not meet the acceptance bar\n";
      exit 1
    end
  end
