(* Detection-index bench: the same token streams pushed through
   BlindBox Detect (its flat open-addressing cipher index, "hash") and
   through the AVL-tree reference detector of [Bbx_oracle] ("avl"), both
   decoding with [Dpienc.decode_iter], across a hit-rate sweep.

   Streams are generated against salt0 = 0 with the exact per-keyword salt
   progression the detector expects, so a hit-bearing stream can be
   replayed only against a freshly reset detector — hit configurations
   reset before every timed pass (the reset is O(keywords), noted below),
   while the miss-dominated stream leaves detection state untouched and is
   replayed in place.

   Gates (ISSUE 5 acceptance):
     - miss-dominated stream: Hash >= 2x AVL tokens/s
     - hit-heavy stream:      Hash strictly fewer GC bytes/token than AVL
   plus an event-for-event parity check per configuration (same events,
   same order, from both backends).

   Results land in BENCH_detect.json for the CI artifact. *)

open Bbx_crypto
open Bbx_dpienc
open Bbx_oracle
module Detect = Bbx_detect.Detect

let gate_speedup = 2.0

type config_result = {
  cr_hit_rate : float;
  cr_hits : int;
  cr_avl_tps : float;
  cr_hash_tps : float;
  cr_avl_alloc : float;   (* GC bytes/token *)
  cr_hash_alloc : float;
}

(* Deterministic stream generator: a splitmix-style LCG decides hit/miss
   and picks keywords; hit tokens carry the keyword's next-salt cipher
   (salt = occurrence count, Exact stride), misses a random 40-bit value
   (spurious index collisions are ~n/2^40 per token — both backends see
   the identical stream either way). *)
let make_wire ~tkeys ~n_tok ~hit_rate ~seed =
  let n_kw = Array.length tkeys in
  let counts = Array.make n_kw 0 in
  let state = ref (seed lor 1) in
  let rand () =
    state := ((!state * 0x2545F4914F6CDD1D) + 1442695040888963407) land max_int;
    !state lsr 17
  in
  let toks = ref [] in
  for i = 0 to n_tok - 1 do
    let hit = float_of_int (rand () land 0xffff) /. 65536.0 < hit_rate in
    let cipher =
      if hit then begin
        let j = rand () mod n_kw in
        let c = Token_keys.encrypt tkeys.(j) ~salt:counts.(j) in
        counts.(j) <- counts.(j) + 1;
        c
      end
      else rand () land ((1 lsl Dpienc.rs_bits) - 1)
    in
    toks := { Records.cipher; embed = None; offset = i } :: !toks
  done;
  Records.encode_tokens ~explicit:false (List.rev !toks)

(* The keyword set of [n_kw] encrypted random tokens, and the stream of
   [n_tok] tokens at [hit_rate] against it.  [counters] gates exact
   counters on the smoke shape (200 keywords, 20 000 tokens). *)
let workload ~n_kw =
  let dpi = Dpienc.key_of_secret "bench-detect-k" in
  let drbg = Drbg.create "bench-detect-kws" in
  let encs =
    Array.init n_kw (fun _ ->
        Dpienc.token_enc dpi (Drbg.bytes drbg Bbx_tokenizer.Tokenizer.token_len))
  in
  (encs, Array.map Token_keys.token_key_of_enc encs)

let stream ~tkeys ~n_tok hit_rate =
  make_wire ~tkeys ~n_tok ~hit_rate ~seed:(0x9e3779b9 + int_of_float (hit_rate *. 1e4))

(* A detector under test: reset to salt0 = 0, and stream processing. *)
type backend = {
  reset : unit -> unit;
  stream : string -> f:(Detect.event -> embed_pos:int -> unit) -> int;
}

let run () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  Bench_util.section
    (if smoke then "Detection index (smoke): flat hash vs AVL"
     else "Detection index: flat open-addressing hash vs AVL tree");
  let n_kw = if smoke then 200 else 2000 in
  let n_tok = if smoke then 20_000 else 200_000 in
  let encs, tkeys = workload ~n_kw in
  Printf.printf "  workload: %d keywords, %d-token streams, Exact mode\n%!" n_kw n_tok;

  let det_hash =
    let d = Detect.create ~mode:Dpienc.Exact ~salt0:0 encs in
    { reset = (fun () -> Detect.reset d ~salt0:0); stream = Detect.process_stream d }
  in
  let det_avl =
    let d = Ref_detect.create ~mode:Dpienc.Exact ~salt0:0 encs in
    { reset = (fun () -> Ref_detect.reset d ~salt0:0); stream = Ref_detect.process_stream d }
  in

  (* Event-for-event parity: both backends must report identical
     (kw_id, offset, salt) sequences on every stream. *)
  let events det wire =
    det.reset ();
    let acc = ref [] in
    ignore
      (det.stream wire ~f:(fun ev ~embed_pos:_ ->
           acc := (ev.Detect.kw_id, ev.Detect.offset, ev.Detect.salt) :: !acc)
        : int);
    List.rev !acc
  in

  let run_config hit_rate =
    let wire = stream ~tkeys ~n_tok hit_rate in
    let ev_hash = events det_hash wire and ev_avl = events det_avl wire in
    if ev_hash <> ev_avl then begin
      Printf.printf "  FAIL: backends disagree at hit rate %.2f (%d vs %d events)\n"
        hit_rate (List.length ev_hash) (List.length ev_avl);
      exit 1
    end;
    let hits = List.length ev_hash in
    let needs_reset = hits > 0 in
    let pass det () =
      if needs_reset then det.reset ();
      ignore (det.stream wire ~f:(fun _ ~embed_pos:_ -> ()) : int)
    in
    (* interleaved best-of rounds so drift cancels instead of biasing one
       backend *)
    let rounds = if smoke then 3 else 5 in
    let min_time = if smoke then 0.1 else 0.3 in
    let best_hash = ref infinity and best_avl = ref infinity in
    for round = 1 to rounds do
      let order =
        if round land 1 = 0 then [ (det_hash, best_hash); (det_avl, best_avl) ]
        else [ (det_avl, best_avl); (det_hash, best_hash) ]
      in
      List.iter
        (fun (det, best) ->
           let t = Bench_util.time_per ~min_time (pass det) in
           best := min !best t)
        order
    done;
    (* exact allocation per token; the reset outside the measured
       window *)
    let alloc det =
      if needs_reset then det.reset ();
      let (), bytes =
        Bbx_obs.Obs.metered (fun () -> ignore (det.stream wire ~f:(fun _ ~embed_pos:_ -> ()) : int))
      in
      bytes /. float_of_int n_tok
    in
    let avl_alloc = alloc det_avl and hash_alloc = alloc det_hash in
    let tps t = float_of_int n_tok /. t in
    let r =
      { cr_hit_rate = hit_rate;
        cr_hits = hits;
        cr_avl_tps = tps !best_avl;
        cr_hash_tps = tps !best_hash;
        cr_avl_alloc = avl_alloc;
        cr_hash_alloc = hash_alloc }
    in
    Printf.printf
      "  hit %4.0f%% (%6d hits): avl %9.0f tok/s %6.1f B/tok | hash %9.0f tok/s %6.1f B/tok | %4.2fx\n%!"
      (100.0 *. hit_rate) hits r.cr_avl_tps avl_alloc r.cr_hash_tps hash_alloc
      (r.cr_hash_tps /. r.cr_avl_tps);
    r
  in

  let results = List.map run_config [ 0.0; 0.01; 0.5 ] in
  (match results with
   | { cr_hits; _ } :: _ when cr_hits <> 0 ->
     Printf.printf "  note: miss stream unexpectedly carries hits\n"
   | _ -> ());
  Bench_util.note
    "hit configurations pay one O(keywords) detector reset per pass (outside the alloc window, inside the timed one)";

  let miss = List.nth results 0 and heavy = List.nth results 2 in
  let speedup_miss = miss.cr_hash_tps /. miss.cr_avl_tps in

  let oc = open_out "BENCH_detect.json" in
  Printf.fprintf oc
    "{\"experiment\":\"detect\",\"smoke\":%b,\"keywords\":%d,\"tokens\":%d,\"configs\":["
    smoke n_kw n_tok;
  List.iteri
    (fun i r ->
       Printf.fprintf oc
         "%s{\"hit_rate\":%.2f,\"hits\":%d,\"avl_tokens_per_sec\":%.0f,\"hash_tokens_per_sec\":%.0f,\"speedup\":%.3f,\"avl_alloc_bytes_per_token\":%.2f,\"hash_alloc_bytes_per_token\":%.2f}"
         (if i > 0 then "," else "") r.cr_hit_rate r.cr_hits r.cr_avl_tps
         r.cr_hash_tps
         (r.cr_hash_tps /. r.cr_avl_tps)
         r.cr_avl_alloc r.cr_hash_alloc)
    results;
  Printf.fprintf oc "],\"gate_speedup_miss\":%.3f,\"gate_alloc_hit_heavy\":[%.2f,%.2f]}\n"
    speedup_miss heavy.cr_hash_alloc heavy.cr_avl_alloc;
  close_out oc;
  Printf.printf "  wrote BENCH_detect.json\n";

  (* gates *)
  let failed = ref false in
  if speedup_miss < gate_speedup then begin
    Printf.printf "  FAIL: hash %.2fx AVL on the miss-dominated stream (need >= %.1fx)\n"
      speedup_miss gate_speedup;
    failed := true
  end;
  if heavy.cr_hash_alloc >= heavy.cr_avl_alloc then begin
    Printf.printf
      "  FAIL: hash allocates %.1f B/token on the hit-heavy stream, AVL %.1f (need strictly fewer)\n"
      heavy.cr_hash_alloc heavy.cr_avl_alloc;
    failed := true
  end;
  Bench_util.note
    "acceptance: hash >= %.1fx AVL tokens/s at 0%% hits; strictly fewer GC bytes/token at 50%% hits"
    gate_speedup;
  if !failed then exit 1
