(* Shardpool scaling across OCaml domains: the same interleaved
   multi-connection delivery trace pushed through Shardpool at 1, 2 and 4
   worker domains.  Senders are pre-run — every wire is encrypted before
   the clock starts — so the timed region is exactly the middlebox side:
   mailbox hand-off + per-shard BlindBox Detect.

   Determinism check rides along: every domain count must produce
   identical aggregate stats (connections route by id, salts replay from
   the same wires), so parallelism cannot change detection results.

   Gates (skipped with a note when the machine lacks the cores —
   `Domain.recommended_domain_count` on a 1-core container makes any
   speedup target unmeetable):
     - >= 2 cores:              2 domains must beat 1 by > 1.2x
     - >= 4 cores, full mode:   4 domains must beat 1 by >= 1.8x

   Results land in BENCH_parallel.json for the CI artifact. *)

open Bbx_crypto
open Bbx_dpienc
open Bbx_rules

let packet_bytes = 1500
let gate_2 = 1.2
let gate_4 = 1.8

type conn_setup = {
  cs_id : int;
  cs_enc_chunk : string -> string;
  cs_wires : string array;   (* pre-encrypted deliveries, in order *)
}

let build_conns ~conns ~wires_per_conn ~chunks =
  let drbg = Drbg.create "bench-parallel-traffic" in
  Array.init conns (fun i ->
      let key = Dpienc.key_of_secret (Printf.sprintf "bench-parallel-conn-%d" i) in
      let encs = Array.map (Dpienc.token_enc key) chunks in
      let tbl = Hashtbl.create (Array.length chunks) in
      Array.iteri (fun j c -> Hashtbl.replace tbl c encs.(j)) chunks;
      let sender = Dpienc.sender_create Dpienc.Exact key ~salt0:0 in
      let off = ref 0 in
      let wires =
        Array.init wires_per_conn (fun _ ->
            let html = Bbx_net.Page.gen_html drbg ~bytes:(2 * packet_bytes) in
            let packet = String.sub html 0 packet_bytes in
            let buf = Buffer.create (Dpienc.exact_record_bytes * packet_bytes) in
            ignore
              (Dpienc.sender_encrypt_into sender ~base:!off
                 ~tokenization:Dpienc.Window packet buf : int);
            off := !off + packet_bytes;
            Buffer.contents buf)
      in
      { cs_id = i; cs_enc_chunk = (fun c -> Hashtbl.find tbl c); cs_wires = wires })

(* The delivery trace: [n_conns] connections of [wires_per_conn]
   pre-encrypted window-token packets each, on generated Emerging Threats
   rules.  [counters] gates the smoke trace's index probe slots. *)
type trace = {
  rules : Rule.t list;
  n_chunks : int;
  conns : conn_setup array;
  wires_per_conn : int;
}

let trace ~smoke =
  let n_conns = if smoke then 4 else 8 in
  let wires_per_conn = if smoke then 64 else 128 in
  let rules =
    Datasets.generate Datasets.Emerging_threats ~n:(if smoke then 50 else 200)
  in
  let chunks = Bbx_mbox.Engine.distinct_chunks rules in
  { rules; n_chunks = Array.length chunks;
    conns = build_conns ~conns:n_conns ~wires_per_conn ~chunks; wires_per_conn }

(* One measured run: fresh pool (register untimed), timed submit+drain of
   the round-robin interleaved trace, stats for the determinism check. *)
let run_once ~domains { rules; conns; wires_per_conn; _ } =
  let ruleset = Bbx_mbox.Engine.ruleset rules in
  Bbx_mbox.Shardpool.with_pool ~domains Bbx_mbox.Engine.default_config (fun pool ->
      Array.iter
        (fun c ->
           Bbx_mbox.Shardpool.register pool ~conn_id:c.cs_id ~salt0:0
             ~direction:"client->server" (fun () ->
               Bbx_mbox.Engine.keys ruleset ~enc_chunk:c.cs_enc_chunk))
        conns;
      ignore (Bbx_mbox.Shardpool.stats pool : Bbx_mbox.Shardpool.stats); (* quiesce *)
      let t0 = Unix.gettimeofday () in
      for w = 0 to wires_per_conn - 1 do
        Array.iter
          (fun c ->
             ignore (Bbx_mbox.Shardpool.submit pool ~conn_id:c.cs_id c.cs_wires.(w) : int))
          conns
      done;
      Bbx_mbox.Shardpool.drain pool ~f:(fun ~seq:_ ~conn_id:_ _ -> ());
      let dt = Unix.gettimeofday () -. t0 in
      (dt, Bbx_mbox.Shardpool.stats pool))

let run () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  Bench_util.section
    (if smoke then "Shardpool domain scaling (smoke)"
     else "Shardpool domain scaling at 1/2/4 domains");
  let cores = Domain.recommended_domain_count () in
  let tr = trace ~smoke in
  let n_conns = Array.length tr.conns in
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let rounds = 3 in
  Printf.printf
    "  workload: %d conns x %d wires of %d bytes (window tokens), %d chunks, %d cores\n%!"
    n_conns tr.wires_per_conn packet_bytes tr.n_chunks cores;

  (* interleaved best-of rounds: each round measures every domain count,
     so machine-wide drift hits all configurations alike *)
  let best = Hashtbl.create 4 in
  let stats_ref = ref None in
  for _round = 1 to rounds do
    List.iter
      (fun d ->
         let dt, stats = run_once ~domains:d tr in
         (match !stats_ref with
          | None -> stats_ref := Some stats
          | Some s0 ->
            if stats <> s0 then begin
              Printf.printf
                "  FAIL: stats diverge at %d domains (parallelism changed detection)\n" d;
              exit 1
            end);
         match Hashtbl.find_opt best d with
         | Some t when t <= dt -> ()
         | _ -> Hashtbl.replace best d dt)
      domain_counts
  done;

  let stats = Option.get !stats_ref in
  let tokens = stats.Bbx_mbox.Shard.total_tokens in
  let t1 = Hashtbl.find best 1 in
  let configs =
    List.map
      (fun d ->
         let t = Hashtbl.find best d in
         (d, t, float_of_int tokens /. t))
      domain_counts
  in
  List.iter
    (fun (d, t, rate) ->
       Printf.printf "  %d domain(s): %8.0f tokens/s  (%s, %.2fx)\n" d rate
         (Bench_util.fmt_seconds t) (t1 /. t))
    configs;
  let speedup d =
    Option.map (fun (_, t, _) -> t1 /. t)
      (List.find_opt (fun (d', _, _) -> d' = d) configs)
  in
  let s2 = speedup 2 and s4 = speedup 4 in

  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\"experiment\":\"parallel\",\"smoke\":%b,\"cores\":%d,\"conns\":%d,\"tokens\":%d,\"configs\":["
    smoke cores n_conns tokens;
  List.iteri
    (fun i (d, t, rate) ->
       Printf.fprintf oc "%s{\"domains\":%d,\"seconds\":%.6f,\"tokens_per_sec\":%.0f}"
         (if i > 0 then "," else "") d t rate)
    configs;
  Printf.fprintf oc "]";
  Option.iter (Printf.fprintf oc ",\"speedup_2\":%.3f") s2;
  Option.iter (Printf.fprintf oc ",\"speedup_4\":%.3f") s4;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_parallel.json\n";

  (* gates *)
  let failed = ref false in
  (match s2 with
   | Some s when cores >= 2 ->
     if s > gate_2 then
       Bench_util.note "acceptance: %.2fx at 2 domains (> %.1fx gate)" s gate_2
     else begin
       Printf.printf "  FAIL: %.2fx at 2 domains (gate: > %.1fx on %d cores)\n" s gate_2 cores;
       failed := true
     end
   | Some s -> Bench_util.note "1-core machine: 2-domain gate skipped (measured %.2fx)" s
   | None -> ());
  (match s4 with
   | Some s when cores >= 4 ->
     if s >= gate_4 then
       Bench_util.note "acceptance: %.2fx at 4 domains (>= %.1fx gate)" s gate_4
     else begin
       Printf.printf "  FAIL: %.2fx at 4 domains (gate: >= %.1fx on %d cores)\n" s gate_4 cores;
       failed := true
     end
   | Some s ->
     Bench_util.note "%d-core machine: 4-domain gate skipped (measured %.2fx)" cores s
   | None -> ());
  if !failed then exit 1
