(* Fleet-scale connection state: one tenant, many connections.

   Measures what the shared-rule-preparation refactor is for:

   - {b setup}: [Session.Fleet.establish] must run rule preparation
     exactly once regardless of connection count — pinned by the
     [bbx_session_rule_prep] span count (enforced gate at every size);
   - {b footprint}: resident bytes per connection, measured two ways —
     a GC live-words delta around [establish] (whole-process truth:
     sender state + shard state + table overhead) and the middlebox's
     own accounting ([Fleet.conn_bytes], the [bbx_conn_bytes] gauge).
     The GC number gates at <= 64 KiB/conn (enforced, exit 1);
   - {b steady state}: tokens/s over a sampled subset of connections
     once the fleet is up (floor gate skipped with a note on a 1-core
     host, like every throughput gate in this suite);
   - {b migration}: a live connection is migrated across shards and the
     fleet rebalanced mid-run — verdict accounting must not change
     (stats are invariant under migration);
   - {b rule update}: right after the establish weigh, one
     [Fleet.update_rules] adding 5 rules, then one removing 1; both
     footprints are weighed again and the GC gate applies to the
     post-update figure too (every connection must move onto the shared
     next generation, not a private copy).  It runs before the steady
     state because driving traffic leaves each sampled sender's
     token-key cache resident (~440 KB/conn averaged over a 1k fleet),
     which would swamp the connection-state figure the gate is for; the
     steady state and migration then run on the updated fleet.

   Sizes: 1k connections in --smoke (the CI gate), 1k/10k/100k in full
   mode.  Results land in BENCH_fleet.json for the CI artifact. *)

open Bbx_crypto
open Bbx_rules
module Session = Blindbox.Session

let bytes_per_conn_gate = 64 * 1024
let tokens_per_sec_floor = 50_000.0
let packet_bytes = 1500
let sample_min = 256
let wires_per_sample = 8

let cfg =
  { Session.default_config with Session.rule_prep = Session.Direct }

let obs_rule_prep = Bbx_obs.Obs.span "bbx_session_rule_prep"

type size_result = {
  sr_conns : int;
  sr_establish_s : float;
  sr_prep_spans : int;            (* rule preparations during establish *)
  sr_bytes_per_conn : int;        (* GC live delta / conns *)
  sr_accounted_per_conn : int;    (* Fleet.conn_bytes / conns *)
  sr_updated_bytes_per_conn : int;      (* the same two after the update *)
  sr_updated_accounted_per_conn : int;
  sr_tokens : int;
  sr_steady_s : float;
  sr_tokens_per_sec : float;
}

let live_bytes () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* One fleet size: establish, weigh, drive a sampled steady state, then
   migrate + rebalance under load. *)
let run_size ~rules ~update ~conns =
  let drbg = Drbg.create (Printf.sprintf "bench-fleet-%d" conns) in
  let payloads =
    Array.init wires_per_sample (fun _ ->
        String.sub (Bbx_net.Page.gen_html drbg ~bytes:(2 * packet_bytes)) 0 packet_bytes)
  in
  let base = live_bytes () in
  let spans0 = Bbx_obs.Obs.span_count obs_rule_prep in
  let t0 = Unix.gettimeofday () in
  let fleet = Session.Fleet.establish ~config:cfg ~domains:2 ~conns ~rules () in
  let establish_s = Unix.gettimeofday () -. t0 in
  let prep_spans = Bbx_obs.Obs.span_count obs_rule_prep - spans0 in
  Fun.protect ~finally:(fun () -> Session.Fleet.shutdown fleet) @@ fun () ->
  let accounted = Session.Fleet.conn_bytes fleet in
  let resident = live_bytes () - base in
  let bytes_per_conn = max 0 resident / conns in
  update fleet;
  (* conn_bytes quiesces every shard, so the update has run before the
     GC weighs the process *)
  let updated_accounted = Session.Fleet.conn_bytes fleet in
  let updated_resident = live_bytes () - base in

  (* steady state over a sample: big fleets are weighed in full, driven
     in sample (driving 100k connections measures the driver, not the
     middlebox) *)
  let sample = min conns sample_min in
  let stats0 = Session.Fleet.stats fleet in
  let t0 = Unix.gettimeofday () in
  for w = 0 to wires_per_sample - 1 do
    for c = 0 to sample - 1 do
      ignore (Session.Fleet.submit fleet ~conn:c payloads.(w) : int)
    done
  done;
  Session.Fleet.drain fleet ~f:(fun ~seq:_ ~conn_id:_ _ -> ());
  let steady_s = Unix.gettimeofday () -. t0 in
  let stats1 = Session.Fleet.stats fleet in
  let tokens =
    stats1.Bbx_mbox.Shard.total_tokens - stats0.Bbx_mbox.Shard.total_tokens
  in

  (* migration under load: move a driven connection to the other shard,
     rebalance, keep driving — totals must keep accruing on the moved
     connection and nothing may double-count *)
  let flow0 = Session.Fleet.flow_stats fleet ~conn:0 in
  let dst = (Session.Fleet.conn_shard fleet ~conn:0 + 1) mod Session.Fleet.domains fleet in
  Session.Fleet.migrate fleet ~conn:0 ~shard:dst;
  ignore (Session.Fleet.rebalance fleet : int);
  ignore (Session.Fleet.submit fleet ~conn:0 payloads.(0) : int);
  Session.Fleet.drain fleet ~f:(fun ~seq:_ ~conn_id:_ _ -> ());
  let flow1 = Session.Fleet.flow_stats fleet ~conn:0 in
  if flow1.Bbx_mbox.Shard.flow_tokens <= flow0.Bbx_mbox.Shard.flow_tokens then begin
    Printf.printf "  FAIL: migrated connection stopped accruing flow tokens\n";
    exit 1
  end;


  { sr_conns = conns;
    sr_establish_s = establish_s;
    sr_prep_spans = prep_spans;
    sr_bytes_per_conn = bytes_per_conn;
    sr_accounted_per_conn = accounted / conns;
    sr_updated_bytes_per_conn = max 0 updated_resident / conns;
    sr_updated_accounted_per_conn = updated_accounted / conns;
    sr_tokens = tokens;
    sr_steady_s = steady_s;
    sr_tokens_per_sec = float_of_int tokens /. steady_s }

let run () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  Bench_util.section
    (if smoke then "Fleet-scale connection state (smoke: 1k conns)"
     else "Fleet-scale connection state: 1k/10k/100k connections");
  let cores = Domain.recommended_domain_count () in
  let rules = Datasets.generate Datasets.Emerging_threats ~n:8 in
  (* the update: 5 more ET rules (sids past the base set's), then the
     second base rule retired *)
  let added =
    List.filteri (fun i _ -> i >= 8) (Datasets.generate Datasets.Emerging_threats ~n:13)
  in
  let gone = Option.get (List.nth rules 1).Rule.sid in
  let update fleet =
    Session.Fleet.update_rules fleet added;
    Session.Fleet.update_rules fleet ~remove_sids:[ gone ] []
  in
  let sizes = if smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  Printf.printf "  workload: %d rules, %d-byte packets, %d cores\n%!"
    (List.length rules) packet_bytes cores;

  let results = List.map (fun conns -> run_size ~rules ~update ~conns) sizes in
  List.iter
    (fun r ->
       Printf.printf
         "  %6d conns: establish %s (%d rule prep), %5d B/conn (GC) %5d B/conn \
          (accounted), steady %8.0f tokens/s\n"
         r.sr_conns
         (Bench_util.fmt_seconds r.sr_establish_s)
         r.sr_prep_spans r.sr_bytes_per_conn r.sr_accounted_per_conn
         r.sr_tokens_per_sec;
       Printf.printf
         "  %6d conns after +%d/-1 rules: %5d B/conn (GC) %5d B/conn (accounted)\n"
         r.sr_conns (List.length added) r.sr_updated_bytes_per_conn
         r.sr_updated_accounted_per_conn)
    results;

  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc
    "{\"experiment\":\"fleet\",\"smoke\":%b,\"cores\":%d,\"rules\":%d,\"bytes_per_conn_gate\":%d,\"sizes\":["
    smoke cores (List.length rules) bytes_per_conn_gate;
  List.iteri
    (fun i r ->
       Printf.fprintf oc
         "%s{\"conns\":%d,\"establish_seconds\":%.6f,\"rule_preps\":%d,\"bytes_per_conn\":%d,\"accounted_bytes_per_conn\":%d,\"updated_bytes_per_conn\":%d,\"updated_accounted_bytes_per_conn\":%d,\"tokens\":%d,\"steady_seconds\":%.6f,\"tokens_per_sec\":%.0f}"
         (if i > 0 then "," else "")
         r.sr_conns r.sr_establish_s r.sr_prep_spans r.sr_bytes_per_conn
         r.sr_accounted_per_conn r.sr_updated_bytes_per_conn
         r.sr_updated_accounted_per_conn r.sr_tokens r.sr_steady_s r.sr_tokens_per_sec)
    results;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_fleet.json\n";

  (* gates *)
  let failed = ref false in
  List.iter
    (fun r ->
       if r.sr_prep_spans <> 1 then begin
         Printf.printf
           "  FAIL: %d rule preparations for %d conns (shared prep must be O(1): exactly 1)\n"
           r.sr_prep_spans r.sr_conns;
         failed := true
       end;
       List.iter
         (fun (what, b) ->
            if b > bytes_per_conn_gate then begin
              Printf.printf "  FAIL: %d B/conn %s at %d conns (gate: <= %d B/conn)\n"
                b what r.sr_conns bytes_per_conn_gate;
              failed := true
            end)
         [ ("after establish", r.sr_bytes_per_conn);
           ("after the rule update", r.sr_updated_bytes_per_conn) ])
    results;
  if not !failed then begin
    Bench_util.note "acceptance: 1 rule prep per establish at every size";
    List.iter
      (fun r ->
         Bench_util.note
           "acceptance: %d B/conn at %d conns, %d after the rule update (<= %d gate)"
           r.sr_bytes_per_conn r.sr_conns r.sr_updated_bytes_per_conn
           bytes_per_conn_gate)
      results
  end;
  (match results with
   | r :: _ when cores >= 2 ->
     if r.sr_tokens_per_sec >= tokens_per_sec_floor then
       Bench_util.note "acceptance: %.0f tokens/s steady state (>= %.0f floor)"
         r.sr_tokens_per_sec tokens_per_sec_floor
     else begin
       Printf.printf "  FAIL: %.0f tokens/s steady state (floor: %.0f on %d cores)\n"
         r.sr_tokens_per_sec tokens_per_sec_floor cores;
       failed := true
     end
   | r :: _ ->
     Bench_util.note "1-core machine: throughput floor skipped (measured %.0f tokens/s)"
       r.sr_tokens_per_sec
   | [] -> ());
  if !failed then exit 1
