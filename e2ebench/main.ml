(* Payload-to-verdict benchmark through blindboxd.

   e2ebench/main.exe --workload NAME --seed N --seconds S --trace 0|1
                     --blindbox PATH-TO-blindbox_cli.exe

   Each run starts a fresh [blindbox serve --domains 1] child on a private
   Unix socket and drives it with the closed-loop client of {!Drive}.
   [--trace 0] measures the end-to-end metrics over [S] seconds; [--trace
   1] runs [S/2] seconds untraced and [S/2] seconds traced (flight
   recorder on, client spans, frame capture) and prints the per-layer
   table.  The last line of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}. *)

module Rule = Bbx_rules.Rule
module Wire = Bbx_wire.Wire
module Dpienc = Bbx_dpienc.Dpienc

(* ---------- arguments ---------- *)

type args = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
}

let usage msg =
  prerr_endline ("e2ebench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --blindbox EXE";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None and exe = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      (match Workload.find v with
       | Some w -> workload := Some w
       | None -> usage ("unknown workload " ^ v));
      go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--blindbox" :: v :: rest -> exe := Some v; go rest
    | [] -> ()
    | a :: _ -> usage ("bad argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace, !exe) with
  | Some workload, Some seed, Some seconds, Some trace, Some exe when seconds > 0. ->
    { workload; seed; seconds; trace; exe }
  | _ -> usage "missing or invalid argument"

(* ---------- statistics ---------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* linear interpolation between closest ranks *)
let quantile s p =
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median a = quantile (sorted a) 0.5

let sum_int f l = List.fold_left (fun acc x -> acc + f x) 0 l

let mean_int f l =
  match l with
  | [] -> nan
  | _ -> float_of_int (sum_int f l) /. float_of_int (List.length l)

(* ---------- one daemon lifetime ---------- *)

(* A host reading: when, and the hypervisor steal and total CPU ticks so
   far over all CPUs. *)
type mark = { m_ns : int; m_steal : int; m_total : int }

let mark () =
  let m_steal, m_total = Daemon_proc.steal () in
  { m_ns = Drive.now_ns (); m_steal; m_total }

type phase = {
  setups : Drive.conn list;            (* set-up-only connections *)
  measured : Drive.conn list;          (* connections of the timed phase *)
  writes : Drive.write array;          (* the timed phase's writes, in order *)
  t0_ns : int;                         (* the timed phase's bounds *)
  t1_ns : int;
  wall_s : float;
  steal_pct : float;                   (* hypervisor steal, share of CPU time *)
  marks : mark array;                  (* host readings about once a slice *)
  probes : float array;                (* host-speed probe times, ns *)
  client_cpu_s : float;
  daemon_cpu_s : float;
  rss_mib : float;
  trace : (string * int * int, int) Hashtbl.t option;
  conn_bytes : float;
  notes : string list;                 (* run-level failures *)
}

(* The timed phase is cut into slices of about this length, at the first
   verdict after each boundary; see {!calm}. *)
let slice_ns = 1_000_000_000

(* hypervisor steal between two readings, % of all CPU ticks *)
let steal_pct a b =
  let tot = b.m_total - a.m_total in
  if tot > 0 then 100. *. float_of_int (b.m_steal - a.m_steal) /. float_of_int tot else 0.

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let run_daemon a (inputs : Workload.inputs) ~dir ~rules_file ~tag ~seconds ~traced =
  let w = inputs.Workload.w in
  let trace_out =
    if traced then Some (Filename.concat dir (tag ^ ".trace.jsonl")) else None
  in
  let d =
    Daemon_proc.start ~exe:a.exe ~dir ~tag ~rules_file
      ~probable:(w.Workload.mode = Dpienc.Probable) ?trace_out ()
  in
  let notes = ref [] in
  let on_first_conn rules =
    if List.map Rule.to_string rules <> List.map Rule.to_string inputs.Workload.rules then
      notes := "daemon announced a different ruleset" :: !notes
  in
  let endpoint = Daemon_proc.endpoint d in
  let ctx = Drive.create_ctx ~inputs ~endpoint ~seed:a.seed ~traced in
  let conn_bytes = ref nan in
  let hook _ =
    if traced then
      conn_bytes :=
        (try Layers.scrape_conn_bytes endpoint
         with Bbx_daemon.Client.Server_error _ | Unix.Unix_error _ | End_of_file -> nan)
  in
  let pid = d.Daemon_proc.pid in
  let setups, measured, t0_ns, t1_ns, client_cpu_s, daemon_cpu_s, rss_mib, (marks, probes) =
    Fun.protect ~finally:(fun () -> Daemon_proc.stop d) (fun () ->
        (* set-up-only samples on both sides of the timed phase, so the
           set-up median spans the run rather than its first second *)
        let sample n = List.init n (fun _ -> Drive.setup_only ctx ~on_first_conn) in
        let before = sample (w.Workload.setup_samples / 2) in
        let d0 = Daemon_proc.cpu_seconds pid and c0 = client_cpu () in
        let probes = ref [ Probe.once () ] and last_probe = ref (Drive.now_ns ()) in
        let m0 = mark () in
        let t0 = m0.m_ns in
        let marks = ref [ m0 ] in
        ctx.Drive.after_write <-
          (fun () ->
             let t = Drive.now_ns () in
             if t - (List.hd !marks).m_ns >= slice_ns then marks := mark () :: !marks;
             if t - !last_probe >= Probe.every_ns then begin
               last_probe := t;
               probes := Probe.once () :: !probes
             end);
        let measured =
          Drive.run_phase ctx ~deadline:(t0 + int_of_float (seconds *. 1e9))
            ~on_first_conn ~hook
        in
        ctx.Drive.after_write <- ignore;
        let m1 = mark () in
        let t1 = m1.m_ns in
        let d1 = Daemon_proc.cpu_seconds pid and c1 = client_cpu () in
        let rss = Daemon_proc.peak_rss_mib pid in
        let after = sample (w.Workload.setup_samples - List.length before) in
        let marks = Array.of_list (List.rev (m1 :: !marks)) in
        let probes = Array.of_list (List.map float_of_int !probes) in
        (before @ after, measured, t0, t1, c1 -. c0, d1 -. d0, rss, (marks, probes)))
  in
  (* the flight recorder is dumped at daemon teardown *)
  let trace =
    Option.map
      (fun f ->
         let t = Layers.load_trace f in
         Daemon_proc.remove f;
         t)
      trace_out
  in
  Daemon_proc.remove d.Daemon_proc.log;
  { setups; measured; writes = Array.of_list (List.rev ctx.Drive.writes); t0_ns; t1_ns;
    wall_s = float_of_int (t1_ns - t0_ns) /. 1e9;
    steal_pct = steal_pct marks.(0) marks.(Array.length marks - 1); marks; probes;
    client_cpu_s; daemon_cpu_s;
    rss_mib; trace; conn_bytes = !conn_bytes; notes = !notes }

(* ---------- correctness ---------- *)

type verdict_check = {
  mutable attempted : int;
  mutable failed : int;
  mutable details : (Bbx_mbox.Engine.detail * int) list;   (* alerts per detail *)
  mutable messages : string list;
}

let bump_detail chk d =
  let n = Option.value (List.assoc_opt d chk.details) ~default:0 in
  chk.details <- (d, n + 1) :: List.remove_assoc d chk.details

(* Every connection's verdicts against the plaintext oracle over its
   stream: a miss, an extra verdict, a wrong planted detail, an ERROR, a
   drop or a missing verdict each count as one failed operation. *)
let check (inputs : Workload.inputs) chk (conns : Drive.conn list) =
  List.iter
    (fun (c : Drive.conn) ->
       chk.attempted <- chk.attempted + 1 + c.Drive.attempted;
       let fail m =
         chk.failed <- chk.failed + 1;
         if List.length chk.messages < 8 then
           chk.messages <- Printf.sprintf "conn %d: %s" c.Drive.index m :: chk.messages
       in
       List.iter fail c.Drive.failures;
       (* writes whose verdict never came back *)
       let replied = List.length c.Drive.verdicts in
       if c.Drive.failures = [] && replied < c.Drive.attempted then
         fail (Printf.sprintf "%d verdicts missing" (c.Drive.attempted - replied));
       if c.Drive.setup_ns >= 0 then begin
         let plan = inputs.Workload.plans.(c.Drive.index mod Array.length inputs.Workload.plans) in
         let stream = String.concat "" (Array.to_list (Array.sub plan.Workload.writes 0 replied)) in
         let expected = Workload.expected inputs.Workload.oracle stream in
         let got =
           List.concat_map (fun (_, _, vs) -> vs) c.Drive.verdicts
         in
         List.iter (fun v -> bump_detail chk v.Wire.v_detail) got;
         let got_sids = List.sort compare (List.map (fun v -> v.Wire.v_sid) got) in
         let rec dups = function
           | a :: (b :: _ as rest) -> (if a = b then 1 else 0) + dups rest
           | _ -> 0
         in
         for _ = 1 to dups got_sids do fail "rule reported twice" done;
         let got_sids = List.sort_uniq compare got_sids in
         List.iter
           (fun s -> if not (List.mem s got_sids) then fail (Printf.sprintf "missed sid %d" s))
           expected;
         List.iter
           (fun s -> if not (List.mem s expected) then fail (Printf.sprintf "extra sid %d" s))
           got_sids;
         List.iter
           (fun (sid, detail, at) ->
              if at < replied then
                match List.find_opt (fun v -> v.Wire.v_sid = sid) got with
                | Some v when v.Wire.v_detail <> detail ->
                  fail
                    (Printf.sprintf "planted sid %d came back %s, want %s" sid
                       (Bbx_mbox.Engine.detail_name v.Wire.v_detail)
                       (Bbx_mbox.Engine.detail_name detail))
                | Some _ -> ()
                | None -> if not (List.mem sid expected) then fail (Printf.sprintf "planted sid %d not expected" sid))
           plan.Workload.planted
       end)
    conns

(* ---------- output ---------- *)

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
          Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
       ms)

let print_result ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (metrics_json ms)

let print_table ms =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %14.4f %s\n" name v unit) ms

(* The calm slices of a timed phase.  Hypervisor steal on the test host
   comes in bursts that stretch wall time but not CPU time, and how much
   of a run they cover varies from run to run.  The wall-clock figures
   (goodput, p50, p90) are therefore taken over the slices whose steal
   share is at most the median slice's: the calmer half of the phase, or
   more when many slices saw no steal.  Which slices are calm depends on
   the host, not on the program.  The steal left in them is taken out of
   their wall time (see {!over_slices}).  The CPU and byte figures take
   the whole phase.  Returns the selected slices as pairs of marks. *)
let calm p =
  let n = Array.length p.marks - 1 in
  let slice i = (p.marks.(i), p.marks.(i + 1)) in
  let share i = steal_pct p.marks.(i) p.marks.(i + 1) in
  let cut = median (Array.init n share) in
  List.filter_map (fun i -> if share i <= cut then Some (slice i) else None) (List.init n Fun.id)

type over = {
  o_goodput : float;                   (* Mbit/s *)
  o_p50 : float;                       (* us *)
  o_p90 : float;                       (* us *)
  o_writes : int;
  o_seconds : float;                   (* wall time of the slices *)
  o_stolen_s : float;                  (* steal within them *)
}

(* Slices with fewer verdicts give no quantiles; the phase's last slice
   can be a few milliseconds long. *)
let min_slice_writes = 10

(* The figures of the writes whose verdict came back in [slices], with
   each slice's steal taken out: the slice's stolen seconds (steal ticks
   over all CPUs) come off its wall time, and each write's latency is cut
   by the slice's stolen share.  With one write in flight, the program
   runs on one vCPU at a time, so steal delays the write in progress.

   p50 and p90 are each slice's quantile, averaged over the slices.
   ruleset-3k's write latencies are bimodal by connection (about 3 and
   5.5 ms) and the share of each mode follows the host, so a quantile
   over the whole run jumps between the modes as that share crosses a
   half (p50 3.6 against 5.0 ms in ten runs); the mean of the slices'
   quantiles moves smoothly with it. *)
let over_slices p slices =
  let stolen (a, b) = float_of_int (b.m_steal - a.m_steal) /. Daemon_proc.clk_tck in
  let wall (a, b) = float_of_int (b.m_ns - a.m_ns) /. 1e9 in
  let writes = Array.to_list p.writes in
  let per_slice =
    List.map
      (fun ((a, b) as sl) ->
         let ws = List.filter (fun x -> x.Drive.w_done_ns >= a.m_ns && x.Drive.w_done_ns < b.m_ns) writes in
         let kept = Float.max 0. (1. -. (stolen sl /. wall sl)) in
         ( List.fold_left (fun acc x -> acc + x.Drive.w_bytes) 0 ws,
           sorted (Array.of_list (List.map (fun x -> float_of_int x.Drive.w_lat_ns /. 1e3 *. kept) ws)) ))
      slices
  in
  let quantiles = List.filter (fun (_, lat) -> Array.length lat >= min_slice_writes) per_slice in
  let mean_q q =
    List.fold_left (fun acc (_, lat) -> acc +. quantile lat q) 0. quantiles
    /. float_of_int (List.length quantiles)
  in
  let sum f = List.fold_left (fun acc sl -> acc +. f sl) 0. slices in
  let seconds = sum wall and stolen_s = sum stolen in
  let bytes = List.fold_left (fun acc (b, _) -> acc + b) 0 per_slice in
  { o_goodput = float_of_int bytes *. 8. /. (seconds -. stolen_s) /. 1e6;
    o_p50 = mean_q 0.5;
    o_p90 = mean_q 0.9;
    o_writes = List.fold_left (fun acc (_, lat) -> acc + Array.length lat) 0 per_slice;
    o_seconds = seconds;
    o_stolen_s = stolen_s }

(* end-to-end figures of one timed phase *)
let end_to_end p =
  let bytes = sum_int (fun c -> c.Drive.bytes) p.measured in
  let fb = float_of_int (max 1 bytes) in
  let lat = sorted (Array.map (fun w -> float_of_int w.Drive.w_lat_ns /. 1e3) p.writes) in
  let setups =
    List.filter_map
      (fun c -> if c.Drive.setup_ns >= 0 then Some (float_of_int c.Drive.setup_ns /. 1e9) else None)
      (p.setups @ p.measured)
  in
  let wire = sum_int (fun c -> c.Drive.wire_out) p.measured in
  let slices = calm p in
  let c = over_slices p slices in
  let raw =
    [ ("goodput_mbps", c.o_goodput, "Mbit/s");
      ("verdict_p50_us", c.o_p50, "us");
      ("verdict_p90_us", c.o_p90, "us");
      ("setup_s", median (Array.of_list setups), "s");
      ("endpoint_cpu_ns_per_byte", p.client_cpu_s *. 1e9 /. fb, "ns/B");
      ("mbox_cpu_ns_per_byte", p.daemon_cpu_s *. 1e9 /. fb, "ns/B") ]
  in
  (* every time figure at the probe's nominal host speed; goodput is a
     rate, so it scales the other way *)
  let speed = Probe.nominal_ns /. median p.probes in
  let scaled =
    List.map
      (fun (n, v, u) -> (n, (if n = "goodput_mbps" then v /. speed else v *. speed), u))
      raw
  in
  ( scaled
    @ [ ("wire_bytes_per_plain_byte", float_of_int wire /. fb, "B/B");
        ("mbox_rss_mib", p.rss_mib, "MiB") ],
    raw,
    speed,
    (* the wall-clock figures over the whole phase, for the report *)
    [ ("goodput_mbps", fb *. 8. /. p.wall_s /. 1e6, "Mbit/s");
      ("verdict_p50_us", quantile lat 0.5, "us");
      ("verdict_p90_us", quantile lat 0.9, "us");
      ("verdict_p99_us", quantile lat 0.99, "us") ],
    (Array.length lat, List.length setups, bytes),
    (List.length slices, Array.length p.marks - 1, c) )

(* ---------- per-layer table ---------- *)

let per_layer (inputs : Workload.inputs) ~untraced ~traced ~replay_deadline =
  let w = inputs.Workload.w in
  let ws = traced.writes in
  let n = Array.length ws in
  let tot f = float_of_int (Array.fold_left (fun acc x -> acc + f x) 0 ws) in
  let bytes = tot (fun x -> x.Drive.w_bytes) and tokens = tot (fun x -> x.Drive.w_tokens) in
  let alloc = Array.fold_left (fun acc x -> acc +. x.Drive.w_alloc) 0. ws in
  let trace = Option.get traced.trace in
  (* join client writes with the daemon's phases on (conn, seq) *)
  let joined = ref 0 and lat_sum = ref 0 and phase_sum = Array.make 5 0
  and unattr_neg = ref 0 and enc_sum = ref 0 and seal_sum = ref 0 in
  Array.iter
    (fun x ->
       let durs =
         List.map (fun ph -> Hashtbl.find_opt trace (ph, x.Drive.w_conn, x.Drive.w_seq))
           Layers.phases
       in
       if List.for_all Option.is_some durs then begin
         let durs = List.map Option.get durs in
         incr joined;
         lat_sum := !lat_sum + x.Drive.w_lat_ns;
         enc_sum := !enc_sum + x.Drive.w_enc_ns;
         seal_sum := !seal_sum + x.Drive.w_seal_ns;
         List.iteri (fun i d -> phase_sum.(i) <- phase_sum.(i) + d) durs;
         let u = x.Drive.w_lat_ns - x.Drive.w_enc_ns - x.Drive.w_seal_ns - List.fold_left ( + ) 0 durs in
         if u < 0 then incr unattr_neg
       end)
    ws;
  let jn = float_of_int (max 1 !joined) in
  let phase_us i = float_of_int phase_sum.(i) /. jn /. 1e3 in
  let unattributed =
    (float_of_int (!lat_sum - !enc_sum - !seal_sum) -. float_of_int (Array.fold_left ( + ) 0 phase_sum))
    /. jn /. 1e3
  in
  let conns = List.filter (fun c -> c.Drive.setup_ns >= 0) (traced.setups @ traced.measured) in
  let span f = mean_int f conns /. 1e6 in
  let r = Layers.replay inputs (traced.setups @ traced.measured) ~deadline_ns:replay_deadline in
  let rt = float_of_int (max 1 r.Layers.r_tokens) in
  let g p = float_of_int (sum_int (fun c -> c.Drive.bytes) p.measured) *. 8. /. p.wall_s /. 1e6 in
  let ms =
    [ ("tokenizer.ns_per_byte", tot (fun x -> x.Drive.w_tok_ns) /. bytes, "ns/B");
      ("dpienc.ns_per_byte", tot (fun x -> x.Drive.w_enc_ns) /. bytes, "ns/B");
      ("dpienc.alloc_bytes_per_token", alloc /. tokens, "B/token");
      ("dpienc.tokens_per_byte", tokens /. bytes, "token/B");
      ("tls.seal_ns_per_byte", tot (fun x -> x.Drive.w_seal_ns) /. bytes, "ns/B");
      ("wire.roundtrip_us", tot (fun x -> x.Drive.w_rt_ns) /. float_of_int (max 1 n) /. 1e3, "us");
      ("client.hello_ms", span (fun c -> c.Drive.sp_hello), "ms");
      ("tls.handshake_ms", span (fun c -> c.Drive.sp_handshake), "ms");
      ("client.pairs_ms", span (fun c -> c.Drive.sp_pairs), "ms");
      ("client.rule_setup_ms", span (fun c -> c.Drive.sp_rule_setup), "ms");
      ("shard.engine_ready_ms", span (fun c -> c.Drive.sp_engine_ready), "ms");
      ("wire.setup_bytes", mean_int (fun c -> c.Drive.setup_wire) conns, "B");
      ("daemon.read_us", phase_us 0, "us");
      ("daemon.validate_us", phase_us 1, "us");
      ("shard.queue_wait_us", phase_us 2, "us");
      ("shard.service_us", phase_us 3, "us");
      ("daemon.write_us", phase_us 4, "us");
      ("unattributed_us", unattributed, "us");
      ("detect.ns_per_token", float_of_int r.Layers.r_detect_ns /. rt, "ns/token");
      ("detect.hits_per_mtoken", float_of_int r.Layers.r_hits /. rt *. 1e6, "hits/Mtoken");
      ("mbox.verdicts_us",
       float_of_int r.Layers.r_verdicts_ns /. float_of_int (max 1 r.Layers.r_deliveries) /. 1e3,
       "us");
      ("mbox.escalation_us",
       (if r.Layers.r_esc_deliveries = 0 then 0.
        else float_of_int r.Layers.r_esc_ns /. float_of_int r.Layers.r_esc_deliveries /. 1e3),
       "us");
      ("mbox.engine_create_ms",
       float_of_int r.Layers.r_create_ns /. float_of_int (max 1 r.Layers.r_conns) /. 1e6, "ms");
      ("mbox.conn_bytes", traced.conn_bytes, "B");
      ("trace.overhead_pct", (g untraced -. g traced) /. g untraced *. 100., "%") ]
  in
  (* the workload's purpose, from the table *)
  let mean_lat = float_of_int !lat_sum /. jn /. 1e3 in
  let purpose =
    match w.Workload.name with
    | "bulk-window" ->
      ( "sender (dpienc) + detect (shard service) share of write latency",
        ((float_of_int !enc_sum /. jn /. 1e3) +. phase_us 3) /. mean_lat )
    | "ruleset-3k" ->
      let deliveries = sum_int (fun c -> 1 + c.Drive.written) traced.measured in
      let setup_s = float_of_int (sum_int (fun c -> max 0 c.Drive.setup_ns) traced.measured) /. 1e9 in
      let verdicts_s =
        float_of_int r.Layers.r_verdicts_ns /. float_of_int (max 1 r.Layers.r_deliveries)
        *. float_of_int deliveries /. 1e9
      in
      ("set-up + mbox.verdicts share of wall time", (setup_s +. verdicts_s) /. traced.wall_s)
    | _ ->
      ( "escalation share of replayed shard time",
        float_of_int r.Layers.r_esc_ns
        /. float_of_int (max 1 (r.Layers.r_record_ns + r.Layers.r_detect_ns + r.Layers.r_verdicts_ns)) )
  in
  (ms, r, purpose, (!joined, n, !unattr_neg), unattributed)

(* Per-write spans of the traced phase, joined with the daemon's phases on
   (conn, seq), one JSON object per line. *)
let write_spans path (p : phase) =
  let trace = Option.get p.trace in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Array.iter
        (fun (x : Drive.write) ->
           let phase ph =
             match Hashtbl.find_opt trace (ph, x.Drive.w_conn, x.Drive.w_seq) with
             | Some d -> Printf.sprintf ",\"%s_ns\":%d" ph d
             | None -> ""
           in
           Printf.fprintf oc
             "{\"conn\":%d,\"seq\":%d,\"bytes\":%d,\"tokens\":%d,\"latency_ns\":%d,\
              \"tokenizer_ns\":%d,\"dpienc_ns\":%d,\"dpienc_alloc_bytes\":%.0f,\"seal_ns\":%d,\
              \"roundtrip_ns\":%d%s}\n"
             x.Drive.w_conn x.Drive.w_seq x.Drive.w_bytes x.Drive.w_tokens x.Drive.w_lat_ns
             x.Drive.w_tok_ns x.Drive.w_enc_ns x.Drive.w_alloc x.Drive.w_seal_ns x.Drive.w_rt_ns
             (String.concat "" (List.map phase Layers.phases)))
        p.writes)

(* ---------- main ---------- *)

let () =
  (* a signal still stops the daemon: exit runs the at_exit cleanup *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let a = parse_args () in
  let w = a.workload in
  Drive.check_frame_sizes ();
  let load0 = Daemon_proc.loadavg () in
  let dir = Filename.concat ".e2ebench-run" (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir ".e2ebench-run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let rules_file = Filename.concat dir "rules.txt" in
  at_exit (fun () ->
      Daemon_proc.remove rules_file;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      try Unix.rmdir ".e2ebench-run" with Unix.Unix_error _ -> ());
  let t_gen = Drive.now_ns () in
  let inputs = Workload.generate w ~seed:a.seed in
  let oc = open_out_bin rules_file in
  output_string oc inputs.Workload.rules_text;
  output_char oc '\n';
  close_out oc;
  Printf.printf "# workload %s, seed %d, %.0f s%s: %s\n" w.Workload.name a.seed a.seconds
    (if a.trace then ", traced" else "") w.Workload.why;
  Printf.printf "# inputs: %d rules, %d planned connections, generated in %.2f s\n%!"
    (List.length inputs.Workload.rules) (Array.length inputs.Workload.plans)
    (float_of_int (Drive.now_ns () - t_gen) /. 1e9);
  let chk = { attempted = 0; failed = 0; details = []; messages = [] } in
  let finish ~correct ms =
    List.iter (fun m -> Printf.printf "# failure: %s\n" m) (List.rev chk.messages);
    Printf.printf "# host: nproc %d, loadavg %s at start, %s at end\n" (Daemon_proc.nproc ())
      load0 (Daemon_proc.loadavg ());
    let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
    let ms = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) ms in
    print_result ~correct:(correct && finite && chk.failed = 0)
      ~attempted:(max 1 chk.attempted) ~failed:chk.failed ms
  in
  let note_run p =
    List.iter
      (fun m -> chk.failed <- chk.failed + 1; chk.messages <- m :: chk.messages)
      p.notes;
    check inputs chk (p.setups @ p.measured)
  in
  if not a.trace then begin
    let p = run_daemon a inputs ~dir ~rules_file ~tag:"run" ~seconds:a.seconds ~traced:false in
    note_run p;
    let ms, raw, speed, whole, (nlat, nsetup, bytes), (ncalm, nslices, c) = end_to_end p in
    Printf.printf "# %d writes, %d connections timed (%d set-ups sampled), %d plaintext bytes in %.2f s\n"
      nlat (List.length p.measured) nsetup bytes p.wall_s;
    Printf.printf "# goodput, p50 and p90: the %d calmest of %d slices (%.1f s, %d writes), \
                   p50 and p90 as the mean of the slices' quantiles; \
                   set-up: median over connections\n"
      ncalm nslices c.o_seconds c.o_writes;
    print_table ms;
    Printf.printf "# host-speed probe: median %.0f us over %d probes, nominal %.0f us; \
                   the time figures above are the unscaled ones below times %.4f \
                   (goodput divided by it)\n"
      (median p.probes /. 1e3) (Array.length p.probes) (Probe.nominal_ns /. 1e3) speed;
    print_table raw;
    Printf.printf "# over the whole phase, unscaled (n=%d writes; p99 is not an end-to-end metric):\n" nlat;
    print_table whole;
    Printf.printf "# hypervisor steal: %.1f%% of CPU time over the timed phase; \
                   %.2f s of the calm slices' %.1f s taken out\n"
      p.steal_pct c.o_stolen_s c.o_seconds;
    finish ~correct:true ms
  end
  else begin
    let half = a.seconds /. 2. in
    let untraced = run_daemon a inputs ~dir ~rules_file ~tag:"untraced" ~seconds:half ~traced:false in
    let traced = run_daemon a inputs ~dir ~rules_file ~tag:"traced" ~seconds:half ~traced:true in
    note_run untraced;
    note_run traced;
    let ms, r, (purpose_what, share), (joined, nw, neg), unattributed =
      per_layer inputs ~untraced ~traced ~replay_deadline:(Drive.now_ns () + 10_000_000_000)
    in
    let spans =
      Filename.concat ".e2ebench-run"
        (Printf.sprintf "spans-%s-seed%d.jsonl" w.Workload.name a.seed)
    in
    write_spans spans traced;
    let all = traced.setups @ traced.measured in
    Printf.printf "# per-layer table (traced run: %d writes, %d joined with the flight recorder)\n"
      nw joined;
    print_table ms;
    Printf.printf "# counts: writes %d, frames out %d / in %d, connections %d, tokens %d, \
                   replayed deliveries %d over %d connections, keyword hits %d, escalations %d\n"
      nw (sum_int (fun c -> c.Drive.frames_out) all) (sum_int (fun c -> c.Drive.frames_in) all)
      (List.length all) (Array.fold_left (fun acc x -> acc + x.Drive.w_tokens) 0 traced.writes)
      r.Layers.r_deliveries r.Layers.r_conns r.Layers.r_hits r.Layers.r_escalated_conns;
    Printf.printf "# spans: %s\n" spans;
    Printf.printf "# alerts per detail (both phases): %s\n"
      (String.concat ", "
         (List.map (fun (d, n) -> Printf.sprintf "%s %d" (Bbx_mbox.Engine.detail_name d) n)
            (List.sort compare chk.details)));
    Printf.printf "# hypervisor steal: %.1f%% of CPU time untraced, %.1f%% traced\n"
      untraced.steal_pct traced.steal_pct;
    Printf.printf "# replay: %d deliveries, %d verdict mismatches against the daemon\n"
      r.Layers.r_deliveries r.Layers.r_mismatches;
    Printf.printf "# unattributed: mean %.2f us, %d of %d writes negative\n" unattributed neg joined;
    Printf.printf "# purpose check: %s = %.3f (%s)\n" purpose_what share
      (if share > 0.5 then "holds" else "DOES NOT HOLD");
    let replay_ok = r.Layers.r_mismatches = 0 && r.Layers.r_conns > 0 in
    if r.Layers.r_mismatches > 0 then chk.failed <- chk.failed + r.Layers.r_mismatches;
    finish ~correct:(replay_ok && unattributed >= 0. && joined > 0) ms
  end
