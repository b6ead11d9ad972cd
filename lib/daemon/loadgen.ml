module Wire = Bbx_wire.Wire
module Dpienc = Bbx_dpienc.Dpienc
module Rule = Bbx_rules.Rule
module Drbg = Bbx_crypto.Drbg
module Page = Bbx_net.Page
module Obs = Bbx_obs.Obs

type cfg = {
  lg_endpoint : Daemon.endpoint;
  lg_conns : int;
  lg_sends : int;
  lg_rate : float;
  lg_inflight : int;
  lg_payload_bytes : int;
  lg_hit_rate : float;
  lg_mode : Dpienc.mode;
  lg_seed : string;
}

let cfg ?(conns = 4) ?(sends = 200) ?(rate = 0.) ?(inflight = 4)
    ?(payload_bytes = 1024) ?(hit_rate = 0.02) ?(mode = Dpienc.Exact)
    ?(seed = "loadgen") endpoint =
  if conns < 1 then invalid_arg "Loadgen.cfg: conns must be >= 1";
  if sends < 1 then invalid_arg "Loadgen.cfg: sends must be >= 1";
  if inflight < 1 then invalid_arg "Loadgen.cfg: inflight must be >= 1";
  { lg_endpoint = endpoint;
    lg_conns = conns;
    lg_sends = sends;
    lg_rate = rate;
    lg_inflight = inflight;
    lg_payload_bytes = payload_bytes;
    lg_hit_rate = hit_rate;
    lg_mode = mode;
    lg_seed = seed }

type report = {
  rp_conns : int;
  rp_sends : int;
  rp_clean : int;
  rp_alert_frames : int;
  rp_alerts : int;
  rp_dropped : int;
  rp_tokens : int;
  rp_elapsed_s : float;
  rp_sends_per_s : float;
  rp_tokens_per_s : float;
  rp_rtt_p50_us : float;
  rp_rtt_p95_us : float;
  rp_rtt_p99_us : float;
  rp_rtt_mean_us : float;
  rp_rtt_max_us : float;
  rp_qwait_p50_us : float;
  rp_qwait_p95_us : float;
  rp_qwait_p99_us : float;
  rp_service_p50_us : float;
  rp_service_p95_us : float;
  rp_service_p99_us : float;
}

let rtt_hist =
  lazy
    (Obs.histogram "bbx_loadgen_rtt_us"
       ~buckets:
         [| 50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000; 50000;
            100000; 250000; 1000000 |])

(* ---------- per-connection state ---------- *)

type conn = {
  c_client : Client.t;
  c_fd : Unix.file_descr;
  c_framer : Wire.Framer.t;
  c_frames : string array;      (* pre-encoded TOKEN_STREAM frames *)
  c_tokens : int array;         (* tokens per frame *)
  c_t_send : float array;       (* queued-for-write timestamp per seq *)
  mutable c_sent : int;         (* frames handed to the out queue *)
  mutable c_recvd : int;        (* verdicts received *)
  mutable c_outstanding : int;
  c_outq : string Queue.t;
  mutable c_out_off : int;      (* write offset into the queue head *)
}

(* Keywords that are safe to inject: Alert rules raise verdicts without
   blocking the connection, so every frame still gets inspected. *)
let alert_keywords rules =
  List.concat_map
    (fun r -> if r.Rule.action = Rule.Alert then Rule.keywords r else [])
    rules

(* Frame [j] is a hit iff adding it keeps hits <= hit_rate * frames —
   exact proportions, deterministic, spread across the run. *)
let is_hit ~hit_rate ~hits j =
  hit_rate > 0. && float_of_int (hits + 1) <= hit_rate *. float_of_int (j + 1)

let payloads cfg ~kws drbg =
  let kw_cursor = ref 0 in
  let hits = ref 0 in
  Array.init cfg.lg_sends (fun j ->
      let benign = Page.gen_html drbg ~bytes:cfg.lg_payload_bytes in
      if kws = [||] || not (is_hit ~hit_rate:cfg.lg_hit_rate ~hits:!hits j)
      then benign
      else begin
        incr hits;
        let kw = kws.(!kw_cursor mod Array.length kws) in
        incr kw_cursor;
        let cut = min (String.length benign / 2) (String.length benign) in
        String.sub benign 0 cut ^ kw
        ^ String.sub benign cut (String.length benign - cut)
      end)

let setup_conn cfg ~idx =
  let session =
    Client.establish cfg.lg_endpoint ~mode:cfg.lg_mode ~salt0:0
      ~seed:(Printf.sprintf "%s/conn%d" cfg.lg_seed idx)
  in
  let kws = Array.of_list (alert_keywords session.Client.sc_rules) in
  let drbg = Drbg.create (Printf.sprintf "%s/payload%d" cfg.lg_seed idx) in
  let pays = payloads cfg ~kws drbg in
  let sender =
    Dpienc.sender_create cfg.lg_mode session.Client.sc_key ~salt0:0
  in
  let k_ssl =
    match cfg.lg_mode with
    | Dpienc.Probable -> Some session.Client.sc_k_ssl
    | Dpienc.Exact -> None
  in
  let buf = Buffer.create (4 * cfg.lg_payload_bytes) in
  let tokens = Array.make cfg.lg_sends 0 in
  (* one connection is one stream: each frame's tokens carry their stream
     offsets, which offset/depth constraints are checked against *)
  let base = ref 0 in
  let frames =
    Array.mapi
      (fun j payload ->
        Buffer.clear buf;
        tokens.(j) <- Dpienc.sender_encrypt_into sender ?k_ssl ~base:!base payload buf;
        base := !base + String.length payload;
        Wire.encode_frame_string
          (Wire.Token_stream { seq = j; records = Buffer.contents buf }))
      pays
  in
  { c_client = session.Client.sc_client;
    c_fd = Client.fd session.Client.sc_client;
    c_framer = Client.framer session.Client.sc_client;
    c_frames = frames;
    c_tokens = tokens;
    c_t_send = Array.make cfg.lg_sends 0.;
    c_sent = 0;
    c_recvd = 0;
    c_outstanding = 0;
    c_outq = Queue.create ();
    c_out_off = 0 }

(* ---------- streaming phase ---------- *)

let flush_out c =
  let progress = ref true in
  while !progress && not (Queue.is_empty c.c_outq) do
    let head = Queue.peek c.c_outq in
    let len = String.length head - c.c_out_off in
    match
      Unix.write_substring c.c_fd head c.c_out_off len
    with
    | 0 -> progress := false
    | n ->
      if n = len then begin
        ignore (Queue.pop c.c_outq);
        c.c_out_off <- 0
      end
      else begin
        c.c_out_off <- c.c_out_off + n;
        progress := false
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      progress := false
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

type totals = {
  mutable t_clean : int;
  mutable t_alert_frames : int;
  mutable t_alerts : int;
  mutable t_dropped : int;
  mutable t_tokens : int;
  mutable t_done : int;
}

let handle_frame totals rtts c msg =
  match msg with
  | Wire.Verdict { seq; status; verdicts } ->
    if seq < 0 || seq >= Array.length c.c_t_send || c.c_t_send.(seq) = 0.
    then failwith "loadgen: verdict for an unsent frame";
    let rtt_us = (Unix.gettimeofday () -. c.c_t_send.(seq)) *. 1e6 in
    rtts := rtt_us :: !rtts;
    Obs.observe (Lazy.force rtt_hist) (int_of_float rtt_us);
    (match status with
     | Wire.Clean ->
       totals.t_clean <- totals.t_clean + 1;
       totals.t_tokens <- totals.t_tokens + c.c_tokens.(seq)
     | Wire.Alerts ->
       totals.t_alert_frames <- totals.t_alert_frames + 1;
       totals.t_alerts <- totals.t_alerts + List.length verdicts;
       totals.t_tokens <- totals.t_tokens + c.c_tokens.(seq)
     | Wire.Dropped -> totals.t_dropped <- totals.t_dropped + 1);
    c.c_recvd <- c.c_recvd + 1;
    c.c_outstanding <- c.c_outstanding - 1;
    totals.t_done <- totals.t_done + 1
  | Wire.Error { code; message } ->
    failwith (Printf.sprintf "loadgen: daemon error %d: %s" code message)
  | _ -> failwith "loadgen: unexpected message during streaming"

let stream cfg conns =
  let totals =
    { t_clean = 0; t_alert_frames = 0; t_alerts = 0; t_dropped = 0;
      t_tokens = 0; t_done = 0 }
  in
  let rtts = ref [] in
  let total = cfg.lg_conns * cfg.lg_sends in
  let scratch = Bytes.create 65536 in
  Array.iter (fun c -> Unix.set_nonblock c.c_fd) conns;
  let t0 = Unix.gettimeofday () in
  let next_at = ref t0 in
  let cursor = ref 0 in
  (* Start every frame the pacing and the inflight windows allow. *)
  let pump now =
    let continue = ref true in
    while !continue do
      if cfg.lg_rate > 0. && now < !next_at then continue := false
      else begin
        (* round-robin scan for a connection with send capacity *)
        let picked = ref None in
        let i = ref 0 in
        while !picked = None && !i < Array.length conns do
          let c = conns.((!cursor + !i) mod Array.length conns) in
          if c.c_sent < cfg.lg_sends && c.c_outstanding < cfg.lg_inflight
          then picked := Some c;
          incr i
        done;
        cursor := (!cursor + !i) mod Array.length conns;
        match !picked with
        | None -> continue := false
        | Some c ->
          c.c_t_send.(c.c_sent) <- now;
          Queue.push c.c_frames.(c.c_sent) c.c_outq;
          c.c_sent <- c.c_sent + 1;
          c.c_outstanding <- c.c_outstanding + 1;
          if cfg.lg_rate > 0. then begin
            (* don't bank unbounded catch-up credit after a stall *)
            if !next_at < now -. 0.1 then next_at := now;
            next_at := !next_at +. (1. /. cfg.lg_rate)
          end
      end
    done
  in
  while totals.t_done < total do
    let now = Unix.gettimeofday () in
    pump now;
    Array.iter flush_out conns;
    let rd =
      Array.to_list conns
      |> List.filter_map (fun c ->
             if c.c_recvd < cfg.lg_sends then Some c.c_fd else None)
    in
    let wr =
      Array.to_list conns
      |> List.filter_map (fun c ->
             if not (Queue.is_empty c.c_outq) then Some c.c_fd else None)
    in
    let timeout =
      if cfg.lg_rate > 0. && !next_at > now then
        Float.min 0.05 (!next_at -. now)
      else 0.05
    in
    let rd_ready, wr_ready, _ =
      try Unix.select rd wr [] timeout
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if List.memq c.c_fd wr_ready then flush_out c;
        if List.memq c.c_fd rd_ready then begin
          match Unix.read c.c_fd scratch 0 (Bytes.length scratch) with
          | 0 -> failwith "loadgen: daemon closed the connection"
          | n ->
            Wire.Framer.feed c.c_framer scratch 0 n;
            let rec drain () =
              match Wire.Framer.next c.c_framer with
              | Some msg -> handle_frame totals rtts c msg; drain ()
              | None -> ()
            in
            drain ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
            -> ()
        end)
      conns
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.iter (fun c -> Unix.clear_nonblock c.c_fd) conns;
  (totals, !rtts, elapsed)

(* ---------- daemon-side phase breakdown ----------

   The daemon exposes bbx_daemon_queue_wait_us / bbx_shard_service_us over
   METRICS_REQ.  Snapshot both histograms before and after the streaming
   phase and diff the bucket counts: the registry is cumulative (and, for
   in-process daemons, shared with our own metrics), so only the interval
   delta describes this run.  Parsing is a hand-rolled scanner keyed to
   Obs.dump_jsonl's exact emitter — no JSON dependency. *)

let parse_int_at s pos =
  let n = String.length s in
  let j = ref pos in
  while !j < n && (match s.[!j] with '0' .. '9' | '-' -> true | _ -> false) do
    Stdlib.incr j
  done;
  if !j = pos then None
  else Some (int_of_string (String.sub s pos (!j - pos)), !j)

let find_sub s pat from =
  let n = String.length s and pl = String.length pat in
  let rec go i =
    if i + pl > n then None
    else if String.sub s i pl = pat then Some (i + pl)
    else go (i + 1)
  in
  go from

(* [(finite bounds, all counts incl. +Inf)] for one histogram line. *)
let hist_snapshot body name =
  let prefix = Printf.sprintf {|{"metric":"%s","type":"histogram"|} name in
  match
    List.find_opt
      (fun l -> String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      (String.split_on_char '\n' body)
  with
  | None -> None
  | Some line ->
    let bounds = ref [] and counts = ref [] in
    let rec loop from =
      match find_sub line {|{"le":|} from with
      | None -> ()
      | Some p ->
        let bound =
          if p < String.length line && line.[p] = '"' then None (* "+Inf" *)
          else Option.map fst (parse_int_at line p)
        in
        (match find_sub line {|"count":|} p with
         | None -> ()
         | Some q ->
           (match parse_int_at line q with
            | None -> ()
            | Some (c, q') ->
              (match bound with Some b -> bounds := b :: !bounds | None -> ());
              counts := c :: !counts;
              loop q'))
    in
    loop 0;
    if !counts = [] then None
    else
      Some (Array.of_list (List.rev !bounds), Array.of_list (List.rev !counts))

(* A dedicated monitoring connection (like STATS_REQ, no handshake
   needed), so the scrape never touches a streaming connection. *)
let fetch_phase_snaps endpoint =
  let mon = Client.connect endpoint in
  let body =
    Fun.protect ~finally:(fun () -> Client.close mon) (fun () ->
        Client.metrics mon Wire.Jsonl)
  in
  match
    (hist_snapshot body "bbx_daemon_queue_wait_us", hist_snapshot body "bbx_shard_service_us")
  with
  | Some q, Some s -> Some (q, s)
  | _ -> None

let diff_counts before after =
  if Array.length before <> Array.length after then after
  else Array.mapi (fun i a -> max 0 (a - before.(i))) after

(* ---------- reporting ---------- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let run cfg =
  let conns = Array.init cfg.lg_conns (fun idx -> setup_conn cfg ~idx) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun c -> Client.close c.c_client) conns)
    (fun () ->
      let snaps_before = fetch_phase_snaps cfg.lg_endpoint in
      let totals, rtts, elapsed = stream cfg conns in
      let snaps_after = fetch_phase_snaps cfg.lg_endpoint in
      let phase_pct which q =
        match (snaps_before, snaps_after) with
        | Some (qb, sb), Some (qa, sa) ->
          let (bounds, cb), (_, ca) =
            match which with `Queue -> (qb, qa) | `Service -> (sb, sa)
          in
          Obs.percentile_of_counts ~bounds ~counts:(diff_counts cb ca) q
        | _ -> 0.0
      in
      let samples = Array.of_list rtts in
      Array.sort compare samples;
      let sum = Array.fold_left ( +. ) 0. samples in
      let n = Array.length samples in
      let elapsed = Float.max elapsed 1e-9 in
      { rp_conns = cfg.lg_conns;
        rp_sends = totals.t_done;
        rp_clean = totals.t_clean;
        rp_alert_frames = totals.t_alert_frames;
        rp_alerts = totals.t_alerts;
        rp_dropped = totals.t_dropped;
        rp_tokens = totals.t_tokens;
        rp_elapsed_s = elapsed;
        rp_sends_per_s = float_of_int totals.t_done /. elapsed;
        rp_tokens_per_s = float_of_int totals.t_tokens /. elapsed;
        rp_rtt_p50_us = percentile samples 0.50;
        rp_rtt_p95_us = percentile samples 0.95;
        rp_rtt_p99_us = percentile samples 0.99;
        rp_rtt_mean_us = (if n = 0 then 0. else sum /. float_of_int n);
        rp_rtt_max_us = (if n = 0 then 0. else samples.(n - 1));
        rp_qwait_p50_us = phase_pct `Queue 0.50;
        rp_qwait_p95_us = phase_pct `Queue 0.95;
        rp_qwait_p99_us = phase_pct `Queue 0.99;
        rp_service_p50_us = phase_pct `Service 0.50;
        rp_service_p95_us = phase_pct `Service 0.95;
        rp_service_p99_us = phase_pct `Service 0.99 })

let report_json r =
  Printf.sprintf
    {|{"conns": %d, "sends": %d, "clean": %d, "alert_frames": %d, "alerts": %d, "dropped": %d, "tokens": %d, "elapsed_s": %.6f, "sends_per_s": %.1f, "tokens_per_s": %.1f, "rtt_p50_us": %.1f, "rtt_p95_us": %.1f, "rtt_p99_us": %.1f, "rtt_mean_us": %.1f, "rtt_max_us": %.1f, "qwait_p50_us": %.1f, "qwait_p95_us": %.1f, "qwait_p99_us": %.1f, "service_p50_us": %.1f, "service_p95_us": %.1f, "service_p99_us": %.1f}|}
    r.rp_conns r.rp_sends r.rp_clean r.rp_alert_frames r.rp_alerts
    r.rp_dropped r.rp_tokens r.rp_elapsed_s r.rp_sends_per_s
    r.rp_tokens_per_s r.rp_rtt_p50_us r.rp_rtt_p95_us r.rp_rtt_p99_us
    r.rp_rtt_mean_us r.rp_rtt_max_us r.rp_qwait_p50_us r.rp_qwait_p95_us
    r.rp_qwait_p99_us r.rp_service_p50_us r.rp_service_p95_us
    r.rp_service_p99_us

let print_report oc r =
  Printf.fprintf oc "connections        %d\n" r.rp_conns;
  Printf.fprintf oc "frames             %d (%d clean, %d with alerts, %d dropped)\n"
    r.rp_sends r.rp_clean r.rp_alert_frames r.rp_dropped;
  Printf.fprintf oc "alert verdicts     %d\n" r.rp_alerts;
  Printf.fprintf oc "tokens inspected   %d\n" r.rp_tokens;
  Printf.fprintf oc "elapsed            %.3f s\n" r.rp_elapsed_s;
  Printf.fprintf oc "throughput         %.1f frames/s, %.1f tokens/s\n"
    r.rp_sends_per_s r.rp_tokens_per_s;
  Printf.fprintf oc "rtt p50/p95/p99    %.0f / %.0f / %.0f us\n"
    r.rp_rtt_p50_us r.rp_rtt_p95_us r.rp_rtt_p99_us;
  Printf.fprintf oc "rtt mean/max       %.0f / %.0f us\n"
    r.rp_rtt_mean_us r.rp_rtt_max_us;
  if r.rp_qwait_p50_us > 0. || r.rp_service_p50_us > 0. then begin
    Printf.fprintf oc "queue wait p50/p95/p99  %.0f / %.0f / %.0f us (daemon-side, bucket upper bounds)\n"
      r.rp_qwait_p50_us r.rp_qwait_p95_us r.rp_qwait_p99_us;
    Printf.fprintf oc "shard service p50/p95/p99  %.0f / %.0f / %.0f us\n"
      r.rp_service_p50_us r.rp_service_p95_us r.rp_service_p99_us
  end
