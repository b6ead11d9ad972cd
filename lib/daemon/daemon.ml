module Wire = Bbx_wire.Wire
module Sockio = Bbx_wire.Sockio
module Dpienc = Bbx_dpienc.Dpienc
module Shardpool = Bbx_mbox.Shardpool
module Engine = Bbx_mbox.Engine
module Rule = Bbx_rules.Rule
module Parser = Bbx_rules.Parser
module Obs = Bbx_obs.Obs
module Trace = Bbx_obs.Trace

let obs_conns = Obs.gauge "bbx_daemon_connections"
let obs_active = Obs.gauge "bbx_daemon_conns_active"
let obs_exports = Obs.counter "bbx_daemon_conn_exports_total"
let obs_imports = Obs.counter "bbx_daemon_conn_imports_total"
let obs_rebalanced = Obs.counter "bbx_daemon_rebalanced_total"
let obs_accepted = Obs.counter "bbx_daemon_accepted_total"
let obs_frames_in = Obs.counter "bbx_daemon_frames_in_total"
let obs_frames_out = Obs.counter "bbx_daemon_frames_out_total"
let obs_bytes_in = Obs.counter "bbx_daemon_bytes_in_total"
let obs_bytes_out = Obs.counter "bbx_daemon_bytes_out_total"
let obs_deliveries = Obs.counter "bbx_daemon_deliveries_total"
let obs_errors = Obs.counter "bbx_daemon_error_frames_total"
let obs_paused = Obs.counter "bbx_daemon_read_pauses_total"

(* Front-loop pipeline stages, microseconds.  Together with Shardpool's
   queue_wait/service pair these decompose a frame's daemon residency:
   read (decode) -> validate -> queue wait -> shard service -> write
   (output-queue residency up to the hand-off of the frame's last bytes
   to the socket). *)
let us_buckets =
  [| 1; 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000;
     50000; 100000; 250000; 1000000 |]

let obs_read_us = Obs.histogram "bbx_daemon_read_us" ~buckets:us_buckets
let obs_validate_us = Obs.histogram "bbx_daemon_validate_us" ~buckets:us_buckets
let obs_write_us = Obs.histogram "bbx_daemon_write_us" ~buckets:us_buckets

(* Event-loop health: the busy part of each iteration (select return to
   iteration end) plus a counter of iterations past the stall bound —
   a stalled front loop is invisible in per-frame latency but starves
   every connection at once. *)
let obs_loop_us = Obs.histogram "bbx_daemon_loop_us" ~buckets:us_buckets
let obs_loop_stalls = Obs.counter "bbx_daemon_loop_stalls_total"

let loop_stall_us = 100_000

let ph_read = Trace.phase "read"
let ph_validate = Trace.phase "validate"
let ph_write = Trace.phase "write"

let timing_on () = Obs.enabled () || Trace.enabled ()

type endpoint = Unix_path of string | Tcp of string * int

let endpoint_of_string s =
  if String.length s > 4 && String.sub s 0 4 = "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> invalid_arg "Daemon.endpoint_of_string: tcp:HOST:PORT"
    | Some i ->
      let host = String.sub rest 0 i in
      let port =
        match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
        | Some p when p > 0 && p < 65536 -> p
        | _ -> invalid_arg "Daemon.endpoint_of_string: bad port"
      in
      Tcp (host, port)
  end
  else Unix_path s

let endpoint_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type config = {
  endpoint : endpoint;
  inspect : Engine.config;
  rules : Rule.t list;
  domains : int option;
  high_water : int;
  metrics : endpoint option;
  trace_out : string option;
  rebalance_every : float option;
}

let config ?(inspect = Engine.default_config) ?domains ?(high_water = 1 lsl 20)
    ?rebalance_every ?metrics ?trace_out ~endpoint ~rules () =
  { endpoint; inspect; rules; domains; high_water; metrics; trace_out;
    rebalance_every }

(* The record-layer direction every daemon client seals its stream in. *)
let direction = "client->server"

(* ---------- per-connection state ---------- *)

type conn_state =
  | Awaiting_hello
  | Awaiting_setup of { salt0 : int }
  | Streaming
  | Drained     (* connection exported away; only control frames remain legal *)

type client = {
  fd : Unix.file_descr;
  framer : Wire.Framer.t;
  (* frame bytes awaiting the socket, each entry with the frame id it
     answers (the wire seq; -1 for control replies) and, on a frame's
     last entry, its enqueue timestamp (-1 on the others and when timing
     is off), so the write phase covers output-queue residency up to the
     frame's hand-off to the socket *)
  outq : (string * int * int) Queue.t;
  mutable outq_head_off : int;   (* written prefix of the head entry *)
  mutable outq_bytes : int;
  mutable state : conn_state;
  mutable conn_id : int;         (* -1 until HELLO *)
  mutable registered : bool;     (* conn_id live in the shard pool *)
  mutable rules : Rule.t list;   (* this connection's current ruleset *)
  mutable closing : bool;        (* flush pending output, then close *)
  mutable closed : bool;
}

type t = {
  cfg : config;
  pool : Shardpool.t;
  listen_fd : Unix.file_descr;
  clients : (Unix.file_descr, client) Hashtbl.t;
  (* deliveries in flight: pool ticket -> reply routing, in submission
     order (drain replays completed tickets in this same order; tickets
     missing from the drain were dropped on a blocked connection) *)
  pending : (int * client * int) Queue.t;
  rules_text : string;
  ruleset : Engine.ruleset;      (* built once at start-up: announced in
                                    HELLO_OK, checked by RULE_SETUP, and
                                    borrowed by every registration *)
  mutable next_conn_id : int;
  mutable last_rebalance : float;
  scratch : Bytes.t;
  (* live scrape plane: a second listener speaking just enough HTTP/1.0
     for GET /metrics; requests buffer here until the blank line *)
  metrics_fd : Unix.file_descr option;
  http : (Unix.file_descr, Buffer.t) Hashtbl.t;
}

(* ---------- socket plumbing ---------- *)

let listen_socket endpoint =
  match endpoint with
  | Unix_path path ->
    if Sys.file_exists path then begin
      match (Unix.stat path).Unix.st_kind with
      | Unix.S_SOCK -> Unix.unlink path
      | _ -> failwith (Printf.sprintf "blindboxd: %s exists and is not a socket" path)
    end;
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 128
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd
  | Tcp (host, port) ->
    let addr =
      match Unix.inet_addr_of_string host with
      | a -> a
      | exception _ ->
        (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
         with Not_found -> failwith (Printf.sprintf "blindboxd: unknown host %s" host))
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (addr, port));
       Unix.listen fd 128
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd

(* Nagle would add up to an RTT of delay to every small frame; the
   protocol is request/response, so turn it off (no-op on Unix-domain
   sockets, where the option does not exist). *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let connect endpoint =
  Sockio.ignore_sigpipe ();
  match endpoint with
  | Unix_path path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Sockio.retry (fun () -> Unix.connect fd (Unix.ADDR_UNIX path))
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd
  | Tcp (host, port) ->
    let addr =
      match Unix.inet_addr_of_string host with
      | a -> a
      | exception _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Sockio.retry (fun () -> Unix.connect fd (Unix.ADDR_INET (addr, port)));
       set_nodelay fd
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd

(* ---------- output ---------- *)

let push_out cl s seq enq_ns =
  Queue.add (s, seq, enq_ns) cl.outq;
  cl.outq_bytes <- cl.outq_bytes + String.length s

(* Queue one frame.  A HELLO_OK goes as two entries, its 10-byte head and
   the start-up rules text itself, so the text is never copied per
   connection. *)
let enqueue ?(seq = -1) _t cl msg =
  if not (cl.closed || cl.closing) then begin
    let stamp () = if timing_on () then Trace.now_ns () else -1 in
    (match msg with
     | Wire.Hello_ok { conn_id; mode; rules_text } ->
       let text_bytes = String.length rules_text in
       push_out cl (Wire.hello_ok_head ~conn_id ~mode ~text_bytes) seq (-1);
       push_out cl rules_text seq (stamp ())
     | msg ->
       let s = Wire.encode_frame_string msg in
       push_out cl s seq (stamp ()));
    Obs.incr obs_frames_out
  end

let close_client t cl =
  if not cl.closed then begin
    cl.closed <- true;
    Hashtbl.remove t.clients cl.fd;
    (try Unix.close cl.fd with Unix.Unix_error _ -> ());
    if cl.registered then begin
      cl.registered <- false;
      (* per-worker FIFO: deliveries submitted before this unregister
         still run first, so in-flight work is never orphaned mid-shard *)
      Shardpool.unregister t.pool ~conn_id:cl.conn_id;
      Obs.add_gauge obs_active (-1)
    end;
    Obs.add_gauge obs_conns (-1)
  end

let error_close t cl code fmt =
  Printf.ksprintf
    (fun message ->
       Obs.incr obs_errors;
       enqueue t cl (Wire.Error { code; message });
       cl.closing <- true)
    fmt

(* Flush as much queued output as the socket accepts; close on a dead
   peer.  Returns [true] while the client is still open.  The write phase
   ends when a frame's last bytes are handed to the socket: the stamp is
   taken before the syscall, because by the time it returns the peer may
   already hold the reply and be running its next request. *)
let flush_out t cl =
  if cl.closed then false
  else begin
    let progress = ref true in
    (try
       while !progress && not (Queue.is_empty cl.outq) do
         let head, seq, enq_ns = Queue.peek cl.outq in
         let len = String.length head - cl.outq_head_off in
         let handed_ns = if enq_ns >= 0 then Trace.now_ns () else -1 in
         let n =
           Sockio.retry (fun () ->
               Unix.write_substring cl.fd head cl.outq_head_off len)
         in
         Obs.add obs_bytes_out n;
         cl.outq_bytes <- cl.outq_bytes - n;
         if n = len then begin
           ignore (Queue.pop cl.outq : string * int * int);
           cl.outq_head_off <- 0;
           if enq_ns >= 0 then begin
             Obs.observe obs_write_us ((handed_ns - enq_ns) / 1000);
             Trace.record ph_write ~id:seq ~conn:cl.conn_id ~start_ns:enq_ns
               ~dur_ns:(handed_ns - enq_ns)
           end
         end
         else begin
           cl.outq_head_off <- cl.outq_head_off + n;
           progress := false
         end
       done
     with
     | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
     | Unix.Unix_error _ -> close_client t cl);
    if (not cl.closed) && cl.closing && Queue.is_empty cl.outq then close_client t cl;
    not cl.closed
  end

(* ---------- frame handling ---------- *)

let verdicts_to_wire vs =
  List.map
    (fun v ->
       { Wire.v_sid = Option.value v.Engine.rule.Rule.sid ~default:0;
         v_detail = v.Engine.detail;
         v_msg = Option.value v.Engine.rule.Rule.msg ~default:"" })
    vs

let stats_to_wire (s : Bbx_mbox.Shard.stats) =
  { Wire.s_connections = s.Bbx_mbox.Shard.connections;
    s_total_tokens = s.Bbx_mbox.Shard.total_tokens;
    s_total_keyword_hits = s.Bbx_mbox.Shard.total_keyword_hits;
    s_alerts = s.Bbx_mbox.Shard.alerts;
    s_blocked = s.Bbx_mbox.Shard.blocked }

(* Drain the shard pool and turn completed deliveries into VERDICT
   frames; tickets the drain never mentions were dropped on a blocked
   connection.  Replaying [t.pending] in queue order preserves each
   connection's submission order. *)
let flush_pool t =
  if not (Queue.is_empty t.pending) then begin
    let results = Hashtbl.create (Queue.length t.pending) in
    Shardpool.drain t.pool ~f:(fun ~seq ~conn_id:_ verdicts ->
        Hashtbl.replace results seq verdicts);
    while not (Queue.is_empty t.pending) do
      let ticket, cl, seq = Queue.pop t.pending in
      if not cl.closed then begin
        let status, verdicts =
          match Hashtbl.find_opt results ticket with
          | Some [] -> (Wire.Clean, [])
          | Some vs -> (Wire.Alerts, verdicts_to_wire vs)
          | None -> (Wire.Dropped, [])
        in
        enqueue ~seq t cl (Wire.Verdict { seq; status; verdicts })
      end
    done
  end

(* Is [pairs] the table for [chunks]: pair [i] carries chunk [i], no pair
   missing or extra?  Both ends derive [chunks] from the same rules with
   [Engine.distinct_chunks], so a valid table's enc column is already the
   keys' encryption array. *)
let table_matches chunks pairs =
  Array.length pairs = Array.length chunks
  && Array.for_all2 (fun c (c', _) -> String.equal c c') chunks pairs

let handle_msg t cl msg =
  match (msg, cl.state) with
  | Wire.Hello { version; mode; salt0; features = _ }, Awaiting_hello ->
    if version <> Wire.version then
      error_close t cl Wire.err_version "unsupported protocol version %d" version
    else if mode <> t.cfg.inspect.Engine.mode then
      error_close t cl Wire.err_version "mode mismatch: daemon runs %s"
        (match t.cfg.inspect.Engine.mode with
         | Dpienc.Exact -> "exact"
         | Dpienc.Probable -> "probable")
    else if salt0 < 0 || (mode = Dpienc.Probable && salt0 land 1 = 1) then
      error_close t cl Wire.err_protocol "bad salt0 %d" salt0
    else begin
      cl.conn_id <- t.next_conn_id;
      t.next_conn_id <- t.next_conn_id + 1;
      cl.state <- Awaiting_setup { salt0 };
      enqueue t cl
        (Wire.Hello_ok { conn_id = cl.conn_id; mode; rules_text = t.rules_text })
    end
  | Wire.Rule_setup { pairs }, Awaiting_setup { salt0 } ->
    let chunks = Engine.chunks t.ruleset in
    if not (table_matches chunks pairs) then
      error_close t cl Wire.err_setup
        "rule setup must pair the ruleset's %d chunks in announced order"
        (Array.length chunks)
    else begin
      (* the connection's keys are expanded on its owning worker *)
      let ruleset = t.ruleset in
      Shardpool.register t.pool ~conn_id:cl.conn_id ~salt0 ~direction (fun () ->
          Engine.keys_of_encs ruleset (Array.map snd pairs));
      cl.registered <- true;
      cl.state <- Streaming;
      Obs.add_gauge obs_active 1;
      enqueue t cl Wire.Setup_ok
    end
  | Wire.Conn_import { state }, Awaiting_setup _ -> begin
      (* takes RULE_SETUP's place: the snapshot already carries the
         prepared rule encryptions and every counter (the HELLO salt0 is
         superseded by the snapshot's salt epoch) *)
      match Shardpool.import_conn t.pool ~conn_id:cl.conn_id state with
      | () ->
        cl.registered <- true;
        cl.state <- Streaming;
        Obs.incr obs_imports;
        Obs.add_gauge obs_active 1;
        enqueue t cl Wire.Setup_ok
      | exception Invalid_argument m ->
        (* import validates front-side, so a corrupt blob is rejected
           here and never reaches a worker domain *)
        error_close t cl Wire.err_setup "%s" m
    end
  | Wire.Conn_export, Streaming ->
    (* reply every still-pending verdict first, so the client holds a
       complete verdict history before the state frame; the export then
       drains the connection through its FIFO mailbox *)
    flush_pool t;
    let state = Shardpool.export_conn t.pool ~conn_id:cl.conn_id in
    cl.registered <- false;
    cl.state <- Drained;
    Obs.incr obs_exports;
    Obs.add_gauge obs_active (-1);
    enqueue t cl (Wire.Conn_state { state })
  | Wire.Token_stream { seq; records }, Streaming ->
    let timing = timing_on () in
    let t0 = if timing then Trace.now_ns () else 0 in
    (* workers' exceptions are sticky and would poison the pool, so
       anything their decoder might choke on is refused here *)
    let valid = Dpienc.wire_valid ~mode:t.cfg.inspect.Engine.mode records in
    if timing then begin
      let now = Trace.now_ns () in
      Obs.observe obs_validate_us ((now - t0) / 1000);
      Trace.record ph_validate ~id:seq ~conn:cl.conn_id ~start_ns:t0
        ~dur_ns:(now - t0)
    end;
    if not valid then
      error_close t cl Wire.err_malformed "unparseable token records"
    else begin
      (* a full shard mailbox blocks here: that is the backpressure *)
      let ticket = Shardpool.submit ~tag:seq t.pool ~conn_id:cl.conn_id records in
      Queue.add (ticket, cl, seq) t.pending;
      Obs.incr obs_deliveries
    end
  | Wire.Record_stream { seq = _; record }, Streaming ->
    (* no front-side validation needed: the record is opaque sealed bytes
       and the engine degrades (exhausts the flow) rather than raising on
       anything it cannot open, so workers cannot be poisoned.  Shares the
       connection's FIFO mailbox with TOKEN_STREAM, so records always
       reach the engine before the delivery that carries their tokens. *)
    Shardpool.record_stream t.pool ~conn_id:cl.conn_id record
  | Wire.Salt_reset { salt0 }, Streaming ->
    if salt0 < 0 || (t.cfg.inspect.Engine.mode = Dpienc.Probable && salt0 land 1 = 1) then
      error_close t cl Wire.err_protocol "bad salt0 %d" salt0
    else Shardpool.reset_conn t.pool ~conn_id:cl.conn_id ~salt0
  | Wire.Rule_update { remove_sids; add_text; pairs }, Streaming -> begin
      match Parser.parse_ruleset add_text with
      | exception Parser.Syntax_error m ->
        error_close t cl Wire.err_setup "rule update parse error: %s" m
      | add ->
        let new_rules = Engine.next_rules cl.rules ~remove_sids ~add in
        if not (table_matches (Engine.distinct_chunks new_rules) pairs) then
          error_close t cl Wire.err_setup
            "rule update must pair the post-update chunks in order"
        else begin
          (* the next generation is this connection's alone: built on its
             owning worker, never written into the shared one; its
             [Engine.ruleset] derives the chunks in the order just checked *)
          Shardpool.update_rules t.pool ~conn_id:cl.conn_id (fun () ->
              Engine.keys_of_encs (Engine.ruleset new_rules) (Array.map snd pairs));
          cl.rules <- new_rules;
          enqueue t cl (Wire.Update_ok { added = List.length add })
        end
    end
  | Wire.Stats_req, _ ->
    (* honoured in any state so a monitoring client needs no handshake *)
    enqueue t cl (Wire.Stats (stats_to_wire (Shardpool.stats t.pool)))
  | Wire.Metrics_req { scope }, _ ->
    (* like STATS_REQ: any state, so monitoring needs no handshake.  The
       per-connection footprint gauge is refreshed on scrape (it requires
       quiescing the shards, too costly to keep continuously fresh). *)
    ignore (Shardpool.footprint_bytes t.pool : int);
    let body =
      match scope with
      | Wire.Prometheus -> Obs.render_prometheus ()
      | Wire.Jsonl -> Obs.dump_jsonl ()
      | Wire.Trace -> Trace.dump_chrome ()
    in
    enqueue t cl (Wire.Metrics { scope; body })
  | Wire.Bye, _ -> cl.closing <- true
  | ( Wire.(
        ( Hello _ | Hello_ok _ | Rule_setup _ | Setup_ok | Token_stream _
        | Verdict _ | Salt_reset _ | Rule_update _
        | Update_ok _ | Stats _ | Error _ | Metrics _ | Record_stream _
        | Conn_export | Conn_state _ | Conn_import _ )),
      _ ) ->
    error_close t cl Wire.err_protocol "message illegal in this connection state"

let handle_readable t cl =
  match Sockio.retry (fun () -> Unix.read cl.fd t.scratch 0 (Bytes.length t.scratch)) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_client t cl
  | 0 -> close_client t cl
  | n -> begin
      Obs.add obs_bytes_in n;
      match
        Wire.Framer.feed cl.framer t.scratch 0 n;
        let continue = ref true in
        while !continue && not (cl.closed || cl.closing) do
          match Wire.Framer.next cl.framer with
          | None -> continue := false
          | Some payload ->
            Obs.incr obs_frames_in;
            let timing = timing_on () in
            let t0 = if timing then Trace.now_ns () else 0 in
            let msg = Wire.decode payload in
            if timing then begin
              let id =
                match msg with Wire.Token_stream { seq; _ } -> seq | _ -> -1
              in
              let now = Trace.now_ns () in
              Obs.observe obs_read_us ((now - t0) / 1000);
              Trace.record ph_read ~id ~conn:cl.conn_id ~start_ns:t0
                ~dur_ns:(now - t0)
            end;
            handle_msg t cl msg
        done
      with
      | () -> ()
      | exception Wire.Malformed m -> error_close t cl Wire.err_malformed "%s" m
    end

(* ---------- HTTP scrape plane ----------

   Just enough HTTP/1.0 for a scraper: buffer until the request's blank
   line (or EOF, or an 8 KiB bound), answer one GET, close.  The response
   write is blocking — bodies are a few KiB going to a scraper that just
   asked for them, so the simplicity beats another write-side state
   machine on the hot loop. *)

let http_max_request = 8192

let http_request_path req =
  match String.index_opt req ' ' with
  | None -> ""
  | Some i ->
    (match String.index_from_opt req (i + 1) ' ' with
     | None -> ""
     | Some j -> String.sub req (i + 1) (j - i - 1))

let http_close t fd =
  Hashtbl.remove t.http fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

let http_respond t fd req =
  let status, ctype, body =
    match http_request_path req with
    | "/metrics" ->
      ignore (Shardpool.footprint_bytes t.pool : int);
      ("200 OK", "text/plain; version=0.0.4", Obs.render_prometheus ())
    | "/metrics.json" | "/metrics.jsonl" -> ("200 OK", "application/json", Obs.dump_jsonl ())
    | "/trace" -> ("200 OK", "application/json", Trace.dump_chrome ())
    | p -> ("404 Not Found", "text/plain", Printf.sprintf "no route %s\n" p)
  in
  (try
     Unix.clear_nonblock fd;
     Sockio.write_string fd
       (Printf.sprintf
          "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
          status ctype (String.length body));
     Sockio.write_string fd body
   with Unix.Unix_error _ -> ());
  http_close t fd

let http_accept_ready t mfd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true mfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
    | fd, _addr ->
      Unix.set_nonblock fd;
      Hashtbl.replace t.http fd (Buffer.create 256)
  done

let http_readable t fd buf =
  match Sockio.retry (fun () -> Unix.read fd t.scratch 0 (Bytes.length t.scratch)) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> http_close t fd
  | 0 ->
    (* peer stopped sending before the blank line: answer what we have *)
    http_respond t fd (Buffer.contents buf)
  | n ->
    Buffer.add_subbytes buf t.scratch 0 n;
    let req = Buffer.contents buf in
    let complete =
      let len = String.length req in
      let rec go i = i + 4 <= len && (String.sub req i 4 = "\r\n\r\n" || go (i + 1)) in
      go 0
    in
    if complete || Buffer.length buf > http_max_request then http_respond t fd req

let accept_ready t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
    | fd, _addr ->
      Unix.set_nonblock fd;
      set_nodelay fd;
      let cl =
        { fd;
          framer = Wire.Framer.create ();
          outq = Queue.create ();
          outq_head_off = 0;
          outq_bytes = 0;
          state = Awaiting_hello;
          conn_id = -1;
          registered = false;
          rules = t.cfg.rules;
          closing = false;
          closed = false }
      in
      Hashtbl.replace t.clients fd cl;
      Obs.incr obs_accepted;
      Obs.add_gauge obs_conns 1
  done

let serve_loop t stop =
  while not (stop ()) do
    let reads = ref [ t.listen_fd ] and writes = ref [] in
    (match t.metrics_fd with Some fd -> reads := fd :: !reads | None -> ());
    Hashtbl.iter (fun fd _ -> reads := fd :: !reads) t.http;
    Hashtbl.iter
      (fun fd cl ->
         (* flow control: a reply backlog past the high-water mark pauses
            reads from this peer until it drains what we already owe it *)
         if not cl.closing then begin
           if cl.outq_bytes <= t.cfg.high_water then reads := fd :: !reads
           else Obs.incr obs_paused
         end;
         if not (Queue.is_empty cl.outq) then writes := fd :: !writes)
      t.clients;
    let readable, writable =
      match Unix.select !reads !writes [] 0.05 with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    (* the busy part of the iteration starts once select returns *)
    let timing = timing_on () in
    let t_busy = if timing then Trace.now_ns () else 0 in
    List.iter
      (fun fd ->
         if fd = t.listen_fd then accept_ready t
         else
           match Hashtbl.find_opt t.clients fd with
           | Some cl -> handle_readable t cl
           | None ->
             (match t.metrics_fd with
              | Some mfd when fd = mfd -> http_accept_ready t mfd
              | _ ->
                (match Hashtbl.find_opt t.http fd with
                 | Some buf -> http_readable t fd buf
                 | None -> ())))
      readable;
    flush_pool t;
    (match t.cfg.rebalance_every with
     | Some period ->
       let now = Unix.gettimeofday () in
       if now -. t.last_rebalance >= period then begin
         t.last_rebalance <- now;
         (* pending is empty (flush_pool just drained), so migration's
            quiesce-per-move cost hits no in-flight delivery *)
         let moved = Shardpool.rebalance t.pool in
         if moved > 0 then Obs.add obs_rebalanced moved
       end
     | None -> ());
    List.iter
      (fun fd ->
         match Hashtbl.find_opt t.clients fd with
         | Some cl -> ignore (flush_out t cl : bool)
         | None -> ())
      writable;
    (* error replies enqueued this round for clients that were not in the
       write set get a first flush attempt immediately *)
    Hashtbl.iter
      (fun _ cl ->
         if (cl.closing || not (Queue.is_empty cl.outq)) && not (List.mem cl.fd writable)
         then ignore (flush_out t cl : bool))
      (Hashtbl.copy t.clients);
    if timing then begin
      let busy_us = (Trace.now_ns () - t_busy) / 1000 in
      Obs.observe obs_loop_us busy_us;
      if busy_us > loop_stall_us then Obs.incr obs_loop_stalls
    end
  done

let init cfg =
  Sockio.ignore_sigpipe ();
  if cfg.trace_out <> None then Trace.set_enabled true;
  let ruleset = Engine.ruleset cfg.rules in
  let pool = Shardpool.create ?domains:cfg.domains cfg.inspect in
  let listen_fd =
    try listen_socket cfg.endpoint
    with e -> Shardpool.shutdown pool; raise e
  in
  Unix.set_nonblock listen_fd;
  let metrics_fd =
    match cfg.metrics with
    | None -> None
    | Some ep ->
      let fd =
        try listen_socket ep
        with e ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Shardpool.shutdown pool;
          raise e
      in
      Unix.set_nonblock fd;
      Some fd
  in
  { cfg;
    pool;
    listen_fd;
    clients = Hashtbl.create 64;
    pending = Queue.create ();
    rules_text = String.concat "\n" (List.map Rule.to_string cfg.rules);
    ruleset;
    next_conn_id = 0;
    last_rebalance = Unix.gettimeofday ();
    scratch = Bytes.create 65536;
    metrics_fd;
    http = Hashtbl.create 8 }

let teardown t =
  Hashtbl.iter (fun _ cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ()) t.clients;
  Hashtbl.reset t.clients;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) t.http;
  Hashtbl.reset t.http;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.metrics_fd with
   | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  let unlink_unix = function
    | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ()
  in
  unlink_unix t.cfg.endpoint;
  (match t.cfg.metrics with Some ep -> unlink_unix ep | None -> ());
  Shardpool.shutdown t.pool;
  (* dump the flight-recorder window after the pool joined: every worker's
     ring is quiescent, so the capture is exact *)
  (match t.cfg.trace_out with Some path -> Trace.save ~path | None -> ())

let run ?(stop = fun () -> false) cfg =
  let t = init cfg in
  Fun.protect ~finally:(fun () -> teardown t) (fun () -> serve_loop t stop)

type handle = {
  h_stop : bool Atomic.t;
  h_domain : unit Domain.t;
}

let start cfg =
  (* bind on the caller's domain so a client may connect the moment
     [start] returns — the backlog holds it until the loop first runs *)
  let t = init cfg in
  let h_stop = Atomic.make false in
  let h_domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> teardown t)
          (fun () -> serve_loop t (fun () -> Atomic.get h_stop)))
  in
  { h_stop; h_domain }

let stop h =
  Atomic.set h.h_stop true;
  Domain.join h.h_domain
