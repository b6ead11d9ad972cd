(* The closed-loop client: one connection at a time, one write in flight.

   The endpoint's work runs live on every write — tokenize + DPIEnc into
   the wire buffer, plus the record seal in Probable mode — with stream
   offsets carried across writes ([~base], as [Session.send] does) and a
   SALT_RESET every [Workload.reset_period] bytes.  A write's latency runs
   from handing the plaintext to the sender until its verdict is decoded,
   so with one write in flight it is the sum of the layers on its path.

   With [traced], the client also takes spans around its own calls into
   public functions and keeps each connection's frames for the in-process
   replay; nothing else changes on the write path. *)

module Client = Bbx_daemon.Client
module Wire = Bbx_wire.Wire
module Dpienc = Bbx_dpienc.Dpienc
module Tokenizer = Bbx_tokenizer.Tokenizer
module Record = Bbx_tls.Record
module Handshake = Bbx_tls.Handshake
module Drbg = Bbx_crypto.Drbg

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---------- frame sizes (client -> daemon and back) ---------- *)

let frame_hdr = 4 + 1                          (* length prefix + type byte *)
let stream_frame n = frame_hdr + 4 + n         (* TOKEN_STREAM / RECORD_STREAM *)
let rule_setup_frame pairs = frame_hdr + 4 + (24 * pairs)
let hello_ok_frame text = frame_hdr + 4 + 1 + String.length text
let salt_reset_frame = frame_hdr + 8
let setup_ok_frame = frame_hdr
let bye_frame = frame_hdr

let hello_frame mode =
  String.length
    (Wire.encode_frame_string
       (Wire.Hello { version = Wire.version; mode; salt0 = 0; features = Wire.feature_tiered }))

(* The sizes above are the wire format's; fail loudly if it changes. *)
let check_frame_sizes () =
  let len m = String.length (Wire.encode_frame_string m) in
  let pair = ("abcdefgh", String.make 16 'k') in
  if len (Wire.Token_stream { seq = 1; records = "abc" }) <> stream_frame 3
  || len (Wire.Record_stream { seq = 1; record = "abcd" }) <> stream_frame 4
  || len (Wire.Rule_setup { pairs = [| pair; pair |] }) <> rule_setup_frame 2
  || len (Wire.Hello_ok { conn_id = 1; mode = Dpienc.Exact; rules_text = "xyz" })
     <> hello_ok_frame "xyz"
  || len (Wire.Salt_reset { salt0 = 2 }) <> salt_reset_frame
  || len Wire.Setup_ok <> setup_ok_frame
  || len Wire.Bye <> bye_frame
  then failwith "wire frame sizes changed; update the benchmark's accounting"

(* ---------- per-connection records ---------- *)

type event =
  | Deliver of { seq : int; records : string; record : string option }
  | Reset of int

type conn = {
  index : int;                         (* plan index *)
  mutable conn_id : int;               (* the daemon's id, -1 before HELLO_OK *)
  mutable setup_ns : int;              (* connect -> probe verdict; -1 if not reached *)
  (* set-up spans, ns *)
  mutable sp_hello : int;
  mutable sp_handshake : int;
  mutable sp_pairs : int;
  mutable sp_rule_setup : int;
  mutable sp_engine_ready : int;
  mutable attempted : int;             (* writes started *)
  mutable written : int;               (* writes whose verdict came back *)
  mutable bytes : int;                 (* their plaintext bytes *)
  mutable wire_out : int;              (* bytes written to the daemon *)
  mutable setup_wire : int;            (* set-up frames, both directions *)
  mutable frames_out : int;            (* frames written to the daemon *)
  mutable frames_in : int;             (* frames read from the daemon *)
  mutable verdicts : (int * Wire.status * Wire.verdict list) list;  (* (seq, status, verdicts) *)
  mutable failures : string list;      (* transport-level failures *)
  mutable pairs : (string * string) array;
  mutable events : event list;         (* traced capture only *)
  mutable captured : bool;             (* events are complete *)
  (* [verdicts] and [events] are in write order once [run_conn] returns *)
}

(* One write's figures; the spans are zero unless traced. *)
type write = {
  w_conn : int;                        (* daemon conn id *)
  w_seq : int;
  w_bytes : int;
  w_tokens : int;
  w_lat_ns : int;                      (* plaintext to the sender -> verdict decoded *)
  w_done_ns : int;                     (* when the verdict was decoded *)
  w_tok_ns : int;                      (* tokenizer alone, off the write path *)
  w_enc_ns : int;                      (* Dpienc.sender_encrypt_into *)
  w_alloc : float;                     (* GC bytes allocated in that call *)
  w_seal_ns : int;                     (* Record.seal *)
  w_rt_ns : int;                       (* send_record/send_records -> recv_verdict *)
}

type ctx = {
  inputs : Workload.inputs;
  endpoint : Bbx_daemon.Daemon.endpoint;
  seed : int;
  traced : bool;
  mutable capture_budget : int;        (* bytes of frames still kept for replay *)
  mutable writes : write list;         (* newest first *)
  mutable next_index : int;
  mutable probe_rules_checked : bool;
  mutable after_write : unit -> unit;  (* runs after each verdict, off the clock *)
}

let create_ctx ~inputs ~endpoint ~seed ~traced =
  { inputs; endpoint; seed; traced;
    capture_budget = (if traced then 48 lsl 20 else 0);
    writes = []; next_index = 0;
    probe_rules_checked = false; after_write = ignore }

(* The S/R handshake runs between the two endpoints; the daemon only
   plays the middlebox, so both ends live in this client. *)
let handshake seed =
  let st, client_share = Handshake.initiate (Drbg.create (seed ^ "/client")) in
  let keys, server_share =
    Handshake.respond (Drbg.create (seed ^ "/server")) ~peer_share:client_share
  in
  let keys' = Handshake.complete st ~peer_share:server_share in
  if keys <> keys' then failwith "handshake: endpoints derived different keys";
  keys

let noop_visit acc ~off:_ ~len:_ = acc + 1

let fold_tokens tokenization payload =
  match tokenization with
  | Dpienc.Window -> Tokenizer.fold_window payload ~init:0 ~f:noop_visit
  | Dpienc.Delimiter { short_units } ->
    Tokenizer.fold_delimiter ~short_units payload ~init:0 ~f:noop_visit

exception Stop_conn

(* Run one connection: full set-up, then up to [max_writes] writes of its
   plan while [now < deadline].  Failures are recorded, never raised. *)
let run_conn ctx ~max_writes ~deadline ~on_first_conn =
  let w = ctx.inputs.Workload.w in
  let plans = ctx.inputs.Workload.plans in
  let index = ctx.next_index in
  ctx.next_index <- index + 1;
  let plan = plans.(index mod Array.length plans) in
  let c =
    { index; conn_id = -1; setup_ns = -1; sp_hello = 0; sp_handshake = 0;
      sp_pairs = 0; sp_rule_setup = 0; sp_engine_ready = 0; attempted = 0;
      written = 0; bytes = 0; wire_out = 0; setup_wire = 0; frames_out = 0;
      frames_in = 0; verdicts = []; failures = []; pairs = [||]; events = [];
      captured = false }
  in
  let capture ev size =
    if c.captured then begin
      if ctx.capture_budget >= size then begin
        ctx.capture_budget <- ctx.capture_budget - size;
        c.events <- ev :: c.events
      end
      else begin
        c.captured <- false;
        c.events <- []
      end
    end
  in
  let fail what = c.failures <- what :: c.failures in
  let client = ref None in
  (try
     let t0 = now_ns () in
     let cl = Client.connect ctx.endpoint in
     client := Some cl;
     let conn_id, rules = Client.hello ~features:Wire.feature_tiered cl ~mode:w.mode ~salt0:0 in
     let t_hello = now_ns () in
     c.conn_id <- conn_id;
     let keys = handshake (Printf.sprintf "e2ebench/%s/%d/conn%d" w.name ctx.seed index) in
     let t_hs = now_ns () in
     let key = Dpienc.key_of_secret keys.Handshake.k in
     let pairs = Client.pairs_for ~key rules in
     let t_pairs = now_ns () in
     Client.rule_setup cl ~pairs;
     let t_setup_ok = now_ns () in
     Client.send_records cl ~seq:0 "";
     let pseq, pstatus, pvs = Client.recv_verdict cl in
     let t_ready = now_ns () in
     c.setup_ns <- t_ready - t0;
     c.sp_hello <- t_hello - t0;
     c.sp_handshake <- t_hs - t_hello;
     c.sp_pairs <- t_pairs - t_hs;
     c.sp_rule_setup <- t_setup_ok - t_pairs;
     c.sp_engine_ready <- t_ready - t_setup_ok;
     c.wire_out <- hello_frame w.mode + rule_setup_frame (Array.length pairs) + stream_frame 0;
     c.frames_out <- 3;
     c.frames_in <- 3;
     c.setup_wire <-
       hello_frame w.mode + hello_ok_frame ctx.inputs.Workload.rules_text
       + rule_setup_frame (Array.length pairs) + setup_ok_frame;
     if pseq <> 0 || pstatus <> Wire.Clean || pvs <> [] then fail "probe verdict not clean";
     if not ctx.probe_rules_checked then begin
       ctx.probe_rules_checked <- true;
       on_first_conn rules
     end;
     if ctx.traced then begin
       c.captured <- true;
       c.pairs <- pairs;
       capture (Deliver { seq = 0; records = ""; record = None }) 0
     end;
     (* the endpoint's sender and record writer *)
     let sender = Dpienc.sender_create ~kernel:Dpienc.Bitsliced w.mode key ~salt0:0 in
     let writer, k_ssl =
       match w.mode with
       | Dpienc.Probable ->
         ( Some (Record.create ~kernel:Dpienc.Bitsliced ~key:keys.Handshake.k_ssl
                   ~direction:"client->server" ()),
           Some keys.Handshake.k_ssl )
       | Dpienc.Exact -> (None, None)
     in
     let buf = Buffer.create (32 * w.write_bytes) in
     let base = ref 0 and since_reset = ref 0 in
     let nw = min max_writes (Array.length plan.Workload.writes) in
     (try
        for i = 0 to nw - 1 do
          if now_ns () >= deadline then raise Stop_conn;
          c.attempted <- c.attempted + 1;
          let payload = plan.Workload.writes.(i) in
          let len = String.length payload in
          let seq = i + 1 in
          let tok_ns =
            if ctx.traced then begin
              (* off the write path: the tokenizer alone, no-op visitor *)
              let t = now_ns () in
              ignore (fold_tokens w.tokenization payload : int);
              now_ns () - t
            end
            else 0
          in
          let t_w0 = now_ns () in
          let a0 = if ctx.traced then Gc.allocated_bytes () else 0. in
          Buffer.clear buf;
          let ntok =
            Dpienc.sender_encrypt_into sender ?k_ssl ~base:!base
              ~tokenization:w.tokenization payload buf
          in
          let a1 = if ctx.traced then Gc.allocated_bytes () else 0. in
          let t_enc = if ctx.traced then now_ns () else 0 in
          let record =
            match writer with
            | Some wr -> Some (Record.seal wr ("T" ^ payload))
            | None -> None
          in
          let t_seal = if ctx.traced then now_ns () else 0 in
          (match record with
           | Some r ->
             Client.send_record cl ~seq r;
             c.wire_out <- c.wire_out + stream_frame (String.length r);
             c.frames_out <- c.frames_out + 1
           | None -> ());
          let records = Buffer.contents buf in
          Client.send_records cl ~seq records;
          c.wire_out <- c.wire_out + stream_frame (String.length records);
          c.frames_out <- c.frames_out + 1;
          let rseq, status, vs = Client.recv_verdict cl in
          c.frames_in <- c.frames_in + 1;
          let t_w1 = now_ns () in
          c.verdicts <- (rseq, status, vs) :: c.verdicts;
          if ctx.traced then
            capture (Deliver { seq; records; record })
              (String.length records
               + (match record with Some r -> String.length r | None -> 0));
          if rseq <> seq then begin
            fail (Printf.sprintf "verdict for seq %d arrived as seq %d" seq rseq);
            raise Stop_conn
          end;
          if status = Wire.Dropped then fail (Printf.sprintf "write %d dropped" seq)
          else begin
            c.written <- c.written + 1;
            c.bytes <- c.bytes + len
          end;
          let traced t = if ctx.traced then t else 0 in
          ctx.writes <-
            { w_conn = conn_id; w_seq = seq; w_bytes = len; w_tokens = ntok;
              w_lat_ns = t_w1 - t_w0; w_done_ns = t_w1; w_tok_ns = tok_ns; w_enc_ns = traced (t_enc - t_w0);
              w_alloc = a1 -. a0; w_seal_ns = traced (t_seal - t_enc);
              w_rt_ns = traced (t_w1 - t_seal) }
            :: ctx.writes;
          ctx.after_write ();
          base := !base + len;
          since_reset := !since_reset + len;
          if !since_reset >= Workload.reset_period then begin
            since_reset := 0;
            let salt0 = Dpienc.sender_reset sender in
            Client.salt_reset cl ~salt0;
            c.wire_out <- c.wire_out + salt_reset_frame;
            c.frames_out <- c.frames_out + 1;
            if ctx.traced then capture (Reset salt0) 0
          end
        done
      with Stop_conn -> ());
     c.wire_out <- c.wire_out + bye_frame;
     c.frames_out <- c.frames_out + 1
   with
   | Client.Server_error { code; message } ->
     fail (Printf.sprintf "daemon ERROR %d: %s" code message)
   | Client.Protocol_error m -> fail ("protocol error: " ^ m)
   | End_of_file -> fail "daemon closed the connection"
   | Unix.Unix_error (e, f, _) -> fail (Printf.sprintf "%s: %s" f (Unix.error_message e)));
  if c.captured then c.events <- List.rev c.events;
  c.verdicts <- List.rev c.verdicts;
  c, !client

let close_conn = function
  | Some cl -> Client.close cl
  | None -> ()

(* Set-up-only connections: full set-up and probe, then BYE. *)
let setup_only ctx ~on_first_conn =
  let c, cl = run_conn ctx ~max_writes:0 ~deadline:max_int ~on_first_conn in
  close_conn cl;
  c

(* Full connections back to back until [deadline]; the connection in
   progress at the deadline stops after its current write.  [hook] runs
   on the first connection before its BYE (the traced run scrapes the
   daemon's per-connection footprint there). *)
let run_phase ctx ~deadline ~on_first_conn ~hook =
  let first = ref true in
  let conns = ref [] in
  let refused = ref false in
  while (not !refused) && now_ns () < deadline do
    let c, cl = run_conn ctx ~max_writes:max_int ~deadline ~on_first_conn in
    if !first then begin
      first := false;
      hook c
    end;
    close_conn cl;
    conns := c :: !conns;
    (* a connection that never finished set-up: stop rather than spin *)
    refused := c.setup_ns < 0
  done;
  List.rev !conns
