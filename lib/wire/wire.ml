module Dpienc = Bbx_dpienc.Dpienc
module Tokenizer = Bbx_tokenizer.Tokenizer
module Classify = Bbx_rules.Classify
module Codec = Bbx_codec.Codec

exception Malformed = Codec.Malformed

let malformed = Codec.malformed

let max_frame_bytes = 16 * 1024 * 1024

let version = 3

let chunk_len = Tokenizer.token_len
let enc_len = 16

type detail = Classify.detail

type verdict = { v_sid : int; v_detail : detail; v_msg : string }

type status = Clean | Alerts | Dropped

type stats = {
  s_connections : int;
  s_total_tokens : int;
  s_total_keyword_hits : int;
  s_alerts : int;
  s_blocked : int;
}

let feature_tiered = 2

type metrics_scope = Prometheus | Jsonl | Trace

type msg =
  | Hello of { version : int; mode : Dpienc.mode; salt0 : int; features : int }
  | Hello_ok of { conn_id : int; mode : Dpienc.mode; rules_text : string }
  | Rule_setup of { pairs : (string * string) array }
  | Setup_ok
  | Token_stream of { seq : int; records : string }
  | Verdict of { seq : int; status : status; verdicts : verdict list }
  | Salt_reset of { salt0 : int }
  | Rule_update of {
      remove_sids : int list;
      add_text : string;
      pairs : (string * string) array;
    }
  | Update_ok of { added : int }
  | Stats_req
  | Stats of stats
  | Bye
  | Error of { code : int; message : string }
  | Metrics_req of { scope : metrics_scope }
  | Metrics of { scope : metrics_scope; body : string }
  | Record_stream of { seq : int; record : string }
  | Conn_export
  | Conn_state of { state : string }
  | Conn_import of { state : string }

let err_malformed = 1
let err_protocol = 2
let err_version = 3
let err_setup = 4

let type_byte = function
  | Hello _ -> 1
  | Hello_ok _ -> 2
  | Rule_setup _ -> 3
  | Setup_ok -> 4
  | Token_stream _ -> 5
  | Verdict _ -> 6
  | Salt_reset _ -> 7
  | Rule_update _ -> 8
  | Update_ok _ -> 9
  | Stats_req -> 10
  | Stats _ -> 11
  | Bye -> 12
  | Error _ -> 13
  | Metrics_req _ -> 14
  | Metrics _ -> 15
  | Record_stream _ -> 16
  | Conn_export -> 18
  | Conn_state _ -> 19
  | Conn_import _ -> 20

let mode_of_byte b =
  match Dpienc.mode_of_byte b with Some m -> m | None -> malformed "bad mode byte %d" b

let detail_of_byte b =
  match Classify.detail_of_byte b with
  | Some d -> d
  | None -> malformed "bad detail byte %d" b

let status_byte = function Clean -> 0 | Alerts -> 1 | Dropped -> 2

let status_of_byte = function
  | 0 -> Clean
  | 1 -> Alerts
  | 2 -> Dropped
  | b -> malformed "bad status byte %d" b

let scope_byte = function Prometheus -> 0 | Jsonl -> 1 | Trace -> 2

let scope_of_byte = function
  | 0 -> Prometheus
  | 1 -> Jsonl
  | 2 -> Trace
  | b -> malformed "bad metrics scope byte %d" b

(* ---------- rule tables ---------- *)

let put_pairs buf pairs =
  Codec.put_u32 buf (Array.length pairs);
  Array.iter
    (fun (chunk, enc) ->
       if String.length chunk <> chunk_len then
         invalid_arg "Wire: rule chunk must be token_len bytes";
       if String.length enc <> enc_len then
         invalid_arg "Wire: rule encryption must be 16 bytes";
       Buffer.add_string buf chunk;
       Buffer.add_string buf enc)
    pairs

let get_pairs c =
  let n = Codec.get_u32 c in
  (* each pair is chunk_len + enc_len bytes: reject counts the body cannot
     hold before allocating the array *)
  if n * (chunk_len + enc_len) > Codec.remaining c then
    malformed "rule table count %d exceeds frame body" n;
  Array.init n (fun _ ->
      let chunk = Codec.get_bytes c chunk_len in
      let enc = Codec.get_bytes c enc_len in
      (chunk, enc))

(* ---------- frames ---------- *)

(* HELLO_OK's payload before the text: type, conn_id, mode. *)
let hello_ok_fixed = 6

(* The one encoder of HELLO_OK's head: [encode_payload] copies it into a
   whole frame, and the daemon sends it ahead of a text it holds. *)
let hello_ok_head ~conn_id ~mode ~text_bytes =
  let n = hello_ok_fixed + text_bytes in
  if n > max_frame_bytes then invalid_arg "Wire.hello_ok_head: frame too large";
  let buf = Buffer.create (4 + hello_ok_fixed) in
  Codec.put_u32 buf n;
  Codec.put_u8 buf (type_byte (Hello_ok { conn_id; mode; rules_text = "" }));
  Codec.put_u32 buf conn_id;
  Codec.put_u8 buf (Dpienc.mode_byte mode);
  Buffer.contents buf

let encode_payload buf msg =
  Codec.put_u8 buf (type_byte msg);
  match msg with
  | Hello { version; mode; salt0; features } ->
    Codec.put_u8 buf version;
    Codec.put_u8 buf (Dpienc.mode_byte mode);
    Codec.put_i64 buf salt0;
    Codec.put_u8 buf features
  | Hello_ok { conn_id; mode; rules_text } ->
    (* conn_id and mode: the head past its length prefix and type byte *)
    let head = hello_ok_head ~conn_id ~mode ~text_bytes:(String.length rules_text) in
    Buffer.add_substring buf head 5 (hello_ok_fixed - 1);
    Buffer.add_string buf rules_text
  | Rule_setup { pairs } -> put_pairs buf pairs
  | Token_stream { seq; records } ->
    Codec.put_u32 buf seq;
    Buffer.add_string buf records
  | Verdict { seq; status; verdicts } ->
    Codec.put_u32 buf seq;
    Codec.put_u8 buf (status_byte status);
    Codec.put_u16 buf (List.length verdicts);
    List.iter
      (fun v ->
         Codec.put_u32 buf v.v_sid;
         Codec.put_u8 buf (Classify.detail_byte v.v_detail);
         Codec.put_str16 buf v.v_msg)
      verdicts
  | Salt_reset { salt0 } -> Codec.put_i64 buf salt0
  | Rule_update { remove_sids; add_text; pairs } ->
    Codec.put_u16 buf (List.length remove_sids);
    List.iter (Codec.put_u32 buf) remove_sids;
    Codec.put_str32 buf add_text;
    put_pairs buf pairs
  | Update_ok { added } -> Codec.put_u32 buf added
  | Stats s ->
    Codec.put_i64 buf s.s_connections;
    Codec.put_i64 buf s.s_total_tokens;
    Codec.put_i64 buf s.s_total_keyword_hits;
    Codec.put_i64 buf s.s_alerts;
    Codec.put_i64 buf s.s_blocked
  | Error { code; message } ->
    Codec.put_u16 buf code;
    Codec.put_str16 buf message
  | Metrics_req { scope } -> Codec.put_u8 buf (scope_byte scope)
  | Metrics { scope; body } ->
    Codec.put_u8 buf (scope_byte scope);
    Buffer.add_string buf body
  | Record_stream { seq; record } ->
    Codec.put_u32 buf seq;
    Buffer.add_string buf record
  | Conn_state { state } | Conn_import { state } -> Buffer.add_string buf state
  | Setup_ok | Stats_req | Bye | Conn_export -> ()

let pair_bytes pairs = Array.length pairs * (chunk_len + enc_len)

(* The payload's size: the type byte, the fixed fields and the bulk
   (text, records, pairs), so one buffer holds the frame without
   growing. *)
let payload_bytes = function
  | Hello _ -> 12
  | Hello_ok { rules_text; _ } -> hello_ok_fixed + String.length rules_text
  | Rule_setup { pairs } -> 5 + pair_bytes pairs
  | Token_stream { records; _ } -> 5 + String.length records
  | Verdict { verdicts; _ } ->
    List.fold_left (fun n v -> n + 7 + String.length v.v_msg) 8 verdicts
  | Salt_reset _ -> 9
  | Rule_update { remove_sids; add_text; pairs } ->
    11 + (4 * List.length remove_sids) + String.length add_text + pair_bytes pairs
  | Update_ok _ -> 5
  | Stats _ -> 41
  | Error { message; _ } -> 5 + String.length message
  | Metrics_req _ -> 2
  | Metrics { body; _ } -> 2 + String.length body
  | Record_stream { record; _ } -> 5 + String.length record
  | Conn_state { state } | Conn_import { state } -> 1 + String.length state
  | Setup_ok | Stats_req | Bye | Conn_export -> 1

(* One buffer per frame: the length prefix is reserved, the payload
   encoded after it, and the prefix patched into the one copy out. *)
let encode_frame_string msg =
  let buf = Buffer.create (4 + payload_bytes msg) in
  Buffer.add_string buf "\000\000\000\000";
  encode_payload buf msg;
  let n = Buffer.length buf - 4 in
  if n > max_frame_bytes then invalid_arg "Wire.encode_frame_string: frame too large";
  let frame = Buffer.to_bytes buf in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.unsafe_to_string frame

(* One payload, the cursor's whole range: from the type byte on. *)
let decode_cursor c =
  let msg =
    match Codec.get_u8 c with
    | 1 ->
      let version = Codec.get_u8 c in
      let mode = mode_of_byte (Codec.get_u8 c) in
      let salt0 = Codec.get_i64 c in
      let features = Codec.get_u8 c in
      Hello { version; mode; salt0; features }
    | 2 ->
      let conn_id = Codec.get_u32 c in
      let mode = mode_of_byte (Codec.get_u8 c) in
      let rules_text = Codec.get_rest c in
      Hello_ok { conn_id; mode; rules_text }
    | 3 -> Rule_setup { pairs = get_pairs c }
    | 4 -> Setup_ok
    | 5 ->
      let seq = Codec.get_u32 c in
      let records = Codec.get_rest c in
      Token_stream { seq; records }
    | 6 ->
      let seq = Codec.get_u32 c in
      let status = status_of_byte (Codec.get_u8 c) in
      let n = Codec.get_u16 c in
      let verdicts =
        List.init n (fun _ ->
            let v_sid = Codec.get_u32 c in
            let v_detail = detail_of_byte (Codec.get_u8 c) in
            let v_msg = Codec.get_str16 c in
            { v_sid; v_detail; v_msg })
      in
      Verdict { seq; status; verdicts }
    | 7 -> Salt_reset { salt0 = Codec.get_i64 c }
    | 8 ->
      let n = Codec.get_u16 c in
      let remove_sids = List.init n (fun _ -> Codec.get_u32 c) in
      let add_text = Codec.get_str32 c in
      let pairs = get_pairs c in
      Rule_update { remove_sids; add_text; pairs }
    | 9 -> Update_ok { added = Codec.get_u32 c }
    | 10 -> Stats_req
    | 11 ->
      let s_connections = Codec.get_i64 c in
      let s_total_tokens = Codec.get_i64 c in
      let s_total_keyword_hits = Codec.get_i64 c in
      let s_alerts = Codec.get_i64 c in
      let s_blocked = Codec.get_i64 c in
      Stats { s_connections; s_total_tokens; s_total_keyword_hits; s_alerts; s_blocked }
    | 12 -> Bye
    | 13 ->
      let code = Codec.get_u16 c in
      let message = Codec.get_str16 c in
      Error { code; message }
    | 14 -> Metrics_req { scope = scope_of_byte (Codec.get_u8 c) }
    | 15 ->
      let scope = scope_of_byte (Codec.get_u8 c) in
      let body = Codec.get_rest c in
      Metrics { scope; body }
    | 16 ->
      let seq = Codec.get_u32 c in
      let record = Codec.get_rest c in
      Record_stream { seq; record }
    | 18 -> Conn_export
    | 19 -> Conn_state { state = Codec.get_rest c }
    | 20 -> Conn_import { state = Codec.get_rest c }
    | ty -> malformed "unknown message type %d" ty
  in
  Codec.finish c;
  msg

let decode payload = decode_cursor (Codec.cursor payload)

(* ---------- incremental framer ---------- *)

module Framer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;  (* valid bytes in [buf] *)
    mutable pos : int;  (* consumed prefix *)
  }

  let initial_bytes = 4096

  (* A drained buffer larger than this, and more than twice the frame
     that drained it, was grown for an earlier, larger frame (a HELLO_OK,
     a RULE_SETUP): it is replaced by a fresh [initial_bytes] one, so a
     connection does not keep its largest frame's buffer.  A buffer its
     frames still fill half of is kept, so a stream of large frames does
     not regrow it for each. *)
  let release_bytes = 65_536

  let create () = { buf = Bytes.create initial_bytes; len = 0; pos = 0 }

  let compact t =
    if t.pos > 0 then begin
      let live = t.len - t.pos in
      Bytes.blit t.buf t.pos t.buf 0 live;
      t.len <- live;
      t.pos <- 0
    end

  let feed t src off n =
    if off < 0 || n < 0 || off + n > Bytes.length src then
      invalid_arg "Framer.feed";
    if t.len + n > Bytes.length t.buf then begin
      compact t;
      if t.len + n > Bytes.length t.buf then begin
        let cap = ref (max initial_bytes (Bytes.length t.buf)) in
        while t.len + n > !cap do cap := !cap * 2 done;
        let bigger = Bytes.create !cap in
        Bytes.blit t.buf 0 bigger 0 t.len;
        t.buf <- bigger
      end
    end;
    Bytes.blit src off t.buf t.len n;
    t.len <- t.len + n

  let buffered t = t.len - t.pos

  (* The frame is decoded where it lies: the cursors read [buf] as a
     string, and nothing writes [buf] before [next] returns. *)
  let next t =
    if t.len - t.pos < 4 then None
    else begin
      let src = Bytes.unsafe_to_string t.buf in
      let n = Codec.get_u32 (Codec.cursor src ~off:t.pos ~len:4) in
      if n = 0 then malformed "frame length 0";
      if n > max_frame_bytes then
        malformed "frame length %d exceeds limit %d" n max_frame_bytes;
      if t.len - t.pos < 4 + n then None
      else begin
        let c = Codec.cursor src ~off:(t.pos + 4) ~len:n in
        t.pos <- t.pos + 4 + n;
        if t.pos = t.len then begin
          t.pos <- 0;
          t.len <- 0;
          let cap = Bytes.length t.buf in
          if cap > release_bytes && cap > 2 * (4 + n) then
            t.buf <- Bytes.create initial_bytes
        end;
        (* [c] still reads the old buffer, which nothing writes *)
        Some (decode_cursor c)
      end
    end
end
