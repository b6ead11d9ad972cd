module Dpienc = Bbx_dpienc.Dpienc
module Tokenizer = Bbx_tokenizer.Tokenizer

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let max_frame_bytes = 16 * 1024 * 1024

let version = 2

let chunk_len = Tokenizer.token_len
let enc_len = 16

type detail = [ `Exact_hit | `Composite_match | `Regex_match | `Budget_exceeded ]

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
let err_internal = 5

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

let mode_byte = function Dpienc.Exact -> 0 | Dpienc.Probable -> 1

let mode_of_byte = function
  | 0 -> Dpienc.Exact
  | 1 -> Dpienc.Probable
  | b -> malformed "bad mode byte %d" b

let detail_byte = function
  | `Exact_hit -> 0
  | `Composite_match -> 1
  | `Regex_match -> 2
  | `Budget_exceeded -> 3

let detail_of_byte = function
  | 0 -> `Exact_hit
  | 1 -> `Composite_match
  | 2 -> `Regex_match
  | 3 -> `Budget_exceeded
  | b -> malformed "bad detail byte %d" b

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

(* ---------- writer ---------- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u16 buf v =
  if v < 0 || v > 0xffff then invalid_arg "Wire.put_u16";
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire.put_u32";
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_i64 buf v =
  let v64 = Int64.of_int v in
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (8 * i)) 0xffL)))
  done

let put_str16 buf s =
  put_u16 buf (String.length s);
  Buffer.add_string buf s

let put_str32 buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_pairs buf pairs =
  put_u32 buf (Array.length pairs);
  Array.iter
    (fun (chunk, enc) ->
       if String.length chunk <> chunk_len then
         invalid_arg "Wire: rule chunk must be token_len bytes";
       if String.length enc <> enc_len then
         invalid_arg "Wire: rule encryption must be 16 bytes";
       Buffer.add_string buf chunk;
       Buffer.add_string buf enc)
    pairs

(* ---------- reader ---------- *)

type cursor = { src : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.src then
    malformed "truncated frame (need %d bytes at %d of %d)" n c.pos
      (String.length c.src)

let get_u8 c =
  need c 1;
  let v = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = (Char.code c.src.[c.pos] lsl 8) lor Char.code c.src.[c.pos + 1] in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v =
    (Char.code c.src.[c.pos] lsl 24)
    lor (Char.code c.src.[c.pos + 1] lsl 16)
    lor (Char.code c.src.[c.pos + 2] lsl 8)
    lor Char.code c.src.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.src.[c.pos]));
    c.pos <- c.pos + 1
  done;
  (* salts are OCaml ints on both sides; 63 bits is plenty *)
  Int64.to_int !v

let get_bytes c n =
  need c n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_str16 c = get_bytes c (get_u16 c)

let get_str32 c = get_bytes c (get_u32 c)

let get_rest c =
  let s = String.sub c.src c.pos (String.length c.src - c.pos) in
  c.pos <- String.length c.src;
  s

let get_pairs c =
  let n = get_u32 c in
  (* each pair is chunk_len + enc_len bytes: reject counts the body cannot
     hold before allocating the array *)
  if n * (chunk_len + enc_len) > String.length c.src - c.pos then
    malformed "rule table count %d exceeds frame body" n;
  Array.init n (fun _ ->
      let chunk = get_bytes c chunk_len in
      let enc = get_bytes c enc_len in
      (chunk, enc))

let finish c msg_name =
  if c.pos <> String.length c.src then
    malformed "%s: %d trailing bytes" msg_name (String.length c.src - c.pos)

(* ---------- codec ---------- *)

let encode_payload buf msg =
  put_u8 buf (type_byte msg);
  match msg with
  | Hello { version; mode; salt0; features } ->
    put_u8 buf version;
    put_u8 buf (mode_byte mode);
    put_i64 buf salt0;
    put_u8 buf features
  | Hello_ok { conn_id; mode; rules_text } ->
    put_u32 buf conn_id;
    put_u8 buf (mode_byte mode);
    Buffer.add_string buf rules_text
  | Rule_setup { pairs } -> put_pairs buf pairs
  | Token_stream { seq; records } ->
    put_u32 buf seq;
    Buffer.add_string buf records
  | Verdict { seq; status; verdicts } ->
    put_u32 buf seq;
    put_u8 buf (status_byte status);
    put_u16 buf (List.length verdicts);
    List.iter
      (fun v ->
         put_u32 buf v.v_sid;
         put_u8 buf (detail_byte v.v_detail);
         put_str16 buf v.v_msg)
      verdicts
  | Salt_reset { salt0 } -> put_i64 buf salt0
  | Rule_update { remove_sids; add_text; pairs } ->
    put_u16 buf (List.length remove_sids);
    List.iter (put_u32 buf) remove_sids;
    put_str32 buf add_text;
    put_pairs buf pairs
  | Update_ok { added } -> put_u32 buf added
  | Stats s ->
    put_i64 buf s.s_connections;
    put_i64 buf s.s_total_tokens;
    put_i64 buf s.s_total_keyword_hits;
    put_i64 buf s.s_alerts;
    put_i64 buf s.s_blocked
  | Error { code; message } ->
    put_u16 buf code;
    put_str16 buf message
  | Metrics_req { scope } -> put_u8 buf (scope_byte scope)
  | Metrics { scope; body } ->
    put_u8 buf (scope_byte scope);
    Buffer.add_string buf body
  | Record_stream { seq; record } ->
    put_u32 buf seq;
    Buffer.add_string buf record
  | Conn_state { state } | Conn_import { state } -> Buffer.add_string buf state
  | Setup_ok | Stats_req | Bye | Conn_export -> ()

let encode_frame buf msg =
  let body = Buffer.create 64 in
  encode_payload body msg;
  let n = Buffer.length body in
  if n > max_frame_bytes then invalid_arg "Wire.encode_frame: frame too large";
  put_u32 buf n;
  Buffer.add_buffer buf body

let encode_frame_string msg =
  let buf = Buffer.create 64 in
  encode_frame buf msg;
  Buffer.contents buf

let decode payload =
  if String.length payload = 0 then malformed "empty frame";
  let c = { src = payload; pos = 0 } in
  let msg =
    match get_u8 c with
    | 1 ->
      let version = get_u8 c in
      let mode = mode_of_byte (get_u8 c) in
      let salt0 = get_i64 c in
      let features = get_u8 c in
      Hello { version; mode; salt0; features }
    | 2 ->
      let conn_id = get_u32 c in
      let mode = mode_of_byte (get_u8 c) in
      let rules_text = get_rest c in
      Hello_ok { conn_id; mode; rules_text }
    | 3 -> Rule_setup { pairs = get_pairs c }
    | 4 -> Setup_ok
    | 5 ->
      let seq = get_u32 c in
      let records = get_rest c in
      Token_stream { seq; records }
    | 6 ->
      let seq = get_u32 c in
      let status = status_of_byte (get_u8 c) in
      let n = get_u16 c in
      let verdicts =
        List.init n (fun _ ->
            let v_sid = get_u32 c in
            let v_detail = detail_of_byte (get_u8 c) in
            let v_msg = get_str16 c in
            { v_sid; v_detail; v_msg })
      in
      Verdict { seq; status; verdicts }
    | 7 -> Salt_reset { salt0 = get_i64 c }
    | 8 ->
      let n = get_u16 c in
      let remove_sids = List.init n (fun _ -> get_u32 c) in
      let add_text = get_str32 c in
      let pairs = get_pairs c in
      Rule_update { remove_sids; add_text; pairs }
    | 9 -> Update_ok { added = get_u32 c }
    | 10 -> Stats_req
    | 11 ->
      let s_connections = get_i64 c in
      let s_total_tokens = get_i64 c in
      let s_total_keyword_hits = get_i64 c in
      let s_alerts = get_i64 c in
      let s_blocked = get_i64 c in
      Stats { s_connections; s_total_tokens; s_total_keyword_hits; s_alerts; s_blocked }
    | 12 -> Bye
    | 13 ->
      let code = get_u16 c in
      let message = get_str16 c in
      Error { code; message }
    | 14 -> Metrics_req { scope = scope_of_byte (get_u8 c) }
    | 15 ->
      let scope = scope_of_byte (get_u8 c) in
      let body = get_rest c in
      Metrics { scope; body }
    | 16 ->
      let seq = get_u32 c in
      let record = get_rest c in
      Record_stream { seq; record }
    | 18 -> Conn_export
    | 19 -> Conn_state { state = get_rest c }
    | 20 -> Conn_import { state = get_rest c }
    | ty -> malformed "unknown message type %d" ty
  in
  finish c "frame";
  msg

(* ---------- incremental framer ---------- *)

module Framer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;  (* valid bytes in [buf] *)
    mutable pos : int;  (* consumed prefix *)
    max_frame : int;
  }

  let create ?(max_frame = max_frame_bytes) () =
    { buf = Bytes.create 4096; len = 0; pos = 0; max_frame }

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
        let cap = ref (max 4096 (Bytes.length t.buf)) in
        while t.len + n > !cap do cap := !cap * 2 done;
        let bigger = Bytes.create !cap in
        Bytes.blit t.buf 0 bigger 0 t.len;
        t.buf <- bigger
      end
    end;
    Bytes.blit src off t.buf t.len n;
    t.len <- t.len + n

  let buffered t = t.len - t.pos

  let peek_len t =
    let b i = Char.code (Bytes.get t.buf (t.pos + i)) in
    (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

  let next t =
    if t.len - t.pos < 4 then None
    else begin
      let n = peek_len t in
      if n <= 0 then malformed "frame length %d" n;
      if n > t.max_frame then
        malformed "frame length %d exceeds limit %d" n t.max_frame;
      if t.len - t.pos < 4 + n then None
      else begin
        let payload = Bytes.sub_string t.buf (t.pos + 4) n in
        t.pos <- t.pos + 4 + n;
        if t.pos = t.len then begin
          t.pos <- 0;
          t.len <- 0
        end;
        Some payload
      end
    end
end
