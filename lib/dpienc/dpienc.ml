open Bbx_crypto
open Bbx_tokenizer
module Obs = Bbx_obs.Obs

(* Sender-side encryption accounting: payload bytes in, wire bytes out and
   tokens emitted are added once per [sender_encrypt_into] call; the salt
   counter table's occupancy and deepest counter are sampled as gauges at
   the same cadence — never inside the per-token loop. *)
let obs_bytes_in = Obs.counter "bbx_dpienc_sender_bytes_in_total"
let obs_wire_bytes = Obs.counter "bbx_dpienc_sender_wire_bytes_total"
let obs_tokens = Obs.counter "bbx_dpienc_sender_tokens_total"
let obs_table_entries = Obs.gauge "bbx_dpienc_counter_table_entries"
let obs_max_count = Obs.gauge "bbx_dpienc_counter_max"
let obs_resets = Obs.counter "bbx_dpienc_sender_resets_total"

let rs_bits = 40
let rs_mask = (1 lsl rs_bits) - 1

type key = Aes.key

(* Kept only so the e2ebench harness, which passes [~kernel:Bitsliced], still
   compiles; nothing reads it.  Goes in the next benchmark change. *)
type aes_kernel = Aes.kernel = Bitsliced

let raw_key_of_secret s = Kdf.derive ~secret:s ~label:"dpienc-key" 16

let key_of_secret s = Aes.expand_key (raw_key_of_secret s)

(* Constant pad, hoisted off the hot path (one shared string instead of a
   fresh [String.make] per call). *)
let salt_pad = String.make 8 '\000'

(* The padded token block [t || 0^(16 - token_len)] is built in a reused
   per-domain scratch: [token_enc] runs per *distinct* token on the sender
   but per chunk in rule preparation, where the old [t ^ pad] concat was a
   measurable slice of fleet establish.  Bytes past [token_len] are zeroed
   at creation and never written, so only the token bytes are blitted per
   call.  Domain-local because rule prep runs on the setup worker pool. *)
let token_block_scratch =
  Domain.DLS.new_key (fun () -> (Bytes.make 16 '\000', Bytes.create 16))

let token_enc key t =
  if String.length t <> Tokenizer.token_len then
    invalid_arg "Dpienc: token must be Tokenizer.token_len bytes";
  let src, dst = Domain.DLS.get token_block_scratch in
  Bytes.blit_string t 0 src 0 Tokenizer.token_len;
  Aes.encrypt_block_into key ~src ~src_off:0 ~dst ~dst_off:0;
  Bytes.to_string dst

type token_key = Aes.key

let token_key_of_enc e = Aes.expand_key e
let token_key key t = token_key_of_enc (token_enc key t)

(* Placeholder schedule for the empty slots of a sender's counter table;
   never used to encrypt. *)
let empty_tkey : token_key = Aes.expand_key (String.make 16 '\000')

let encrypt tk ~salt = Aes.encrypt_u64 tk salt land rs_mask

let encrypt_full tk ~salt = Aes.encrypt_block tk (salt_pad ^ Util.u64_be salt)

(* [encrypt_full] xor k_ssl, written straight into [dst]: the mask block
   0^8 || BE64(salt) is produced by [Aes.encrypt_u64_into] (which bounds-
   checks the 16-byte range once) and k_ssl is folded over it in place. *)
let embed_into tk ~salt ~k_ssl ~dst ~dst_off =
  if String.length k_ssl <> 16 then
    invalid_arg "Dpienc.embed_into: k_ssl must be 16 bytes";
  Aes.encrypt_u64_into tk salt ~dst ~dst_off;
  for i = 0 to 15 do
    Bytes.unsafe_set dst (dst_off + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (dst_off + i))
          lxor Char.code (String.unsafe_get k_ssl i)))
  done

type mode = Exact | Probable

let salt_stride = function Exact -> 1 | Probable -> 2

type enc_token = {
  cipher : int;
  embed : string option;
  offset : int;
}

(* Wire record sizes (defined ahead of the sender, whose sweep buffer is
   sized by them): per token a flag byte, 5-byte big-endian cipher, 4-byte
   big-endian stream offset, then the 16-byte embed iff the flag is 1 —
   10 bytes in Exact mode, 26 in Probable. *)
let exact_record_bytes = 10
let probable_record_bytes = 26

(* ---- the counter table ----

   Counters live in a flat open-addressing table keyed by token *value*:
   token values are at most 8 bytes ([Tokenizer.token_len]) and pack
   losslessly into two 32-bit ints (big-endian halves of the zero-padded
   token), so a lookup is an integer hash, a linear probe and two compares
   — no key string, no closure dispatch through [Hashtbl.Make].  The two
   key words and the counter of a slot are interleaved in ONE int array
   ([ptab], three words per slot) so the steady-state hit touches a single
   cache line where parallel arrays would touch three.  A first-seen
   token's key [AES_{AES_k(t)}] is expanded when its slot is claimed.
   Per-token wire output is staged in [wire] and appended with one
   [Buffer.add_subbytes] per sweep of [sweep_cap] records. *)

let sweep_cap = 256
let init_slots = 256 (* power of two; grows at load 1/2 *)

type sender = {
  mode : mode;
  key : key;
  mutable salt0 : int;
  mutable max_count : int;
  (* slot i at 3i: token bytes 0-3 big-endian (-1 = empty), bytes 4-7,
     occurrence count *)
  mutable ptab : int array;
  mutable ptkeys : token_key array;   (* [empty_tkey] in empty slots *)
  mutable pmask : int;                (* slot count - 1 *)
  mutable poccupied : int;
  wire : Bytes.t;                     (* [sweep_cap] staged wire records *)
  mutable sw_n : int;                 (* records staged in [wire] *)
}

let sender_create ?kernel:_ mode key ~salt0 =
  if mode = Probable && salt0 land 1 <> 0 then
    invalid_arg "Dpienc.sender_create: salt0 must be even";
  if Tokenizer.token_len > 8 then
    invalid_arg "Dpienc.sender_create: packed table needs token_len <= 8";
  let rec_bytes =
    match mode with Exact -> exact_record_bytes | Probable -> probable_record_bytes
  in
  { mode; key; salt0; max_count = 0;
    ptab = Array.make (3 * init_slots) (-1);
    ptkeys = Array.make init_slots empty_tkey;
    pmask = init_slots - 1;
    poccupied = 0;
    wire = Bytes.create (sweep_cap * rec_bytes);
    sw_n = 0 }

let sender_salt0 s = s.salt0

(* Materialise the (padded) token value of a slice — first occurrence of a
   distinct token value only. *)
let materialize src off len =
  if len = Tokenizer.token_len then String.sub src off len
  else Tokenizer.pad_short (String.sub src off len)

(* The zero-padded token as two big-endian 32-bit words.  Two scalar
   results rather than one pair — the tuple would be a per-token
   minor-heap allocation on the fold path (no flambda to erase it). *)
let[@inline] pad_byte src off len i =
  if i < len then Char.code (String.unsafe_get src (off + i)) else 0

let[@inline] slice_hi src off len =
  if len >= 4 then
    (Char.code (String.unsafe_get src off) lsl 24)
    lor (Char.code (String.unsafe_get src (off + 1)) lsl 16)
    lor (Char.code (String.unsafe_get src (off + 2)) lsl 8)
    lor Char.code (String.unsafe_get src (off + 3))
  else
    (pad_byte src off len 0 lsl 24)
    lor (pad_byte src off len 1 lsl 16)
    lor (pad_byte src off len 2 lsl 8)
    lor pad_byte src off len 3

let[@inline] slice_lo src off len =
  if len >= 8 then
    (Char.code (String.unsafe_get src (off + 4)) lsl 24)
    lor (Char.code (String.unsafe_get src (off + 5)) lsl 16)
    lor (Char.code (String.unsafe_get src (off + 6)) lsl 8)
    lor Char.code (String.unsafe_get src (off + 7))
  else
    (pad_byte src off len 4 lsl 24)
    lor (pad_byte src off len 5 lsl 16)
    lor (pad_byte src off len 6 lsl 8)
    lor pad_byte src off len 7

let[@inline] phash h1 h2 =
  let h = (h1 * 0x9e3779b1) lxor (h2 * 0x85ebca77) in
  (h lxor (h lsr 31)) land max_int

(* Slot holding (h1, h2), or the first empty slot of its probe chain. *)
let[@inline] pfind s h1 h2 =
  let mask = s.pmask in
  let t = s.ptab in
  let i = ref (phash h1 h2 land mask) in
  while
    (let b = 3 * !i in
     let v = Array.unsafe_get t b in
     v >= 0 && not (v = h1 && Array.unsafe_get t (b + 1) = h2))
  do
    i := (!i + 1) land mask
  done;
  !i

(* Double the table.  Every slot index changes. *)
let pgrow s =
  let ncap = 2 * (s.pmask + 1) in
  let nmask = ncap - 1 in
  let ntab = Array.make (3 * ncap) (-1) in
  let nt = Array.make ncap empty_tkey in
  for i = 0 to s.pmask do
    let h1 = s.ptab.(3 * i) in
    if h1 >= 0 then begin
      let h2 = s.ptab.((3 * i) + 1) in
      let j = ref (phash h1 h2 land nmask) in
      while ntab.(3 * !j) >= 0 do
        j := (!j + 1) land nmask
      done;
      ntab.(3 * !j) <- h1;
      ntab.((3 * !j) + 1) <- h2;
      ntab.((3 * !j) + 2) <- s.ptab.((3 * i) + 2);
      nt.(!j) <- s.ptkeys.(i)
    end
  done;
  s.ptab <- ntab;
  s.ptkeys <- nt;
  s.pmask <- nmask

(* Claim empty slot [i] for the token [src.[off..off+len-1]] (packed as
   [h1], [h2]) with count 0 and its token key.  Returns the token's slot,
   re-probed if the insert grew the table. *)
let insert s i h1 h2 src off len =
  s.ptab.(3 * i) <- h1;
  s.ptab.((3 * i) + 1) <- h2;
  s.ptab.((3 * i) + 2) <- 0;
  s.ptkeys.(i) <- token_key s.key (materialize src off len);
  s.poccupied <- s.poccupied + 1;
  if 2 * s.poccupied > s.pmask + 1 then begin
    pgrow s;
    pfind s h1 h2
  end
  else i

(* The slot of a token slice, inserting it on first sight. *)
let[@inline] slot s src off len =
  let h1 = slice_hi src off len and h2 = slice_lo src off len in
  let i = pfind s h1 h2 in
  if Array.unsafe_get s.ptab (3 * i) >= 0 then i else insert s i h1 h2 src off len

(* ---- wire format ----

   Records are built in place in a private [Bytes.t] and appended with one
   [Buffer.add_subbytes] — per-character [Buffer.add_char] loops would pay
   a bounds check and a potential resize per byte.  The writers are unsafe
   because every call site writes a statically in-range span of its
   (private, fixed-size) buffer. *)

external set_64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap_64 : int64 -> int64 = "%bswap_int64"

(* Flag byte, top cipher byte, then the low 32 cipher bits and the 32-bit
   stream offset as ONE byte-swapped 64-bit store over pos+2..pos+9 — the
   unboxed-primitive chain replaces eight char stores on the per-token
   path.  Every caller writes into a private buffer with at least 10
   bytes headroom at [pos]. *)
let[@inline] put_record_at b pos flag cipher stream_off =
  Bytes.unsafe_set b pos flag;
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((cipher lsr 32) land 0xff));
  set_64u b (pos + 2)
    (bswap_64
       (Int64.logor
          (Int64.shift_left (Int64.of_int (cipher land 0xffffffff)) 32)
          (Int64.of_int (stream_off land 0xffffffff))))

let check_k_ssl s k_ssl =
  match s.mode with
  | Exact -> None
  | Probable ->
    (match k_ssl with
     | None -> invalid_arg "Dpienc.sender_encrypt: Probable mode needs ~k_ssl"
     | Some k ->
       if String.length k <> 16 then
         invalid_arg "Dpienc.sender_encrypt: k_ssl must be 16 bytes";
       Some k)

(* This occurrence's salt for slot [i], bumping its counter. *)
let[@inline] take_salt s i =
  let b = (3 * i) + 2 in
  let c = Array.unsafe_get s.ptab b in
  Array.unsafe_set s.ptab b (c + 1);
  if c + 1 > s.max_count then s.max_count <- c + 1;
  s.salt0 + (salt_stride s.mode * c)

let encrypt_one s ~k_ssl (tok : Tokenizer.token) =
  let k_ssl = check_k_ssl s k_ssl in
  if String.length tok.Tokenizer.content <> Tokenizer.token_len then
    invalid_arg "Dpienc: token must be Tokenizer.token_len bytes";
  let i = slot s tok.Tokenizer.content 0 Tokenizer.token_len in
  let tkey = s.ptkeys.(i) in
  let salt = take_salt s i in
  let cipher = encrypt tkey ~salt in
  let embed =
    match k_ssl with
    | None -> None
    | Some k -> Some (Util.xor (encrypt_full tkey ~salt:(salt + 1)) k)
  in
  { cipher; embed; offset = tok.Tokenizer.offset }

let sender_encrypt s ?k_ssl tokens = List.map (encrypt_one s ~k_ssl) tokens

let sender_reset s =
  let stride = salt_stride s.mode in
  s.salt0 <- s.salt0 + (stride * (s.max_count + 1));
  s.max_count <- 0;
  Array.fill s.ptab 0 (3 * (s.pmask + 1)) (-1);
  (* drop the expanded schedules so a reset returns the memory *)
  Array.fill s.ptkeys 0 (s.pmask + 1) empty_tkey;
  s.poccupied <- 0;
  Obs.incr obs_resets;
  s.salt0

type tokenization = Window | Delimiter of { short_units : bool }

(* The fold pass: each token's cipher (and embed) is written straight into
   the sweep's wire block at its wire position; the block is appended to
   [buf] whenever it fills and once at the end.  Salts are assigned in
   token order. *)
let sender_encrypt_into s ?k_ssl ?(base = 0) ?(tokenization = Window) payload buf =
  let k_ssl = check_k_ssl s k_ssl in
  let wire0 = Buffer.length buf in
  let rec_bytes =
    if k_ssl = None then exact_record_bytes else probable_record_bytes
  in
  let flag = if k_ssl = None then '\000' else '\001' in
  let wire = s.wire in
  let flush () =
    Buffer.add_subbytes buf wire 0 (s.sw_n * rec_bytes);
    s.sw_n <- 0
  in
  let[@inline] emit tkey salt off =
    let pos = s.sw_n * rec_bytes in
    put_record_at wire pos flag (Aes.encrypt_u64 tkey salt land rs_mask) off;
    (match k_ssl with
     | None -> ()
     | Some k ->
       embed_into tkey ~salt:(salt + 1) ~k_ssl:k ~dst:wire ~dst_off:(pos + 10));
    s.sw_n <- s.sw_n + 1;
    if s.sw_n = sweep_cap then flush ()
  in
  (* Window tokenization, specialized: windows are always [token_len]
     bytes at stride 1, so the halves ROLL one byte per step instead of
     re-reading eight, and the next window's probe runs before the
     current token's encryption — its cache misses (slot line, tkey
     pointer) resolve under the ~140-lookup T-table chain instead of in
     front of it.  The look-ahead probe runs after the current token's
     insert, so it always sees the current table shape, even when the
     insert occupies the very slot the probe would stop at, or grows the
     table. *)
  let window_pass () =
    let last = String.length payload - Tokenizer.token_len in
    if last < 0 then 0
    else begin
      let h1 = ref (slice_hi payload 0 8) and h2 = ref (slice_lo payload 0 8) in
      let ni = ref (pfind s !h1 !h2) in
      let ntk = ref (Array.unsafe_get s.ptkeys !ni) in
      for off = 0 to last do
        let ch1 = !h1 and ch2 = !h2 in
        let i = !ni in
        let fresh = Array.unsafe_get s.ptab (3 * i) < 0 in
        let i = if fresh then insert s i ch1 ch2 payload off 8 else i in
        let tk = if fresh then Array.unsafe_get s.ptkeys i else !ntk in
        let salt = take_salt s i in
        (* look ahead one window before the encrypt below *)
        if off < last then begin
          let b = Char.code (String.unsafe_get payload (off + 8)) in
          let nh1 = ((ch1 lsl 8) lor (ch2 lsr 24)) land 0xffffffff in
          let nh2 = ((ch2 lsl 8) lor b) land 0xffffffff in
          h1 := nh1;
          h2 := nh2;
          let k = pfind s nh1 nh2 in
          ni := k;
          ntk := Array.unsafe_get s.ptkeys k
        end;
        emit tk salt (base + off)
      done;
      last + 1
    end
  in
  let f count ~off ~len =
    let i = slot s payload off len in
    let salt = take_salt s i in
    emit (Array.unsafe_get s.ptkeys i) salt (base + off);
    count + 1
  in
  let count =
    match tokenization with
    | Window ->
      let c = window_pass () in
      Tokenizer.note_window_scan payload;
      c
    | Delimiter { short_units } ->
      Tokenizer.fold_delimiter ~short_units payload ~init:0 ~f
  in
  flush ();
  Obs.add obs_bytes_in (String.length payload);
  Obs.add obs_wire_bytes (Buffer.length buf - wire0);
  Obs.add obs_tokens count;
  Obs.set_gauge obs_table_entries s.poccupied;
  Obs.set_gauge obs_max_count s.max_count;
  count

let encode_tokens toks =
  let per_token =
    match toks with
    | { embed = Some _; _ } :: _ -> probable_record_bytes
    | _ -> exact_record_bytes
  in
  let buf = Buffer.create (per_token * List.length toks) in
  let scratch = Bytes.create exact_record_bytes in
  List.iter
    (fun { cipher; embed; offset } ->
       put_record_at scratch 0 (if embed = None then '\000' else '\001') cipher offset;
       Buffer.add_subbytes buf scratch 0 exact_record_bytes;
       match embed with None -> () | Some e -> Buffer.add_string buf e)
    toks;
  Buffer.contents buf

let[@inline] u8 s i = Char.code (String.unsafe_get s i)

(* Streaming decode: one callback per record, no list, no substrings.
   [embed_pos] is the byte position of the 16-byte embed inside [s], or
   [-1] when the record carries none.  The truncation check at the top of
   each iteration covers the whole 10-byte record head, so the field reads
   use unsafe indexing. *)
let decode_iter s ~f =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let p = !pos in
    if p + exact_record_bytes > n then invalid_arg "Dpienc.decode_tokens: truncated";
    let has_embed = String.unsafe_get s p = '\001' in
    let cipher =
      (u8 s (p + 1) lsl 32) lor (u8 s (p + 2) lsl 24) lor (u8 s (p + 3) lsl 16)
      lor (u8 s (p + 4) lsl 8) lor u8 s (p + 5)
    in
    let offset =
      (u8 s (p + 6) lsl 24) lor (u8 s (p + 7) lsl 16) lor (u8 s (p + 8) lsl 8)
      lor u8 s (p + 9)
    in
    let p = p + exact_record_bytes in
    if has_embed then begin
      if p + 16 > n then invalid_arg "Dpienc.decode_tokens: truncated embed";
      f ~cipher ~offset ~embed_pos:p;
      pos := p + 16
    end
    else begin
      f ~cipher ~offset ~embed_pos:(-1);
      pos := p
    end
  done

let decode_tokens s =
  let acc = ref [] in
  decode_iter s ~f:(fun ~cipher ~offset ~embed_pos ->
      let embed = if embed_pos < 0 then None else Some (String.sub s embed_pos 16) in
      acc := { cipher; embed; offset } :: !acc);
  List.rev !acc

let wire_token_count s =
  let count = ref 0 in
  decode_iter s ~f:(fun ~cipher:_ ~offset:_ ~embed_pos:_ -> incr count);
  !count
