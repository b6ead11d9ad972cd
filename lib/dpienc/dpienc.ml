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

(* The padded token block [t || 0^(16 - token_len)] is built in a reused
   per-domain scratch: [token_enc] runs per chunk in rule preparation,
   where a fresh [t ^ pad] concat was a measurable slice of fleet
   establish.  Bytes past [token_len] are zeroed at creation and never
   written, so only the token bytes are blitted per call.  Domain-local
   because rule prep runs on the setup worker pool. *)
let token_block_scratch =
  Domain.DLS.new_key (fun () -> (Bytes.make 16 '\000', Bytes.create 16))

let token_enc key t =
  if String.length t <> Tokenizer.token_len then
    invalid_arg "Dpienc: token must be Tokenizer.token_len bytes";
  let src, dst = Domain.DLS.get token_block_scratch in
  Bytes.blit_string t 0 src 0 Tokenizer.token_len;
  Aes.encrypt_block_into (Aes.key_arena key) 0 ~src ~src_off:0 ~dst ~dst_off:0;
  Bytes.to_string dst

(* ---- token keys ----

   A token key [AES_{AES_k(t)}] lives in a slot of an [Aes.arena].  The
   sender keeps one per distinct token of a salt period in its key pages
   (below).  The middlebox keeps only [AES_k(t)] per rule chunk and
   encrypts under it with the one-shot [Aes.encrypt_u64_once] whenever it
   needs that chunk's next cipher. *)

let arena_cipher a slot ~salt = Aes.encrypt_u64 a slot salt land rs_mask

(* AES_{a[slot]}(0^8 || BE64(salt)) xor [x], written straight into [dst]:
   the mask block is produced by [Aes.encrypt_u64_into] (which bounds-
   checks the 16-byte range once) and [x] is folded over it in place.
   With [x = k_ssl] this is the Probable-mode embed; with [x] the embed
   it recovers [k_ssl].  [x] is 16 bytes. *)
let mask_xor_into a slot ~salt x ~dst ~dst_off =
  Aes.encrypt_u64_into a slot salt ~dst ~dst_off;
  for i = 0 to 15 do
    Bytes.unsafe_set dst (dst_off + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (dst_off + i))
          lxor Char.code (String.unsafe_get x i)))
  done

let cipher enc ~salt = Aes.encrypt_u64_once enc salt land rs_mask

let mask_xor enc ~salt x =
  if String.length x <> 16 then invalid_arg "Dpienc.mask_xor: need 16 bytes";
  let a = Array.make Aes.key_words 0 in
  Aes.expand_into a 0 enc;
  let dst = Bytes.create 16 in
  mask_xor_into a 0 ~salt x ~dst ~dst_off:0;
  Bytes.unsafe_to_string dst

type mode = Exact | Probable

let mode_byte = function Exact -> 0 | Probable -> 1

let mode_of_byte = function 0 -> Some Exact | 1 -> Some Probable | _ -> None

let salt_stride = function Exact -> 1 | Probable -> 2

(* ---- wire format (Wire.version 3) ----

   A token stream is zero or more runs.  A run is a header — a layout
   byte, the record count and the base offset, both LEB128 varints —
   then [count] records.  Layout bit 0 set: each record carries the
   16-byte embed; bit 1 set: offsets are explicit; every other bit is 0.
   A record is the 5-byte big-endian cipher, plus the embed.  In an
   implicit-offset run (window tokens) record [i] sits at offset
   [base + i]; in an explicit-offset run (delimiter tokens) each record
   starts with a zigzag varint, the delta from the previous record's
   offset (from the base for the first).  Offsets are mod 2^32; every
   varint is at most 5 bytes and below 2^32, and a count is at least 1.
   One [sender_encrypt_into] call that emits tokens writes one run, so
   per-call outputs put end to end are a stream.  The record sizes are
   defined ahead of the sender, whose sweep buffer is sized by them. *)
let exact_record_bytes = 5
let probable_record_bytes = 21
let layout_embed = 1
let layout_explicit = 2
let max_varint_bytes = 5
let max_header_bytes = 1 + (2 * max_varint_bytes)
let offset_mask = 0xffffffff

(* ---- the counter table ----

   Counters live in a flat open-addressing table keyed by token *value*:
   token values are at most 8 bytes ([Tokenizer.token_len]) and pack
   losslessly into two 32-bit ints (big-endian halves of the zero-padded
   token), so a lookup is an integer hash, a linear probe and two compares
   — no key string, no closure dispatch through [Hashtbl.Make].  The two
   key words, the counter and the key id of a slot are interleaved in ONE
   int array ([ptab], four words per slot) so the steady-state hit
   touches a single cache line where parallel arrays would touch four.

   A first-seen token's key [AES_{AES_k(t)}] is expanded when its slot is
   claimed, under the next key id: key ids run in insertion order, so
   table growth moves slots but never a schedule, and the keys held are
   exactly the distinct tokens (half the words of an arena indexed by
   table slot at load <= 1/2).  Key id [i] lives in page
   [i lsr page_bits] of [pkeys], at slot [i land (page_keys - 1)].  A
   page is allocated when the id counter first reaches it, so an idle
   sender holds no keys and no key is ever copied (a single doubling
   arena would allocate about three times the bytes of the keys it ends
   up holding).  A reset rewinds the id counter and keeps the pages, as
   it keeps [ptab].  Per-token wire output (and the run header
   before the first record) is staged in [wire] and appended with one
   [Buffer.add_subbytes] per sweep of [sweep_cap] records. *)

let sweep_cap = 256
let init_slots = 256 (* power of two; grows at load 1/2 *)
let page_bits = 10
let page_keys = 1 lsl page_bits (* 384 KiB of expanded keys *)

type sender = {
  mode : mode;
  key : key;
  mutable salt0 : int;
  mutable max_count : int;
  (* slot i at 4i: token bytes 0-3 big-endian (-1 = empty), bytes 4-7,
     occurrence count, key id *)
  mutable ptab : int array;
  mutable pmask : int;                (* slot count - 1 *)
  mutable poccupied : int;            (* = the next key id *)
  mutable pkeys : Aes.arena array;    (* pages of key id -> AES_{AES_k(t)};
                                         [||] until the first insert *)
  tblk : Bytes.t;                     (* scratch: the padded token t || 0^8 *)
  kblk : Bytes.t;                     (* scratch: AES_k(t) *)
  wire : Bytes.t;                     (* staged run header and records *)
  mutable sw_pos : int;               (* bytes staged in [wire] *)
  mutable sw_n : int;                 (* records staged in [wire] *)
  mutable sw_off : int;               (* explicit runs: the previous offset *)
}

let sender_create ?kernel:_ mode key ~salt0 =
  if mode = Probable && salt0 land 1 <> 0 then
    invalid_arg "Dpienc.sender_create: salt0 must be even";
  if Tokenizer.token_len > 8 then
    invalid_arg "Dpienc.sender_create: packed table needs token_len <= 8";
  (* the longest record is a 5-byte delta, the cipher and the embed; the
     last cipher's 64-bit store runs 3 bytes past its record *)
  let max_record =
    max_varint_bytes
    + (match mode with Exact -> exact_record_bytes | Probable -> probable_record_bytes)
  in
  { mode; key; salt0; max_count = 0;
    ptab = Array.make (4 * init_slots) (-1);
    pmask = init_slots - 1;
    poccupied = 0;
    pkeys = [||];
    tblk = Bytes.make 16 '\000';
    kblk = Bytes.create 16;
    wire = Bytes.create (max_header_bytes + (sweep_cap * max_record) + 8);
    sw_pos = 0;
    sw_n = 0;
    sw_off = 0 }

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
    (let b = 4 * !i in
     let v = Array.unsafe_get t b in
     v >= 0 && not (v = h1 && Array.unsafe_get t (b + 1) = h2))
  do
    i := (!i + 1) land mask
  done;
  !i

(* Double the table.  Every slot index changes; key ids travel with
   their slots. *)
let pgrow s =
  let ncap = 2 * (s.pmask + 1) in
  let nmask = ncap - 1 in
  let ntab = Array.make (4 * ncap) (-1) in
  for i = 0 to s.pmask do
    let h1 = s.ptab.(4 * i) in
    if h1 >= 0 then begin
      let h2 = s.ptab.((4 * i) + 1) in
      let j = ref (phash h1 h2 land nmask) in
      while ntab.(4 * !j) >= 0 do
        j := (!j + 1) land nmask
      done;
      Array.blit s.ptab (4 * i) ntab (4 * !j) 4
    end
  done;
  s.ptab <- ntab;
  s.pmask <- nmask

external set_64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap_64 : int64 -> int64 = "%bswap_int64"

(* The page holding key id [id], whose slot there is
   [id land (page_keys - 1)]. *)
let[@inline] key_page s id = s.pkeys.(id lsr page_bits)

(* Room for key id [id], the next one: ids are claimed one at a time, so
   [id] falls outside the pages only as the first id of the next page. *)
let reserve_key s id =
  if id lsr page_bits = Array.length s.pkeys then
    s.pkeys <- Array.append s.pkeys [| Array.make (page_keys * Aes.key_words) 0 |]

(* Expand the key of the token packed as [h1], [h2] into key id [id]:
   the padded token t || 0^8 is [h1], [h2] big-endian, so it is written
   into [tblk] with one store and encrypted under k into [kblk], which is
   expanded in place — the string view of [kblk] lives only for the
   [expand_into] call, which reads it and keeps nothing. *)
let expand_token_key s id h1 h2 =
  reserve_key s id;
  set_64u s.tblk 0
    (bswap_64 (Int64.logor (Int64.shift_left (Int64.of_int h1) 32) (Int64.of_int h2)));
  Aes.encrypt_block_into (Aes.key_arena s.key) 0 ~src:s.tblk ~src_off:0 ~dst:s.kblk ~dst_off:0;
  Aes.expand_into (key_page s id) (id land (page_keys - 1)) (Bytes.unsafe_to_string s.kblk)

(* Claim empty slot [i] for the token packed as [h1], [h2] with count 0
   and the next key id.  Returns the token's slot, re-probed if the
   insert grew the table. *)
let insert s i h1 h2 =
  let id = s.poccupied in
  let b = 4 * i in
  s.ptab.(b) <- h1;
  s.ptab.(b + 1) <- h2;
  s.ptab.(b + 2) <- 0;
  s.ptab.(b + 3) <- id;
  expand_token_key s id h1 h2;
  s.poccupied <- id + 1;
  if 2 * s.poccupied > s.pmask + 1 then begin
    pgrow s;
    pfind s h1 h2
  end
  else i

(* The slot of a token slice, inserting it on first sight. *)
let[@inline] slot s src off len =
  let h1 = slice_hi src off len and h2 = slice_lo src off len in
  let i = pfind s h1 h2 in
  if Array.unsafe_get s.ptab (4 * i) >= 0 then i else insert s i h1 h2

(* ---- staging ----

   Runs are built in place in a private [Bytes.t] and appended with one
   [Buffer.add_subbytes] — per-character [Buffer.add_char] loops would pay
   a bounds check and a potential resize per byte.  The writers are unsafe
   because every call site writes a statically in-range span of its
   (private, fixed-size) buffer. *)

(* The 5 cipher bytes as ONE byte-swapped 64-bit store of [cipher lsl 24]
   over pos..pos+7: the 3 zero bytes past the cipher are overwritten by
   whatever is staged next, and never flushed.  Every caller writes into
   a private buffer with at least 8 bytes headroom at [pos]. *)
let[@inline] put_cipher b pos cipher =
  set_64u b pos (bswap_64 (Int64.shift_left (Int64.of_int cipher) 24))

(* LEB128 [v] (>= 0) at [pos]; the position after it. *)
let put_varint b pos v =
  let pos = ref pos and v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7;
    incr pos
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !v);
  !pos + 1

(* The embed key of this call: [""] in Exact mode, where records carry
   no embed. *)
let check_k_ssl s k_ssl =
  match s.mode with
  | Exact -> ""
  | Probable ->
    (match k_ssl with
     | None -> invalid_arg "Dpienc.sender_encrypt_into: Probable mode needs ~k_ssl"
     | Some k ->
       if String.length k <> 16 then
         invalid_arg "Dpienc.sender_encrypt_into: k_ssl must be 16 bytes";
       k)

(* This occurrence's salt for slot [i], bumping its counter. *)
let[@inline] take_salt s i =
  let b = (4 * i) + 2 in
  let c = Array.unsafe_get s.ptab b in
  Array.unsafe_set s.ptab b (c + 1);
  if c + 1 > s.max_count then s.max_count <- c + 1;
  s.salt0 + (salt_stride s.mode * c)

let sender_reset s =
  let stride = salt_stride s.mode in
  s.salt0 <- s.salt0 + (stride * (s.max_count + 1));
  s.max_count <- 0;
  Array.fill s.ptab 0 (4 * (s.pmask + 1)) (-1);
  (* rewind the key ids; the pages stay, as [ptab] does *)
  s.poccupied <- 0;
  Obs.incr obs_resets;
  s.salt0

type tokenization = Window | Delimiter of { short_units : bool }

(* The per-token output path.  Each token's cipher (and embed) is written
   straight into the sweep's wire block at its wire position; the block
   is appended to [buf] whenever it fills and once at the end of a call.
   These are top-level functions with the call's state as arguments, not
   closures over it, so a window call allocates nothing at all. *)
let flush s buf =
  Buffer.add_subbytes buf s.wire 0 s.sw_pos;
  s.sw_pos <- 0;
  s.sw_n <- 0

(* Stage the header of this call's run of [count] records, whose offsets
   start from [base]; nothing when the call emits no token. *)
let open_run s k_ssl ~explicit ~count base =
  if count > 0 then begin
    let layout =
      (if String.length k_ssl = 0 then 0 else layout_embed)
      lor if explicit then layout_explicit else 0
    in
    Bytes.unsafe_set s.wire s.sw_pos (Char.unsafe_chr layout);
    let pos = put_varint s.wire (s.sw_pos + 1) count in
    s.sw_pos <- put_varint s.wire pos (base land offset_mask);
    s.sw_off <- base land offset_mask
  end

(* Stage a record's cipher and embed at [pos], then count it. *)
let[@inline] emit_at s buf k_ssl id salt pos =
  let page = key_page s id and k = id land (page_keys - 1) in
  put_cipher s.wire pos (arena_cipher page k ~salt);
  if String.length k_ssl = 0 then s.sw_pos <- pos + exact_record_bytes
  else begin
    mask_xor_into page k ~salt:(salt + 1) k_ssl ~dst:s.wire ~dst_off:(pos + 5);
    s.sw_pos <- pos + probable_record_bytes
  end;
  s.sw_n <- s.sw_n + 1;
  if s.sw_n = sweep_cap then flush s buf

(* An explicit-offset record: the offset's delta from the previous one,
   taken mod 2^32 as a signed 32-bit int and zigzag-coded (short units
   follow the full tokens, so offsets run backwards once), then the
   cipher and embed. *)
let emit_explicit s buf k_ssl id salt off =
  let off = off land offset_mask in
  let d = (off - s.sw_off) land offset_mask in
  let d = if d > 0x7fffffff then d - (offset_mask + 1) else d in
  s.sw_off <- off;
  emit_at s buf k_ssl id salt (put_varint s.wire s.sw_pos ((d lsl 1) lxor (d asr 62)))

(* Window tokenization, specialized: windows are always [token_len]
   bytes at stride 1, so the halves ROLL one byte per step instead of
   re-reading eight, and the next window's probe runs before the current
   token's encryption — its cache miss (the slot line, which also holds
   the key id) resolves under the ~140-lookup T-table chain instead of in
   front of it.  The look-ahead probe runs after the current token's
   insert, so it always sees the current table shape, even when the
   insert occupies the very slot the probe would stop at, or grows the
   table. *)
let window_pass s buf k_ssl base payload =
  let last = String.length payload - Tokenizer.token_len in
  if last < 0 then 0
  else begin
    open_run s k_ssl ~explicit:false ~count:(last + 1) base;
    let h1 = ref (slice_hi payload 0 8) and h2 = ref (slice_lo payload 0 8) in
    let ni = ref (pfind s !h1 !h2) in
    let nid = ref (Array.unsafe_get s.ptab ((4 * !ni) + 3)) in
    for off = 0 to last do
      let ch1 = !h1 and ch2 = !h2 in
      let i = !ni in
      let fresh = Array.unsafe_get s.ptab (4 * i) < 0 in
      let i = if fresh then insert s i ch1 ch2 else i in
      let id = if fresh then Array.unsafe_get s.ptab ((4 * i) + 3) else !nid in
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
        nid := Array.unsafe_get s.ptab ((4 * k) + 3)
      end;
      emit_at s buf k_ssl id salt s.sw_pos
    done;
    last + 1
  end

(* Salts are assigned in token order. *)
let sender_encrypt_into s ?k_ssl ?(base = 0) ?(tokenization = Window) payload buf =
  let k_ssl = check_k_ssl s k_ssl in
  let wire0 = Buffer.length buf in
  let count =
    match tokenization with
    | Window ->
      let c = window_pass s buf k_ssl base payload in
      Tokenizer.note_window_scan payload;
      c
    | Delimiter { short_units } ->
      Tokenizer.fold_delimiter ~short_units payload
        ~on_count:(fun count -> open_run s k_ssl ~explicit:true ~count base)
        ~init:0 ~f:(fun count ~off ~len ->
          let i = slot s payload off len in
          let salt = take_salt s i in
          emit_explicit s buf k_ssl (Array.unsafe_get s.ptab ((4 * i) + 3)) salt (base + off);
          count + 1)
  in
  flush s buf;
  Obs.add obs_bytes_in (String.length payload);
  Obs.add obs_wire_bytes (Buffer.length buf - wire0);
  Obs.add obs_tokens count;
  Obs.set_gauge obs_table_entries s.poccupied;
  Obs.set_gauge obs_max_count s.max_count;
  count

let[@inline] u8 s i = Char.code (String.unsafe_get s i)

let[@inline] cipher_at s p =
  (u8 s p lsl 32) lor (u8 s (p + 1) lsl 24) lor (u8 s (p + 2) lsl 16)
  lor (u8 s (p + 3) lsl 8) lor u8 s (p + 4)

(* The varint at [p] of [s], which ends at [n], packed as [(value lsl 3)
   lor length]: -1 when [n] cuts it, -2 when it runs past
   [max_varint_bytes] or is not below 2^32.  One int, so the walks below
   read a varint with no allocation and no closure. *)
let varint s p n =
  let v = ref 0 and q = ref p and more = ref true in
  while !more && !q < n && !q - p < max_varint_bytes do
    let b = u8 s !q in
    v := !v lor ((b land 0x7f) lsl (7 * (!q - p)));
    incr q;
    more := b >= 0x80
  done;
  if !more then if !q < n then -2 else -1
  else if !v > offset_mask then -2
  else (!v lsl 3) lor (!q - p)

(* [varint] with the one-byte case — nearly every delimiter delta —
   inline. *)
let[@inline] varint_fast s p n =
  if p < n && String.unsafe_get s p < '\x80' then (u8 s p lsl 3) lor 1 else varint s p n

let[@inline] zigzag_decode z = (z lsr 1) lxor (-(z land 1))

let bad_varint v =
  invalid_arg (if v = -1 then "Dpienc.decode_iter: truncated" else "Dpienc.decode_iter: bad varint")

(* The run at [pos]: (layout, count, base, position of its first
   record).  Raises [Invalid_argument] on a bad header. *)
let run_header s pos =
  let n = String.length s in
  let layout = u8 s pos in
  if layout > layout_embed lor layout_explicit then
    invalid_arg "Dpienc.decode_iter: bad layout";
  let c = varint s (pos + 1) n in
  if c < 0 then bad_varint c;
  if c lsr 3 = 0 then invalid_arg "Dpienc.decode_iter: empty run";
  let b = varint s (pos + 1 + (c land 7)) n in
  if b < 0 then bad_varint b;
  (layout, c lsr 3, b lsr 3, pos + 1 + (c land 7) + (b land 7))

let[@inline] record_bytes layout =
  if layout land layout_embed = 0 then exact_record_bytes else probable_record_bytes

(* Streaming decode: one callback per record, no list, no substrings.
   [embed_pos] is the byte position of the 16-byte embed inside [s], or
   [-1] when the record carries none.  A run's records are bounds-checked
   before they are read (all at once in an implicit run, one by one in an
   explicit run, after each delta), so the field reads use unsafe
   indexing.  The record walks are flat loops: no closure or allocation
   per record. *)
let decode_iter s ~f =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let layout, count, base, p = run_header s !pos in
    let rec_bytes = record_bytes layout in
    (* the embed follows the cipher *)
    let embed_off = if rec_bytes = exact_record_bytes then -1 else exact_record_bytes in
    if layout land layout_explicit = 0 then begin
      if count > (n - p) / rec_bytes then invalid_arg "Dpienc.decode_iter: truncated";
      for i = 0 to count - 1 do
        let r = p + (i * rec_bytes) in
        f ~cipher:(cipher_at s r) ~offset:((base + i) land offset_mask)
          ~embed_pos:(if embed_off < 0 then -1 else r + embed_off)
      done;
      pos := p + (count * rec_bytes)
    end
    else begin
      let q = ref p and off = ref base in
      for _ = 1 to count do
        let z = varint_fast s !q n in
        if z < 0 then bad_varint z;
        let r = !q + (z land 7) in
        if r + rec_bytes > n then invalid_arg "Dpienc.decode_iter: truncated";
        off := (!off + zigzag_decode (z lsr 3)) land offset_mask;
        f ~cipher:(cipher_at s r) ~offset:!off
          ~embed_pos:(if embed_off < 0 then -1 else r + embed_off);
        q := r + rec_bytes
      done;
      pos := !q
    end
  done

(* The daemon front's check before a stream goes to a worker domain,
   where an exception would poison the pool: [decode_iter]'s walk without
   the callback or an exception, plus the embed bit [mode] implies in
   every run.  An implicit run is checked in O(1); an explicit run reads
   its deltas. *)
let wire_valid ~mode s =
  let want, rec_bytes =
    match mode with
    | Exact -> (0, exact_record_bytes)
    | Probable -> (layout_embed, probable_record_bytes)
  in
  let n = String.length s in
  let pos = ref 0 and ok = ref true in
  while !ok && !pos < n do
    let layout = u8 s !pos in
    let c = varint s (!pos + 1) n in
    let b = if c < 0 then -1 else varint s (!pos + 1 + (c land 7)) n in
    (* [lnot layout_explicit] also rejects every layout above 3 *)
    if layout land lnot layout_explicit <> want || c lsr 3 = 0 || b < 0 then ok := false
    else begin
      let count = c lsr 3 in
      let p = !pos + 1 + (c land 7) + (b land 7) in
      if layout land layout_explicit = 0 then begin
        ok := count <= (n - p) / rec_bytes;
        pos := p + (count * rec_bytes)
      end
      else begin
        (* A record past the end makes the next delta read fail, or the
           last record end past [n]. *)
        let q = ref p and left = ref count in
        while !left > 0 do
          let q0 = !q in
          if q0 < n && String.unsafe_get s q0 < '\x80' then begin
            (* a one-byte delta: nearly every delimiter token *)
            q := q0 + 1 + rec_bytes;
            decr left
          end
          else begin
            (* [varint]'s checks inline, as a call would spill the loop's
               registers: [e] stops at the delta's last byte, and the
               delta is valid when that byte is in [s], within 5 bytes,
               and a 5th byte adds at most 4 bits *)
            let e = ref q0 in
            while !e < n && !e - q0 < max_varint_bytes && String.unsafe_get s !e >= '\x80' do
              incr e
            done;
            let len = !e - q0 in
            if !e < n && (len < max_varint_bytes - 1 || (len = max_varint_bytes - 1 && u8 s !e < 0x10))
            then begin
              q := !e + 1 + rec_bytes;
              decr left
            end
            else begin
              ok := false;
              left := 0
            end
          end
        done;
        if !q > n then ok := false;
        pos := !q
      end
    end
  done;
  !ok

let wire_token_count s =
  let count = ref 0 in
  decode_iter s ~f:(fun ~cipher:_ ~offset:_ ~embed_pos:_ -> incr count);
  !count

(* Skip [k] records of the explicit run whose records start at [p] and
   whose offsets start from [off]: (position of record [k], offset of
   record [k - 1]). *)
let rec skip_explicit s ~rec_bytes p off k =
  if k = 0 then (p, off)
  else begin
    let z = varint s p (String.length s) in
    if z < 0 then bad_varint z;
    let r = p + (z land 7) + rec_bytes in
    if r > String.length s then invalid_arg "Dpienc.decode_iter: truncated";
    skip_explicit s ~rec_bytes r ((off + zigzag_decode (z lsr 3)) land offset_mask) (k - 1)
  end

(* Whole runs are skipped; the first run that keeps records gets a new
   header (implicit: [base + k], [count - k]; explicit: the base becomes
   the offset of the last dropped record, so the surviving deltas still
   hold), and every surviving record's bytes are copied unchanged. *)
let drop_records s k =
  let n = String.length s in
  let rec go pos k =
    if k <= 0 then String.sub s pos (n - pos)
    else if pos >= n then ""
    else begin
      let layout, count, base, p = run_header s pos in
      let rec_bytes = record_bytes layout in
      let dropped = min k count in
      let q, base =
        if layout land layout_explicit <> 0 then skip_explicit s ~rec_bytes p base dropped
        else (p + (dropped * rec_bytes), (base + dropped) land offset_mask)
      in
      if q > n then invalid_arg "Dpienc.decode_iter: truncated";
      if dropped = count then go q (k - count)
      else begin
        let hdr = Bytes.create max_header_bytes in
        Bytes.set hdr 0 (Char.chr layout);
        let h = put_varint hdr (put_varint hdr 1 (count - dropped)) base in
        Bytes.sub_string hdr 0 h ^ String.sub s q (n - q)
      end
    end
  in
  go 0 k
