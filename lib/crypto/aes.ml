(* AES-128 encryption, FIPS-197.  The state is four 32-bit columns, each
   packed little-endian (row 0 in the low byte), run through T-table
   rounds.  Every caller only encrypts: CTR mode is its own inverse, and
   DPIEnc, the DRBG and the garbling hash use the forward cipher alone.
   The byte-wise FIPS-197 cipher is the test oracle ([Ref_aes] in the
   test suite).

   The S-box is derived algebraically (GF(2^8) inversion + affine map) at
   module initialisation rather than pasted as a literal; the FIPS test
   vectors in the test suite pin it down. *)

let gf_mul a b =
  let rec go a b acc =
    if b = 0 then acc
    else begin
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x11b) land 0xff else (a lsl 1) land 0xff in
      go a (b lsr 1) acc
    end
  in
  go a b 0

let gf_inv x =
  if x = 0 then 0
  else begin
    (* x^254 by square-and-multiply. *)
    let rec go acc sq e =
      if e = 0 then acc
      else begin
        let acc = if e land 1 = 1 then gf_mul acc sq else acc in
        go acc (gf_mul sq sq) (e lsr 1)
      end
    in
    go 1 x 254
  end

let sbox =
  let rotl8 v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
  Array.init 256 (fun x ->
      let y = gf_inv x in
      y lxor rotl8 y 1 lxor rotl8 y 2 lxor rotl8 y 3 lxor rotl8 y 4 lxor 0x63)

(* T-tables: the fused SubBytes+ShiftRows+MixColumns round as four table
   lookups per output column (the classic software-AES optimisation).
   Column c packs state bytes 4c..4c+3 little-endian; T_r[x] holds
   MixColumns applied to S[x] sitting in row r, which is T_0[x] rotated
   left by 8r bits.  All five forward tables live in ONE 1 280-entry
   array, [tables]: T_0 at 0, T_1 at 256, T_2 at 512, T_3 at 768 and the
   S-box at 1 024.  A round then holds one table pointer, not five, and
   the registers that frees keep the round state out of the stack.
   Defined ahead of the key expansion because a key carries precomputed
   round-1 constants. *)
let tables =
  let rotl32 v n = ((v lsl n) lor (v lsr (32 - n))) land 0xffffffff in
  Array.init 1280 (fun i ->
      let s = sbox.(i land 0xff) in
      if i >= 1024 then s
      else rotl32 (gf_mul 2 s lor (s lsl 8) lor (s lsl 16) lor (gf_mul 3 s lsl 24)) (8 * (i lsr 8)))

(* The forward lookups, without the bounds check: each reads [tables] at
   a literal part offset plus the byte masked to 0..255, so the index is
   below 1 024 + 256 = 1 280, the table's length, by construction.
   Sixteen such loads per round made the check a measurable share of a
   DPIEnc token.  The parameter is typed [int array] so the inlined load
   stays a plain word load. *)
let[@inline] t0 (tt : int array) x = Array.unsafe_get tt (x land 0xff)
let[@inline] t1 (tt : int array) x = Array.unsafe_get tt (256 + (x land 0xff))
let[@inline] t2 (tt : int array) x = Array.unsafe_get tt (512 + (x land 0xff))
let[@inline] t3 (tt : int array) x = Array.unsafe_get tt (768 + (x land 0xff))
let[@inline] sb (tt : int array) x = Array.unsafe_get tt (1024 + (x land 0xff))

(* ---- key arenas ----

   An expanded key is [key_words] consecutive words of a flat int array
   owned by the caller, so a party holding thousands of token keys (the
   DPIEnc sender) holds one array, not one heap block per key.  Slot [i]
   starts at word [48 i]:

   - words 0-43: the schedule's 44 round-key columns w0..w43, each packed
     little-endian (row 0 in the low byte), so the T-table rounds fetch a
     round-key column with one array load;
   - words 44-47: [u0..u3], the key-only parts of round 1 for DPIEnc's
     salt-block shape 0^8 || BE64(v) with v < 2^32.  Input columns 0-2
     are then pure round-0 key material, so three of the four T-table
     terms of every round-1 output column fold into a per-key constant;
     [encrypt_u64] finishes round 1 with the four lookups that depend on
     column 3. *)
type arena = int array

let key_words = 48

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let[@inline] le32 s i =
  Char.code (String.unsafe_get s i)
  lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
  lor (Char.code (String.unsafe_get s (i + 2)) lsl 16)
  lor (Char.code (String.unsafe_get s (i + 3)) lsl 24)

(* SubWord (RotWord v) on a packed column: RotWord moves row 1 to row 0,
   which in the little-endian packing is a rotation right by one byte. *)
let[@inline] sub_rot tt v =
  sb tt (v lsr 8) lor (sb tt (v lsr 16) lsl 8) lor (sb tt (v lsr 24) lsl 16) lor (sb tt v lsl 24)

let[@inline] check_slot a slot fn =
  if slot < 0 || (slot + 1) * key_words > Array.length a then invalid_arg fn

(* FIPS-197 §5.2 on whole columns: every fourth word is
   SubWord(RotWord(w[i-1])) xor Rcon xor w[i-4], the other three chain
   w[i-1] xor w[i-4].  The four live words ride in locals, so the
   expansion reads the arena only for the round-1 constants. *)
let expand_into a slot s =
  if String.length s <> 16 then invalid_arg "Aes.expand_into: key must be 16 bytes";
  check_slot a slot "Aes.expand_into: slot out of range";
  let b = slot * key_words and tt = tables in
  let w0 = ref (le32 s 0) and w1 = ref (le32 s 4) in
  let w2 = ref (le32 s 8) and w3 = ref (le32 s 12) in
  for r = 0 to 10 do
    if r > 0 then begin
      w0 := !w0 lxor sub_rot tt !w3 lxor rcon.(r - 1);
      w1 := !w1 lxor !w0;
      w2 := !w2 lxor !w1;
      w3 := !w3 lxor !w2
    end;
    let o = b + (4 * r) in
    Array.unsafe_set a o !w0;
    Array.unsafe_set a (o + 1) !w1;
    Array.unsafe_set a (o + 2) !w2;
    Array.unsafe_set a (o + 3) !w3
  done;
  (* round-1 constants: with the high half of the block zero, x0..x2 are
     round-0 key columns verbatim *)
  let x0 = Array.unsafe_get a b and x1 = Array.unsafe_get a (b + 1) in
  let x2 = Array.unsafe_get a (b + 2) in
  Array.unsafe_set a (b + 44)
    (t0 tt x0 lxor t1 tt (x1 lsr 8) lxor t2 tt (x2 lsr 16) lxor Array.unsafe_get a (b + 4));
  Array.unsafe_set a (b + 45)
    (t0 tt x1 lxor t1 tt (x2 lsr 8) lxor t3 tt (x0 lsr 24) lxor Array.unsafe_get a (b + 5));
  Array.unsafe_set a (b + 46)
    (t0 tt x2 lxor t2 tt (x0 lsr 16) lxor t3 tt (x1 lsr 24) lxor Array.unsafe_get a (b + 6));
  Array.unsafe_set a (b + 47)
    (t1 tt (x0 lsr 8) lxor t2 tt (x1 lsr 16) lxor t3 tt (x2 lsr 24) lxor Array.unsafe_get a (b + 7))

(* A boxed key is a one-slot arena, for the callers where one key
   encrypts many blocks (the DPIEnc key, the record layer, the DRBG, the
   garbling hash). *)
type key = arena

let expand_key s =
  if String.length s <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let kw = Array.make key_words 0 in
  expand_into kw 0 s;
  kw

let key_arena k = k

(* One output column of a T-table round under round-key column [k]; [a],
   [x], [c'] and [d] are the input columns that ShiftRows brings to rows
   0-3 of it. *)
let[@inline] kround tt k a x c' d =
  t0 tt a lxor t1 tt (x lsr 8) lxor t2 tt (c' lsr 16) lxor t3 tt (d lsr 24) lxor k

(* final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns *)
let[@inline] kfinal tt k a x c' d =
  sb tt a lor (sb tt (x lsr 8) lsl 8) lor (sb tt (c' lsr 16) lsl 16) lor (sb tt (d lsr 24) lsl 24)
  lxor k

(* The arena rounds read the key at slot base [b] of arena [w]: the
   round-key column is one array load.  Every caller checks the slot
   once ([check_slot]), so the key loads below are in range by
   construction.  The round helpers live at top level (fully applied at
   every call site) so the encryption paths allocate nothing: per-call
   closures would cost one heap block per round, which dominates DPIEnc's
   per-token budget. *)
let[@inline] tround tt w b round c a x c' d =
  kround tt (Array.unsafe_get w (b + (4 * round) + c)) a x c' d

let[@inline] tfinal tt w b c a x c' d = kfinal tt (Array.unsafe_get w (b + 40 + c)) a x c' d

(* Allocation-free block paths: the state lives in four packed 32-bit
   columns in registers.  Bounds are checked once per call; the per-byte
   accesses below are then in range by construction. *)
let[@inline] load_col src off =
  Char.code (Bytes.unsafe_get src off)
  lor (Char.code (Bytes.unsafe_get src (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get src (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get src (off + 3)) lsl 24)

external set_64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Two packed little-endian columns as one native (little-endian) 64-bit
   store: the output block costs two stores instead of sixteen. *)
let[@inline] store_cols2 dst off lo hi =
  set_64u dst off
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

let[@inline] bswap32 v =
  ((v land 0xff) lsl 24) lor ((v land 0xff00) lsl 8)
  lor ((v lsr 8) land 0xff00) lor ((v lsr 24) land 0xff)

(* The two bodies below run rounds 2-9 and the final round on the state
   after round 1, unrolled with literal schedule indices: the compiler
   cannot unroll a recursion over the round number, which computed each
   round's key offsets at run time and passed the state through eight
   arguments per round.  Their callers compute round 1, which is where
   the entry points differ, and jump to them. *)

(* All 16 output bytes, into [dst] at [dst_off]. *)
let block_rounds w b y0 y1 y2 y3 dst dst_off =
  let tt = tables in
  let z0 = tround tt w b 2 0 y0 y1 y2 y3 and z1 = tround tt w b 2 1 y1 y2 y3 y0
  and z2 = tround tt w b 2 2 y2 y3 y0 y1 and z3 = tround tt w b 2 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 3 0 z0 z1 z2 z3 and y1 = tround tt w b 3 1 z1 z2 z3 z0
  and y2 = tround tt w b 3 2 z2 z3 z0 z1 and y3 = tround tt w b 3 3 z3 z0 z1 z2 in
  let z0 = tround tt w b 4 0 y0 y1 y2 y3 and z1 = tround tt w b 4 1 y1 y2 y3 y0
  and z2 = tround tt w b 4 2 y2 y3 y0 y1 and z3 = tround tt w b 4 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 5 0 z0 z1 z2 z3 and y1 = tround tt w b 5 1 z1 z2 z3 z0
  and y2 = tround tt w b 5 2 z2 z3 z0 z1 and y3 = tround tt w b 5 3 z3 z0 z1 z2 in
  let z0 = tround tt w b 6 0 y0 y1 y2 y3 and z1 = tround tt w b 6 1 y1 y2 y3 y0
  and z2 = tround tt w b 6 2 y2 y3 y0 y1 and z3 = tround tt w b 6 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 7 0 z0 z1 z2 z3 and y1 = tround tt w b 7 1 z1 z2 z3 z0
  and y2 = tround tt w b 7 2 z2 z3 z0 z1 and y3 = tround tt w b 7 3 z3 z0 z1 z2 in
  let z0 = tround tt w b 8 0 y0 y1 y2 y3 and z1 = tround tt w b 8 1 y1 y2 y3 y0
  and z2 = tround tt w b 8 2 y2 y3 y0 y1 and z3 = tround tt w b 8 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 9 0 z0 z1 z2 z3 and y1 = tround tt w b 9 1 z1 z2 z3 z0
  and y2 = tround tt w b 9 2 z2 z3 z0 z1 and y3 = tround tt w b 9 3 z3 z0 z1 z2 in
  store_cols2 dst dst_off (tfinal tt w b 0 y0 y1 y2 y3) (tfinal tt w b 1 y1 y2 y3 y0);
  store_cols2 dst (dst_off + 8) (tfinal tt w b 2 y2 y3 y0 y1) (tfinal tt w b 3 y3 y0 y1 y2)

(* The first 8 output bytes (columns 0 and 1, whose little-endian packing
   byte-swaps into the big-endian result) as an unsigned 62-bit int. *)
let u64_rounds w b y0 y1 y2 y3 =
  let tt = tables in
  let z0 = tround tt w b 2 0 y0 y1 y2 y3 and z1 = tround tt w b 2 1 y1 y2 y3 y0
  and z2 = tround tt w b 2 2 y2 y3 y0 y1 and z3 = tround tt w b 2 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 3 0 z0 z1 z2 z3 and y1 = tround tt w b 3 1 z1 z2 z3 z0
  and y2 = tround tt w b 3 2 z2 z3 z0 z1 and y3 = tround tt w b 3 3 z3 z0 z1 z2 in
  let z0 = tround tt w b 4 0 y0 y1 y2 y3 and z1 = tround tt w b 4 1 y1 y2 y3 y0
  and z2 = tround tt w b 4 2 y2 y3 y0 y1 and z3 = tround tt w b 4 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 5 0 z0 z1 z2 z3 and y1 = tround tt w b 5 1 z1 z2 z3 z0
  and y2 = tround tt w b 5 2 z2 z3 z0 z1 and y3 = tround tt w b 5 3 z3 z0 z1 z2 in
  let z0 = tround tt w b 6 0 y0 y1 y2 y3 and z1 = tround tt w b 6 1 y1 y2 y3 y0
  and z2 = tround tt w b 6 2 y2 y3 y0 y1 and z3 = tround tt w b 6 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 7 0 z0 z1 z2 z3 and y1 = tround tt w b 7 1 z1 z2 z3 z0
  and y2 = tround tt w b 7 2 z2 z3 z0 z1 and y3 = tround tt w b 7 3 z3 z0 z1 z2 in
  let z0 = tround tt w b 8 0 y0 y1 y2 y3 and z1 = tround tt w b 8 1 y1 y2 y3 y0
  and z2 = tround tt w b 8 2 y2 y3 y0 y1 and z3 = tround tt w b 8 3 y3 y0 y1 y2 in
  let y0 = tround tt w b 9 0 z0 z1 z2 z3 and y1 = tround tt w b 9 1 z1 z2 z3 z0
  and y2 = tround tt w b 9 2 z2 z3 z0 z1 and y3 = tround tt w b 9 3 z3 z0 z1 z2 in
  ((bswap32 (tfinal tt w b 0 y0 y1 y2 y3) lsl 32) lor bswap32 (tfinal tt w b 1 y1 y2 y3 y0))
  land ((1 lsl 62) - 1)

let encrypt_block_into w slot ~src ~src_off ~dst ~dst_off =
  check_slot w slot "Aes.encrypt_block_into: slot out of range";
  if src_off < 0 || src_off + 16 > Bytes.length src
     || dst_off < 0 || dst_off + 16 > Bytes.length dst
  then invalid_arg "Aes.encrypt_block_into: out of bounds";
  let b = slot * key_words and tt = tables in
  let x0 = load_col src src_off lxor Array.unsafe_get w b
  and x1 = load_col src (src_off + 4) lxor Array.unsafe_get w (b + 1)
  and x2 = load_col src (src_off + 8) lxor Array.unsafe_get w (b + 2)
  and x3 = load_col src (src_off + 12) lxor Array.unsafe_get w (b + 3) in
  block_rounds w b (tround tt w b 1 0 x0 x1 x2 x3) (tround tt w b 1 1 x1 x2 x3 x0)
    (tround tt w b 1 2 x2 x3 x0 x1) (tround tt w b 1 3 x3 x0 x1 x2) dst dst_off

let encrypt_block key src =
  if String.length src <> 16 then invalid_arg "Aes.encrypt_block: need 16 bytes";
  let dst = Bytes.create 16 in
  encrypt_block_into key 0 ~src:(Bytes.unsafe_of_string src) ~src_off:0 ~dst ~dst_off:0;
  Bytes.unsafe_to_string dst

(* Increment the low 64 bits of a counter block, big-endian. *)
let rec ctr_bump counter i =
  if i >= 8 then begin
    let c = (Char.code (Bytes.unsafe_get counter i) + 1) land 0xff in
    Bytes.unsafe_set counter i (Char.unsafe_chr c);
    if c = 0 then ctr_bump counter (i - 1)
  end

let ctr_transform key ~nonce data =
  if String.length nonce <> 16 then invalid_arg "Aes.ctr_transform: nonce must be 16 bytes";
  let len = String.length data in
  let out = Bytes.create len in
  let counter = Bytes.of_string nonce in
  let ks = Bytes.create 16 in
  let nblocks = (len + 15) / 16 in
  for b = 0 to nblocks - 1 do
    encrypt_block_into key 0 ~src:counter ~src_off:0 ~dst:ks ~dst_off:0;
    let off = 16 * b in
    for i = 0 to min 15 (len - off - 1) do
      Bytes.unsafe_set out (off + i)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get data (off + i)) lxor Char.code (Bytes.unsafe_get ks i)))
    done;
    ctr_bump counter 15
  done;
  Bytes.unsafe_to_string out

(* DPIEnc's block 0^8 || BE64(v) is built directly in the four packed
   columns: columns 0 and 1 are zero, column 2 holds the high half of
   [v] and column 3 the low half, byte-swapped into the packing. *)
let[@inline] salt_hi v = bswap32 ((v lsr 32) land 0xffffffff)
let[@inline] salt_lo v = bswap32 (v land 0xffffffff)

(* DPIEnc's per-token hot path: encrypt the block 0^8 || BE64(v) under
   the key at [slot] and keep the first 8 bytes — no state array, no
   heap allocation.  For a salt below 2^32 (every salt a connection
   reaches) round 1 is the slot's precomputed key constants plus the
   four lookups driven by column 3, the only live column. *)
let encrypt_u64 w slot v =
  check_slot w slot "Aes.encrypt_u64: slot out of range";
  let b = slot * key_words and tt = tables in
  let x3 = salt_lo v lxor Array.unsafe_get w (b + 3) in
  if v >= 0 && v < 1 lsl 32 then
    u64_rounds w b
      (Array.unsafe_get w (b + 44) lxor t3 tt (x3 lsr 24))
      (Array.unsafe_get w (b + 45) lxor t2 tt (x3 lsr 16))
      (Array.unsafe_get w (b + 46) lxor t1 tt (x3 lsr 8))
      (Array.unsafe_get w (b + 47) lxor t0 tt x3)
  else
    let x0 = Array.unsafe_get w b and x1 = Array.unsafe_get w (b + 1) in
    let x2 = salt_hi v lxor Array.unsafe_get w (b + 2) in
    u64_rounds w b (tround tt w b 1 0 x0 x1 x2 x3) (tround tt w b 1 1 x1 x2 x3 x0)
      (tround tt w b 1 2 x2 x3 x0 x1) (tround tt w b 1 3 x3 x0 x1 x2)

(* Same input block as [encrypt_u64] — 0^8 || BE64(v) — but all 16 output
   bytes, written straight into [dst].  This is the Probable-mode embed
   mask AES_tkey(salt+1): the sender XORs k_ssl over it in place, so the
   per-token embed costs zero heap allocation. *)
let encrypt_u64_into w slot v ~dst ~dst_off =
  check_slot w slot "Aes.encrypt_u64_into: slot out of range";
  if dst_off < 0 || dst_off + 16 > Bytes.length dst then
    invalid_arg "Aes.encrypt_u64_into: out of bounds";
  let b = slot * key_words and tt = tables in
  let x3 = salt_lo v lxor Array.unsafe_get w (b + 3) in
  if v >= 0 && v < 1 lsl 32 then
    block_rounds w b
      (Array.unsafe_get w (b + 44) lxor t3 tt (x3 lsr 24))
      (Array.unsafe_get w (b + 45) lxor t2 tt (x3 lsr 16))
      (Array.unsafe_get w (b + 46) lxor t1 tt (x3 lsr 8))
      (Array.unsafe_get w (b + 47) lxor t0 tt x3)
      dst dst_off
  else
    let x0 = Array.unsafe_get w b and x1 = Array.unsafe_get w (b + 1) in
    let x2 = salt_hi v lxor Array.unsafe_get w (b + 2) in
    block_rounds w b (tround tt w b 1 0 x0 x1 x2 x3) (tround tt w b 1 1 x1 x2 x3 x0)
      (tround tt w b 1 2 x2 x3 x0 x1) (tround tt w b 1 3 x3 x0 x1 x2) dst dst_off

(* [encrypt_u64] under the 16-byte key [s] itself, with the key schedule
   fused into the rounds: before each round, its key columns are computed
   from the previous round's in registers (FIPS-197 §5.2 on whole
   columns, as in [expand_into]), so nothing is written to an arena and
   read back.  The middlebox encrypts one salt per rule-chunk key each
   time it needs that chunk's next cipher, where an expansion would store
   48 words to read them once.  The salt needs no fast path: for
   [v < 2^32] column 2 is the key column alone. *)
let encrypt_u64_once s v =
  if String.length s <> 16 then invalid_arg "Aes.encrypt_u64_once: key must be 16 bytes";
  let tt = tables in
  let k0 = le32 s 0 and k1 = le32 s 4 and k2 = le32 s 8 and k3 = le32 s 12 in
  let x2 = salt_hi v lxor k2 and x3 = salt_lo v lxor k3 in
  let x0 = k0 and x1 = k1 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x01 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let y0 = kround tt k0 x0 x1 x2 x3 and y1 = kround tt k1 x1 x2 x3 x0
  and y2 = kround tt k2 x2 x3 x0 x1 and y3 = kround tt k3 x3 x0 x1 x2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x02 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let x0 = kround tt k0 y0 y1 y2 y3 and x1 = kround tt k1 y1 y2 y3 y0
  and x2 = kround tt k2 y2 y3 y0 y1 and x3 = kround tt k3 y3 y0 y1 y2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x04 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let y0 = kround tt k0 x0 x1 x2 x3 and y1 = kround tt k1 x1 x2 x3 x0
  and y2 = kround tt k2 x2 x3 x0 x1 and y3 = kround tt k3 x3 x0 x1 x2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x08 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let x0 = kround tt k0 y0 y1 y2 y3 and x1 = kround tt k1 y1 y2 y3 y0
  and x2 = kround tt k2 y2 y3 y0 y1 and x3 = kround tt k3 y3 y0 y1 y2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x10 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let y0 = kround tt k0 x0 x1 x2 x3 and y1 = kround tt k1 x1 x2 x3 x0
  and y2 = kround tt k2 x2 x3 x0 x1 and y3 = kround tt k3 x3 x0 x1 x2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x20 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let x0 = kround tt k0 y0 y1 y2 y3 and x1 = kround tt k1 y1 y2 y3 y0
  and x2 = kround tt k2 y2 y3 y0 y1 and x3 = kround tt k3 y3 y0 y1 y2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x40 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let y0 = kround tt k0 x0 x1 x2 x3 and y1 = kround tt k1 x1 x2 x3 x0
  and y2 = kround tt k2 x2 x3 x0 x1 and y3 = kround tt k3 x3 x0 x1 x2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x80 in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let x0 = kround tt k0 y0 y1 y2 y3 and x1 = kround tt k1 y1 y2 y3 y0
  and x2 = kround tt k2 y2 y3 y0 y1 and x3 = kround tt k3 y3 y0 y1 y2 in
  let k0 = k0 lxor sub_rot tt k3 lxor 0x1b in let k1 = k1 lxor k0 in
  let k2 = k2 lxor k1 in let k3 = k3 lxor k2 in
  let y0 = kround tt k0 x0 x1 x2 x3 and y1 = kround tt k1 x1 x2 x3 x0
  and y2 = kround tt k2 x2 x3 x0 x1 and y3 = kround tt k3 x3 x0 x1 x2 in
  (* the final round's output columns 0 and 1 need round key 10's
     columns 0 and 1 only *)
  let k0 = k0 lxor sub_rot tt k3 lxor 0x36 in let k1 = k1 lxor k0 in
  ((bswap32 (kfinal tt k0 y0 y1 y2 y3) lsl 32) lor bswap32 (kfinal tt k1 y1 y2 y3 y0))
  land ((1 lsl 62) - 1)

(* Kept only for the e2ebench harness (see the interface). *)
type kernel = Bitsliced
