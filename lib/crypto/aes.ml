(* AES-128, FIPS-197.  The state is a flat 16-entry int array indexed by
   [r + 4*c] (column-major), which coincides with the byte order of inputs,
   outputs and round keys, so no transposition is ever needed.

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

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let xtime = Array.init 256 (fun v -> gf_mul v 2)

(* InvMixColumns multiplier tables, hoisted like [xtime]: partially applying
   [gf_mul] inside the column loop would allocate four closures per column
   per block. *)
let m9 = Array.init 256 (fun v -> gf_mul v 9)
let m11 = Array.init 256 (fun v -> gf_mul v 11)
let m13 = Array.init 256 (fun v -> gf_mul v 13)
let m14 = Array.init 256 (fun v -> gf_mul v 14)

(* T-tables: the fused SubBytes+ShiftRows+MixColumns round as four table
   lookups per output column (the classic software-AES optimisation).
   Column c packs state bytes 4c..4c+3 little-endian; T_r[x] holds
   MixColumns applied to S[x] sitting in row r.  Defined ahead of
   [expand_key] because the key carries precomputed round-1 constants. *)
let t0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      gf_mul 2 s lor (s lsl 8) lor (s lsl 16) lor (gf_mul 3 s lsl 24))

let rotl32 v n = ((v lsl n) lor (v lsr (32 - n))) land 0xffffffff

let t1 = Array.map (fun v -> rotl32 v 8) t0
let t2 = Array.map (fun v -> rotl32 v 16) t0
let t3 = Array.map (fun v -> rotl32 v 24) t0

(* The round helpers live at top level (fully applied at every call site)
   so the encryption paths allocate nothing: per-call closures would cost
   one heap block per round, which dominates DPIEnc's per-token budget. *)
let[@inline] rk w round c =
  let o = (16 * round) + (4 * c) in
  w.(o) lor (w.(o + 1) lsl 8) lor (w.(o + 2) lsl 16) lor (w.(o + 3) lsl 24)

(* [wc] is the same schedule packed as 44 little-endian 32-bit column
   words, so the T-table rounds fetch a round-key column with one array
   load instead of four byte loads plus shifts — forty such fetches per
   block.

   [u0..u3] are the key-only parts of round 1 for DPIEnc's salt-block
   shape 0^8 || BE64(v) with v < 2^32: input columns 0-2 are then pure
   round-0 key material, so three of the four T-table terms of every
   round-1 output column fold into a per-key constant.  [encrypt_u64]
   finishes round 1 with the four lookups that depend on column 3. *)
type key = {
  (* 176-byte schedule in byte order; [||] until a reference/decrypt path
     asks for it (see [enc_schedule]) *)
  mutable enc : int array;
  wc : int array; (* 44 packed round-key column words *)
  u0 : int;
  u1 : int;
  u2 : int;
  u3 : int;
}

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let expand_key s =
  if String.length s <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let w = Array.make 176 0 in
  for i = 0 to 15 do w.(i) <- Char.code s.[i] done;
  for i = 4 to 43 do
    let base = 4 * i in
    let prev = base - 4 in
    if i mod 4 = 0 then begin
      (* rot_word + sub_word + rcon on the previous word *)
      w.(base) <- w.(base - 16) lxor sbox.(w.(prev + 1)) lxor rcon.(i / 4 - 1);
      w.(base + 1) <- w.(base - 15) lxor sbox.(w.(prev + 2));
      w.(base + 2) <- w.(base - 14) lxor sbox.(w.(prev + 3));
      w.(base + 3) <- w.(base - 13) lxor sbox.(w.(prev))
    end else
      for j = 0 to 3 do
        w.(base + j) <- w.(base - 16 + j) lxor w.(prev + j)
      done
  done;
  let wc = Array.init 44 (fun i -> rk w (i / 4) (i mod 4)) in
  (* Round-1 constants for the small-salt fast path: with the high half
     of the block zero, x0..x2 are round-0 key columns verbatim. *)
  let x0 = rk w 0 0 and x1 = rk w 0 1 and x2 = rk w 0 2 in
  {
    enc = [||];
    wc;
    u0 =
      t0.(x0 land 0xff) lxor t1.((x1 lsr 8) land 0xff)
      lxor t2.((x2 lsr 16) land 0xff)
      lxor rk w 1 0;
    u1 =
      t0.(x1 land 0xff) lxor t1.((x2 lsr 8) land 0xff)
      lxor t3.((x0 lsr 24) land 0xff)
      lxor rk w 1 1;
    u2 =
      t0.(x2 land 0xff) lxor t2.((x0 lsr 16) land 0xff)
      lxor t3.((x1 lsr 24) land 0xff)
      lxor rk w 1 2;
    u3 =
      t1.((x0 lsr 8) land 0xff)
      lxor t2.((x1 lsr 16) land 0xff)
      lxor t3.((x2 lsr 24) land 0xff)
      lxor rk w 1 3;
  }

(* The byte-order schedule is only read by the reference oracle and the
   decrypt path; the packed column words are authoritative.  DPIEnc
   expands one key per distinct token — tens of thousands per connection
   — and those keys only ever encrypt, so not materializing a 176-entry
   array per key keeps the key heap an order of magnitude smaller and the
   hot packed words cache-resident.  Unpacking
   is idempotent: a racing domain just writes an identical array. *)
let enc_schedule k =
  let e = k.enc in
  if Array.length e > 0 then e
  else begin
    let w = Array.make 176 0 in
    for i = 0 to 43 do
      let v = k.wc.(i) in
      let o = 4 * i in
      w.(o) <- v land 0xff;
      w.(o + 1) <- (v lsr 8) land 0xff;
      w.(o + 2) <- (v lsr 16) land 0xff;
      w.(o + 3) <- (v lsr 24) land 0xff
    done;
    k.enc <- w;
    w
  end

let add_round_key st w round =
  let off = 16 * round in
  for i = 0 to 15 do st.(i) <- st.(i) lxor w.(off + i) done

let sub_bytes st = for i = 0 to 15 do st.(i) <- sbox.(st.(i)) done
let inv_sub_bytes st = for i = 0 to 15 do st.(i) <- inv_sbox.(st.(i)) done

(* Row r of the state lives at indices r, r+4, r+8, r+12. *)
let shift_rows st =
  let t1 = st.(1) in
  st.(1) <- st.(5); st.(5) <- st.(9); st.(9) <- st.(13); st.(13) <- t1;
  let t2 = st.(2) and t6 = st.(6) in
  st.(2) <- st.(10); st.(10) <- t2; st.(6) <- st.(14); st.(14) <- t6;
  let t15 = st.(15) in
  st.(15) <- st.(11); st.(11) <- st.(7); st.(7) <- st.(3); st.(3) <- t15

let inv_shift_rows st =
  let t13 = st.(13) in
  st.(13) <- st.(9); st.(9) <- st.(5); st.(5) <- st.(1); st.(1) <- t13;
  let t2 = st.(2) and t6 = st.(6) in
  st.(2) <- st.(10); st.(10) <- t2; st.(6) <- st.(14); st.(14) <- t6;
  let t3 = st.(3) in
  st.(3) <- st.(7); st.(7) <- st.(11); st.(11) <- st.(15); st.(15) <- t3

let mix_columns st =
  for c = 0 to 3 do
    let i = 4 * c in
    let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
    let all = a0 lxor a1 lxor a2 lxor a3 in
    st.(i) <- a0 lxor all lxor xtime.(a0 lxor a1);
    st.(i + 1) <- a1 lxor all lxor xtime.(a1 lxor a2);
    st.(i + 2) <- a2 lxor all lxor xtime.(a2 lxor a3);
    st.(i + 3) <- a3 lxor all lxor xtime.(a3 lxor a0)
  done

let inv_mix_columns st =
  for c = 0 to 3 do
    let i = 4 * c in
    let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
    st.(i) <- m14.(a0) lxor m11.(a1) lxor m13.(a2) lxor m9.(a3);
    st.(i + 1) <- m9.(a0) lxor m14.(a1) lxor m11.(a2) lxor m13.(a3);
    st.(i + 2) <- m13.(a0) lxor m9.(a1) lxor m14.(a2) lxor m11.(a3);
    st.(i + 3) <- m11.(a0) lxor m13.(a1) lxor m9.(a2) lxor m14.(a3)
  done

(* [w] is the packed-word schedule [wc]: the round-key column is one
   array load *)
let[@inline] tround w round c a b c' d =
  t0.(a land 0xff)
  lxor t1.((b lsr 8) land 0xff)
  lxor t2.((c' lsr 16) land 0xff)
  lxor t3.((d lsr 24) land 0xff)
  lxor Array.unsafe_get w ((4 * round) + c)

(* final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns *)
let[@inline] tfinal w c a b c' d =
  sbox.(a land 0xff)
  lor (sbox.((b lsr 8) land 0xff) lsl 8)
  lor (sbox.((c' lsr 16) land 0xff) lsl 16)
  lor (sbox.((d lsr 24) land 0xff) lsl 24)
  lxor Array.unsafe_get w (40 + c)

let[@inline] store_col st i v =
  st.(4 * i) <- v land 0xff;
  st.((4 * i) + 1) <- (v lsr 8) land 0xff;
  st.((4 * i) + 2) <- (v lsr 16) land 0xff;
  st.((4 * i) + 3) <- (v lsr 24) land 0xff

let encrypt_state { wc = w; _ } st =
  (* pack columns as 32-bit ints *)
  let col i =
    st.(4 * i) lor (st.((4 * i) + 1) lsl 8) lor (st.((4 * i) + 2) lsl 16)
    lor (st.((4 * i) + 3) lsl 24)
  in
  let x0 = ref (col 0 lxor w.(0)) and x1 = ref (col 1 lxor w.(1)) in
  let x2 = ref (col 2 lxor w.(2)) and x3 = ref (col 3 lxor w.(3)) in
  for round = 1 to 9 do
    let n0 = tround w round 0 !x0 !x1 !x2 !x3 in
    let n1 = tround w round 1 !x1 !x2 !x3 !x0 in
    let n2 = tround w round 2 !x2 !x3 !x0 !x1 in
    let n3 = tround w round 3 !x3 !x0 !x1 !x2 in
    x0 := n0; x1 := n1; x2 := n2; x3 := n3
  done;
  let n0 = tfinal w 0 !x0 !x1 !x2 !x3 in
  let n1 = tfinal w 1 !x1 !x2 !x3 !x0 in
  let n2 = tfinal w 2 !x2 !x3 !x0 !x1 in
  let n3 = tfinal w 3 !x3 !x0 !x1 !x2 in
  store_col st 0 n0; store_col st 1 n1; store_col st 2 n2; store_col st 3 n3

(* Reference byte-wise implementation, kept as the test oracle for the
   T-table path. *)
let encrypt_state_reference k st =
  let w = enc_schedule k in
  add_round_key st w 0;
  for round = 1 to 9 do
    sub_bytes st; shift_rows st; mix_columns st; add_round_key st w round
  done;
  sub_bytes st; shift_rows st; add_round_key st w 10

let decrypt_state k st =
  let w = enc_schedule k in
  add_round_key st w 10;
  for round = 9 downto 1 do
    inv_shift_rows st; inv_sub_bytes st; add_round_key st w round; inv_mix_columns st
  done;
  inv_shift_rows st; inv_sub_bytes st; add_round_key st w 0

let encrypt_block key src =
  if String.length src <> 16 then invalid_arg "Aes.encrypt_block: need 16 bytes";
  let st = Array.init 16 (fun i -> Char.code src.[i]) in
  encrypt_state key st;
  String.init 16 (fun i -> Char.chr st.(i))

let encrypt_block_reference key src =
  if String.length src <> 16 then invalid_arg "Aes.encrypt_block: need 16 bytes";
  let st = Array.init 16 (fun i -> Char.code src.[i]) in
  encrypt_state_reference key st;
  String.init 16 (fun i -> Char.chr st.(i))

let decrypt_block key src =
  if String.length src <> 16 then invalid_arg "Aes.decrypt_block: need 16 bytes";
  let st = Array.init 16 (fun i -> Char.code src.[i]) in
  decrypt_state key st;
  String.init 16 (fun i -> Char.chr st.(i))

(* Allocation-free block path: the state lives in four packed 32-bit
   columns threaded through a top-level tail recursion (like [u64_rounds]
   below, but storing all 16 output bytes).  Bounds are checked once per
   call; the per-byte accesses below are then in range by construction. *)
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

let rec block_rounds_into w round x0 x1 x2 x3 dst dst_off =
  if round > 9 then begin
    store_cols2 dst dst_off (tfinal w 0 x0 x1 x2 x3) (tfinal w 1 x1 x2 x3 x0);
    store_cols2 dst (dst_off + 8) (tfinal w 2 x2 x3 x0 x1) (tfinal w 3 x3 x0 x1 x2)
  end
  else
    block_rounds_into w (round + 1)
      (tround w round 0 x0 x1 x2 x3)
      (tround w round 1 x1 x2 x3 x0)
      (tround w round 2 x2 x3 x0 x1)
      (tround w round 3 x3 x0 x1 x2)
      dst dst_off

let encrypt_block_into { wc = w; _ } ~src ~src_off ~dst ~dst_off =
  if src_off < 0 || src_off + 16 > Bytes.length src
     || dst_off < 0 || dst_off + 16 > Bytes.length dst
  then invalid_arg "Aes.encrypt_block_into: out of bounds";
  block_rounds_into w 1
    (load_col src src_off lxor w.(0))
    (load_col src (src_off + 4) lxor w.(1))
    (load_col src (src_off + 8) lxor w.(2))
    (load_col src (src_off + 12) lxor w.(3))
    dst dst_off

let ctr_transform key ~nonce data =
  if String.length nonce <> 16 then invalid_arg "Aes.ctr_transform: nonce must be 16 bytes";
  let len = String.length data in
  let out = Bytes.create len in
  let counter = Array.init 16 (fun i -> Char.code nonce.[i]) in
  let ks = Array.make 16 0 in
  let nblocks = (len + 15) / 16 in
  for b = 0 to nblocks - 1 do
    Array.blit counter 0 ks 0 16;
    encrypt_state key ks;
    let off = 16 * b in
    for i = 0 to min 15 (len - off - 1) do
      Bytes.set out (off + i) (Char.chr (Char.code data.[off + i] lxor ks.(i)))
    done;
    (* Increment the low 64 bits of the counter, big-endian. *)
    let rec bump i =
      if i >= 8 then begin
        counter.(i) <- (counter.(i) + 1) land 0xff;
        if counter.(i) = 0 then bump (i - 1)
      end
    in
    bump 15
  done;
  Bytes.to_string out

let[@inline] bswap32 v =
  ((v land 0xff) lsl 24) lor ((v land 0xff00) lsl 8)
  lor ((v lsr 8) land 0xff00) lor ((v lsr 24) land 0xff)

let rec u64_rounds w round x0 x1 x2 x3 =
  if round > 9 then
    (* Only the first 8 output bytes are read (columns 0 and 1, whose
       little-endian packing byte-swaps into the big-endian result). *)
    ((bswap32 (tfinal w 0 x0 x1 x2 x3) lsl 32)
     lor bswap32 (tfinal w 1 x1 x2 x3 x0))
    land ((1 lsl 62) - 1)
  else
    u64_rounds w (round + 1)
      (tround w round 0 x0 x1 x2 x3)
      (tround w round 1 x1 x2 x3 x0)
      (tround w round 2 x2 x3 x0 x1)
      (tround w round 3 x3 x0 x1 x2)

(* DPIEnc's per-token hot path: encrypt the block 0^8 || BE64(v) and keep
   the first 8 bytes.  The block is built directly in the four packed
   columns — no state array, no heap allocation. *)
let encrypt_u64 k v =
  let w = k.wc in
  if v >= 0 && v < 1 lsl 32 then begin
    (* Small-salt fast path: round 1 is the precomputed key constants
       plus the four lookups driven by column 3 (the only live column);
       rounds 2-9 are unrolled with literal schedule indices. *)
    let x3 = bswap32 v lxor Array.unsafe_get w 3 in
    let y0 = k.u0 lxor t3.((x3 lsr 24) land 0xff)
    and y1 = k.u1 lxor t2.((x3 lsr 16) land 0xff)
    and y2 = k.u2 lxor t1.((x3 lsr 8) land 0xff)
    and y3 = k.u3 lxor t0.(x3 land 0xff) in
    let z0 = tround w 2 0 y0 y1 y2 y3 and z1 = tround w 2 1 y1 y2 y3 y0
    and z2 = tround w 2 2 y2 y3 y0 y1 and z3 = tround w 2 3 y3 y0 y1 y2 in
    let y0 = tround w 3 0 z0 z1 z2 z3 and y1 = tround w 3 1 z1 z2 z3 z0
    and y2 = tround w 3 2 z2 z3 z0 z1 and y3 = tround w 3 3 z3 z0 z1 z2 in
    let z0 = tround w 4 0 y0 y1 y2 y3 and z1 = tround w 4 1 y1 y2 y3 y0
    and z2 = tround w 4 2 y2 y3 y0 y1 and z3 = tround w 4 3 y3 y0 y1 y2 in
    let y0 = tround w 5 0 z0 z1 z2 z3 and y1 = tround w 5 1 z1 z2 z3 z0
    and y2 = tround w 5 2 z2 z3 z0 z1 and y3 = tround w 5 3 z3 z0 z1 z2 in
    let z0 = tround w 6 0 y0 y1 y2 y3 and z1 = tround w 6 1 y1 y2 y3 y0
    and z2 = tround w 6 2 y2 y3 y0 y1 and z3 = tround w 6 3 y3 y0 y1 y2 in
    let y0 = tround w 7 0 z0 z1 z2 z3 and y1 = tround w 7 1 z1 z2 z3 z0
    and y2 = tround w 7 2 z2 z3 z0 z1 and y3 = tround w 7 3 z3 z0 z1 z2 in
    let z0 = tround w 8 0 y0 y1 y2 y3 and z1 = tround w 8 1 y1 y2 y3 y0
    and z2 = tround w 8 2 y2 y3 y0 y1 and z3 = tround w 8 3 y3 y0 y1 y2 in
    let y0 = tround w 9 0 z0 z1 z2 z3 and y1 = tround w 9 1 z1 z2 z3 z0
    and y2 = tround w 9 2 z2 z3 z0 z1 and y3 = tround w 9 3 z3 z0 z1 z2 in
    ((bswap32 (tfinal w 0 y0 y1 y2 y3) lsl 32)
     lor bswap32 (tfinal w 1 y1 y2 y3 y0))
    land ((1 lsl 62) - 1)
  end
  else
    u64_rounds w 1 w.(0) w.(1)
      (bswap32 ((v lsr 32) land 0xffffffff) lxor w.(2))
      (bswap32 (v land 0xffffffff) lxor w.(3))

(* Same input block as [encrypt_u64] — 0^8 || BE64(v) — but all 16 output
   bytes, written straight into [dst].  This is the Probable-mode embed
   mask AES_tkey(salt+1): the sender XORs k_ssl over it in place, so the
   per-token embed costs zero heap allocation. *)
let encrypt_u64_into k v ~dst ~dst_off =
  if dst_off < 0 || dst_off + 16 > Bytes.length dst then
    invalid_arg "Aes.encrypt_u64_into: out of bounds";
  let w = k.wc in
  if v >= 0 && v < 1 lsl 32 then
    let x3 = bswap32 v lxor Array.unsafe_get w 3 in
    block_rounds_into w 2
      (k.u0 lxor t3.((x3 lsr 24) land 0xff))
      (k.u1 lxor t2.((x3 lsr 16) land 0xff))
      (k.u2 lxor t1.((x3 lsr 8) land 0xff))
      (k.u3 lxor t0.(x3 land 0xff))
      dst dst_off
  else
    block_rounds_into w 1 w.(0) w.(1)
      (bswap32 ((v lsr 32) land 0xffffffff) lxor w.(2))
      (bswap32 (v land 0xffffffff) lxor w.(3))
      dst dst_off

(* Kept only for the e2ebench harness (see the interface). *)
type kernel = Bitsliced
