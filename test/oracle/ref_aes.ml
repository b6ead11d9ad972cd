(* The AES-128 key schedule as FIPS-197 §5.2 writes it, byte by byte:
   RotWord, SubWord and Rcon on 4-byte words held as four bytes.  The
   reference for [Aes.expand_into]'s word-wise expansion, together with
   the arena words derived from it, and for the T-table rounds through
   the byte-wise cipher at the end. *)

module Aes = Bbx_crypto.Aes

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* The 176-byte schedule: round key r is bytes 16r..16r+15. *)
let schedule s =
  if String.length s <> 16 then invalid_arg "Ref_aes.schedule: key must be 16 bytes";
  let sbox = Aes.sbox in
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
  w

let xtime v = if v land 0x80 <> 0 then ((v lsl 1) lxor 0x11b) land 0xff else v lsl 1

(* Column [c] of a 16-byte state (column-major), packed little-endian. *)
let col st c =
  st.(4 * c) lor (st.((4 * c) + 1) lsl 8) lor (st.((4 * c) + 2) lsl 16)
  lor (st.((4 * c) + 3) lsl 24)

(* Round 1's output on the block 0^8 || BE64(v), v < 2^32, without the
   terms of input column 3 — the four key-only constants of an arena
   slot.  Round 1 is SubBytes, ShiftRows, MixColumns and round key 1;
   MixColumns is linear, so zeroing column 3's bytes after SubBytes drops
   exactly their terms.  Input columns 0-2 are round key 0 (the block is
   zero there). *)
let round1_constants w =
  let st = Array.init 16 (fun i -> if i < 12 then Aes.sbox.(w.(i)) else 0) in
  (* ShiftRows: row r rotates left by r columns *)
  let sh = Array.init 16 (fun i -> let r = i mod 4 and c = i / 4 in st.(r + (4 * ((c + r) mod 4)))) in
  let mixed = Array.make 16 0 in
  for c = 0 to 3 do
    let a = Array.init 4 (fun r -> sh.((4 * c) + r)) in
    for r = 0 to 3 do
      (* 2·a_r ⊕ 3·a_{r+1} ⊕ a_{r+2} ⊕ a_{r+3} *)
      let a1 = a.((r + 1) mod 4) in
      mixed.((4 * c) + r) <-
        xtime a.(r) lxor xtime a1 lxor a1 lxor a.((r + 2) mod 4) lxor a.((r + 3) mod 4)
        lxor w.(16 + (4 * c) + r)
    done
  done;
  Array.init 4 (col mixed)

(* An arena slot as derived from the byte-wise schedule: the 44 packed
   round-key columns, then the round-1 constants. *)
let arena_words s =
  let w = schedule s in
  Array.append (Array.init 44 (col w)) (round1_constants w)

(* AES-128 on one 16-byte block as FIPS-197 §5.1 writes it, on the
   byte-wise schedule: the state is 16 bytes, column-major. *)
let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Ref_aes.encrypt_block: block must be 16 bytes";
  let w = schedule key in
  let st = Array.init 16 (fun i -> Char.code block.[i] lxor w.(i)) in
  let add_round_key round = for i = 0 to 15 do st.(i) <- st.(i) lxor w.((16 * round) + i) done in
  let sub_bytes () = Array.iteri (fun i v -> st.(i) <- Aes.sbox.(v)) st in
  (* row r rotates left by r columns *)
  let shift_rows () =
    let old = Array.copy st in
    for i = 0 to 15 do
      let r = i mod 4 and c = i / 4 in
      st.(i) <- old.(r + (4 * ((c + r) mod 4)))
    done
  in
  let mix_columns () =
    for c = 0 to 3 do
      let a = Array.init 4 (fun r -> st.((4 * c) + r)) in
      for r = 0 to 3 do
        let a1 = a.((r + 1) mod 4) in
        st.((4 * c) + r) <-
          xtime a.(r) lxor xtime a1 lxor a1 lxor a.((r + 2) mod 4) lxor a.((r + 3) mod 4)
      done
    done
  in
  for round = 1 to 9 do
    sub_bytes ();
    shift_rows ();
    mix_columns ();
    add_round_key round
  done;
  sub_bytes ();
  shift_rows ();
  add_round_key 10;
  String.init 16 (fun i -> Char.chr st.(i))
