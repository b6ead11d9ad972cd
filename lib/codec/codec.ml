exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ---------- writer ---------- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)

let put_u16 b v =
  if v < 0 || v > 0xffff then invalid_arg "Codec.put_u16: out of range";
  Buffer.add_uint16_be b v

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Codec.put_u32: out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

let put_bool b v = put_u8 b (Bool.to_int v)

let put_str16 b s =
  put_u16 b (String.length s);
  Buffer.add_string b s

let put_str32 b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

(* ---------- reader ---------- *)

type cursor = { src : string; mutable pos : int; lim : int }

let cursor ?(off = 0) ?len src =
  let len = match len with Some n -> n | None -> String.length src - off in
  if off < 0 || len < 0 || off > String.length src - len then invalid_arg "Codec.cursor";
  { src; pos = off; lim = off + len }

let remaining c = c.lim - c.pos

(* [advance c n] claims the next [n] bytes and returns where they start *)
let advance c n =
  if n < 0 || n > c.lim - c.pos then
    malformed "truncated: need %d bytes, %d left" n (c.lim - c.pos);
  let p = c.pos in
  c.pos <- p + n;
  p

let get_u8 c = String.get_uint8 c.src (advance c 1)

let get_u16 c = String.get_uint16_be c.src (advance c 2)

let get_u32 c = Int32.to_int (String.get_int32_be c.src (advance c 4)) land 0xffff_ffff

let min_int64 = Int64.of_int min_int
let max_int64 = Int64.of_int max_int

let get_i64 c =
  let v = String.get_int64_be c.src (advance c 8) in
  if Int64.compare v max_int64 > 0 || Int64.compare v min_int64 < 0 then
    malformed "i64 %Ld outside the int range" v;
  Int64.to_int v

let get_bool c = get_u8 c <> 0

let get_bytes c n = String.sub c.src (advance c n) n

let get_str16 c = get_bytes c (get_u16 c)

let get_str32 c = get_bytes c (get_u32 c)

let get_rest c = get_bytes c (remaining c)

let finish c = if c.pos <> c.lim then malformed "%d trailing bytes" (c.lim - c.pos)
