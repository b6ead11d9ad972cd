(* A growable bit set over small non-negative ints (rule indices).  The
   fleet refactor replaces per-connection [(int, unit) Hashtbl.t] sets —
   ~6 words per entry plus bucket arrays — with one bit per rule:
   membership is a shift and a mask, the footprint is [n/8] bytes, and
   serialisation for connection migration is the raw byte string. *)

type t = { mutable bits : Bytes.t }

let create n = { bits = Bytes.make ((max n 0 + 7) / 8) '\000' }

let capacity t = Bytes.length t.bits * 8

let mem t i =
  i >= 0 && i < capacity t
  && Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let ensure t i =
  if i >= capacity t then begin
    let grown = Bytes.make (max ((i lsr 3) + 1) (2 * Bytes.length t.bits)) '\000' in
    Bytes.blit t.bits 0 grown 0 (Bytes.length t.bits);
    t.bits <- grown
  end

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative index";
  ensure t i;
  let byte = i lsr 3 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (i land 7))))

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let iter f t =
  for byte = 0 to Bytes.length t.bits - 1 do
    let v = Char.code (Bytes.get t.bits byte) in
    if v <> 0 then
      for bit = 0 to 7 do
        if v land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  done

let cardinal t =
  let n = ref 0 in
  iter (fun _ -> incr n) t;
  !n

(* [remap t map] rebuilds the set through a rule-index remap (old index
   -> new index, or -1 for removed), as produced by [Engine.update]. *)
let remap t map =
  let t' = create 0 in
  iter (fun i -> if i < Array.length map && map.(i) >= 0 then add t' map.(i)) t;
  t'

let to_string t = Bytes.to_string t.bits

let of_string s = { bits = Bytes.of_string s }

let footprint_bytes t = Bytes.length t.bits + 3 * (Sys.word_size / 8)
