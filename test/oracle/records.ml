(* Encrypted tokens as records, and a codec for their wire format written
   independently of [Dpienc]'s.  A stream is a sequence of runs.  A run is
   a layout byte (bit 0: each record carries the 16-byte Probable-mode
   embed; bit 1: offsets are explicit), the record count (at least 1) and
   the base offset as LEB128 varints of at most 5 bytes, below 2^32; then
   per record the zigzag varint delta of its offset from the previous
   record's (from the base for the first) in an explicit run only, the
   40-bit cipher in 5 big-endian bytes and the embed.  Record [i] of an
   implicit run sits at [base + i].  Offsets are mod 2^32. *)

module Dpienc = Bbx_dpienc.Dpienc

type enc_token = {
  cipher : int;            (* 40-bit detection ciphertext c1 *)
  embed : string option;   (* c2, 16 bytes, in Probable mode *)
  offset : int;            (* stream offset *)
}

type run = {
  explicit : bool;           (* delta-coded offsets, else [base + i] *)
  base : int;
  records : enc_token list;  (* at least one, all with or all without an embed *)
}

let mask32 = 0xffffffff

let encode_runs runs =
  let buf = Buffer.create 64 in
  let rec add_varint v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (v land 0x7f lor 0x80));
      add_varint (v lsr 7)
    end
  in
  let add_be v bytes =
    for i = bytes - 1 downto 0 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  List.iter
    (fun r ->
       let embed =
         match r.records with
         | [] -> invalid_arg "Records.encode_runs: empty run"
         | t :: _ -> t.embed <> None
       in
       Buffer.add_char buf
         (Char.chr ((if embed then 1 else 0) lor if r.explicit then 2 else 0));
       add_varint (List.length r.records);
       add_varint (r.base land mask32);
       ignore
         (List.fold_left
            (fun (i, prev) t ->
               if (t.embed <> None) <> embed then invalid_arg "Records.encode_runs: mixed embeds";
               let off = t.offset land mask32 in
               if r.explicit then begin
                 (* the delta as a signed 32-bit int, zigzag-coded *)
                 let d = (off - prev) land mask32 in
                 let d = if d >= 0x8000_0000 then d - 0x1_0000_0000 else d in
                 add_varint (if d >= 0 then 2 * d else (-2 * d) - 1)
               end
               else if off <> (r.base + i) land mask32 then
                 invalid_arg "Records.encode_runs: implicit offsets must count up from the base";
               add_be t.cipher 5;
               Option.iter (Buffer.add_string buf) t.embed;
               (i + 1, off))
            (0, r.base land mask32) r.records
          : int * int))
    runs;
  Buffer.contents buf

let decode_runs s =
  let n = String.length s in
  let byte pos =
    if pos >= n then invalid_arg "Records.decode_runs: truncated";
    Char.code s.[pos]
  in
  (* (value, next position) *)
  let varint pos =
    let rec go pos shift v =
      if shift > 28 then invalid_arg "Records.decode_runs: varint longer than 5 bytes";
      let b = byte pos in
      let v = v lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then (v, pos + 1) else go (pos + 1) (shift + 7) v
    in
    let v, next = go pos 0 0 in
    if v > mask32 then invalid_arg "Records.decode_runs: varint above 2^32 - 1";
    (v, next)
  in
  let be pos bytes =
    let v = ref 0 in
    for i = 0 to bytes - 1 do
      v := (!v lsl 8) lor Char.code s.[pos + i]
    done;
    !v
  in
  let rec runs pos acc =
    if pos = n then List.rev acc
    else begin
      let layout = byte pos in
      if layout > 3 then invalid_arg "Records.decode_runs: bad layout";
      let count, pos = varint (pos + 1) in
      if count = 0 then invalid_arg "Records.decode_runs: empty run";
      let base, pos = varint pos in
      let explicit = layout land 2 <> 0 and has_embed = layout land 1 <> 0 in
      let rec records i pos prev acc =
        if i = count then (List.rev acc, pos)
        else begin
          let offset, pos =
            if explicit then begin
              let z, pos = varint pos in
              let d = if z land 1 = 0 then z / 2 else -((z + 1) / 2) in
              ((prev + d) land mask32, pos)
            end
            else ((base + i) land mask32, pos)
          in
          let next = pos + 5 + if has_embed then 16 else 0 in
          if next > n then invalid_arg "Records.decode_runs: truncated";
          let cipher = be pos 5 in
          let embed = if has_embed then Some (String.sub s (pos + 5) 16) else None in
          records (i + 1) next offset ({ cipher; embed; offset } :: acc)
        end
      in
      let recs, pos = records 0 pos base [] in
      runs pos ({ explicit; base; records = recs } :: acc)
    end
  in
  runs 0 []

(* A list of records as one run from [base] (default 0), as a sender call
   emits it: implicit offsets (window tokens, which must count up from
   the base), or explicit ones, which hold any offsets.  No records, no
   run. *)
let encode_tokens ~explicit ?(base = 0) toks =
  if toks = [] then "" else encode_runs [ { explicit; base; records = toks } ]

let decode_tokens s = List.concat_map (fun r -> r.records) (decode_runs s)

(* One body per way a stream can be undecodable, each with a record
   after its header where one is due: (class, body). *)
let undecodable =
  let record = "\x00\x00\x00\x00\x01" in
  [ ("count varint truncated", "\x00\x81");
    ("base varint truncated", "\x00\x01\x81");
    ("delta varint truncated", "\x02\x01\x00\x81");
    ("6-byte varint", "\x00\x81\x80\x80\x80\x80\x00\x00" ^ record);
    ("count of 0", "\x00\x00\x00");
    ("count overruns the body", "\x00\x02\x00" ^ record);
    ("base of 2^32", "\x00\x01\x80\x80\x80\x80\x10" ^ record);
    ("layout byte above 3", "\x04\x01\x00" ^ record) ]

(* A well-formed one-record run whose embed bit is [embed]: the body that
   contradicts the other mode.  Its embed is two one-record Exact runs,
   so a validator that read the record at the Exact size, whatever the
   embed bit says, would accept the whole body. *)
let one_record_run ~embed =
  let exact_run = "\x00\x01\x00\x00\x00\x00\x00\x01" in
  encode_tokens ~explicit:false
    [ { cipher = 1; offset = 0; embed = (if embed then Some (exact_run ^ exact_run) else None) } ]

(* The production sender's wire for one payload, in a fresh buffer. *)
let wire s ?k_ssl ?base ?tokenization payload =
  let buf = Buffer.create 64 in
  ignore (Dpienc.sender_encrypt_into s ?k_ssl ?base ?tokenization payload buf : int);
  Buffer.contents buf

(* The production sender on a token list: each token is an 8-byte payload
   whose one window is the token itself, emitted at the token's offset. *)
let sender_encrypt s ?k_ssl (toks : Tokens.token list) =
  List.concat_map
    (fun (t : Tokens.token) -> decode_tokens (wire s ?k_ssl ~base:t.offset t.content))
    toks
