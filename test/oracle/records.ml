(* Encrypted tokens as records, and a codec for their wire format written
   independently of [Dpienc]'s: per token a flag byte (1 iff an embed
   follows), the 40-bit cipher in 5 big-endian bytes, the stream offset
   in 4, then the 16-byte Probable-mode embed — 10 or 26 bytes. *)

module Dpienc = Bbx_dpienc.Dpienc

type enc_token = {
  cipher : int;            (* 40-bit detection ciphertext c1 *)
  embed : string option;   (* c2, 16 bytes, in Probable mode *)
  offset : int;            (* stream offset *)
}

let encode_tokens toks =
  let buf = Buffer.create 64 in
  let add_be v bytes =
    for i = bytes - 1 downto 0 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  List.iter
    (fun t ->
       Buffer.add_char buf (if t.embed = None then '\000' else '\001');
       add_be t.cipher 5;
       add_be t.offset 4;
       Option.iter (Buffer.add_string buf) t.embed)
    toks;
  Buffer.contents buf

let decode_tokens s =
  let n = String.length s in
  let be pos bytes =
    let v = ref 0 in
    for i = 0 to bytes - 1 do
      v := (!v lsl 8) lor Char.code s.[pos + i]
    done;
    !v
  in
  let rec go pos acc =
    if pos = n then List.rev acc
    else begin
      if pos + 10 > n then invalid_arg "Records.decode_tokens: truncated";
      let embed, next =
        match s.[pos] with
        | '\000' -> (None, pos + 10)
        | '\001' ->
          if pos + 26 > n then invalid_arg "Records.decode_tokens: truncated embed";
          (Some (String.sub s (pos + 10) 16), pos + 26)
        | _ -> invalid_arg "Records.decode_tokens: bad flag"
      in
      go next ({ cipher = be (pos + 1) 5; embed; offset = be (pos + 6) 4 } :: acc)
    end
  in
  go 0 []

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
