open Bbx_crypto

exception Auth_failure

type t = {
  enc_key : Aes.key;
  mac_key : string;
  mutable seq : int;
}

let tag_len = 32
let header_len = 12 (* u32 length + u64 sequence *)
let overhead = header_len + tag_len

let create ?kernel:_ ~key ~direction () =
  let enc = Kdf.derive ~secret:key ~label:("record-enc:" ^ direction) 16 in
  let mac = Kdf.derive ~secret:key ~label:("record-mac:" ^ direction) 32 in
  { enc_key = Aes.expand_key enc; mac_key = mac; seq = 0 }

let seq t = t.seq

let set_seq t seq =
  if seq < 0 then invalid_arg "Record.set_seq: negative sequence";
  t.seq <- seq

let nonce seq = String.make 4 '\000' ^ "rec:" ^ Util.u64_be seq

let seal t plaintext =
  let seq = t.seq in
  t.seq <- seq + 1;
  let ct = Aes.ctr_transform t.enc_key ~nonce:(nonce seq) plaintext in
  let header = Util.u32_be (String.length ct) ^ Util.u64_be seq in
  let tag = Hmac.mac ~key:t.mac_key (header ^ ct) in
  header ^ ct ^ tag

let open_ t record =
  if String.length record < overhead then raise Auth_failure;
  let len = Util.read_u32_be record 0 in
  let seq = Util.read_u64_be record 4 in
  if String.length record <> overhead + len then raise Auth_failure;
  if seq <> t.seq then raise Auth_failure;
  let header = String.sub record 0 header_len in
  let ct = String.sub record header_len len in
  let tag = String.sub record (header_len + len) tag_len in
  if not (Hmac.verify ~key:t.mac_key ~tag (header ^ ct)) then raise Auth_failure;
  t.seq <- seq + 1;
  Aes.ctr_transform t.enc_key ~nonce:(nonce seq) ct
