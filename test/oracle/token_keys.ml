(* DPIEnc token keys one heap block each: [token_key] expands
   [AES_{AES_k(t)}] into its own boxed [Aes.key].  The reference sender
   and detector encrypt through these, so the differentials check the
   sender's key arena and the middlebox's on-demand scratch against
   independently expanded keys. *)

module Aes = Bbx_crypto.Aes
module Dpienc = Bbx_dpienc.Dpienc

type token_key = Aes.key

(* What the middlebox does with an encrypted rule, never holding k. *)
let token_key_of_enc e = Aes.expand_key e

let token_key key t = token_key_of_enc (Dpienc.token_enc key t)

(* [AES_tk(salt) mod RS] as a 40-bit int. *)
let encrypt tk ~salt = Aes.encrypt_u64 (Aes.key_arena tk) 0 salt land ((1 lsl Dpienc.rs_bits) - 1)

(* The unreduced block [AES_tk(0^8 || BE64(salt))]: the probable-cause
   mask. *)
let encrypt_full tk ~salt =
  Aes.encrypt_block tk (String.make 8 '\000' ^ Bbx_crypto.Util.u64_be salt)
