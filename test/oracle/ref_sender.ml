(* The DPIEnc sender of §3.2 spelled out: a [Hashtbl] of occurrence
   counters keyed by padded token value, the i-th occurrence salted
   [salt0 + stride * i] (stride 2 in Probable mode, whose odd salts carry
   the embed), a reset that moves [salt0] past every salt used, and one
   boxed token key per distinct token ([Token_keys]).  The production
   sender's packed table, key arena, rolling window and staged output may
   not change a wire byte against it. *)

module Dpienc = Bbx_dpienc.Dpienc

type t = {
  mode : Dpienc.mode;
  key : Dpienc.key;
  mutable salt0 : int;
  seen : (string, int ref * Token_keys.token_key) Hashtbl.t;  (* occurrences, token key *)
}

let create mode key ~salt0 = { mode; key; salt0; seen = Hashtbl.create 64 }

let stride t = match t.mode with Dpienc.Exact -> 1 | Dpienc.Probable -> 2

let encrypt_token t ~k_ssl (tok : Tokens.token) : Records.enc_token =
  let n, tk =
    match Hashtbl.find_opt t.seen tok.content with
    | Some e -> e
    | None ->
      let e = (ref 0, Token_keys.token_key t.key tok.content) in
      Hashtbl.add t.seen tok.content e;
      e
  in
  let salt = t.salt0 + (stride t * !n) in
  incr n;
  { cipher = Token_keys.encrypt tk ~salt;
    embed =
      Option.map
        (fun k -> Bbx_crypto.Util.xor (Token_keys.encrypt_full tk ~salt:(salt + 1)) k)
        k_ssl;
    offset = tok.offset }

(* The list path: one record per token, in order. *)
let encrypt t ?k_ssl toks = List.map (encrypt_token t ~k_ssl) toks

(* [Dpienc.sender_encrypt_into]'s contract through the list path: one
   run per call that emits a token, implicit offsets for window tokens. *)
let encrypt_into t ?k_ssl ?(base = 0) ?(tokenization = Dpienc.Window) payload buf =
  let toks =
    match tokenization with
    | Dpienc.Window -> Tokens.window payload
    | Dpienc.Delimiter { short_units } -> Tokens.delimiter ~short_units payload
  in
  let shift (tok : Tokens.token) = { tok with offset = base + tok.offset } in
  let recs = encrypt t ?k_ssl (List.map shift toks) in
  Buffer.add_string buf
    (Records.encode_tokens ~explicit:(tokenization <> Dpienc.Window) ~base recs);
  List.length recs

let reset t =
  let max_count = Hashtbl.fold (fun _ (n, _) m -> max !n m) t.seen 0 in
  t.salt0 <- t.salt0 + (stride t * (max_count + 1));
  Hashtbl.reset t.seen;
  t.salt0
