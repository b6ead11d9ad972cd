open Bbx_crypto
open Bbx_ot

type keys = { k_ssl : string; k : string; k_rand : string }

type state = { secret : Bbx_bignum.Nat.t }

let derive_keys k0 =
  { k_ssl = Kdf.derive ~secret:k0 ~label:"blindbox key-ssl" 16;
    k = Kdf.derive ~secret:k0 ~label:"blindbox key-dpi" 16;
    k_rand = Kdf.derive ~secret:k0 ~label:"blindbox key-rand" 32 }

let initiate drbg =
  let a = Group.random_exponent drbg in
  ({ secret = a }, Group.to_bytes (Group.exp Group.g a))

let shared_secret secret peer_share =
  if String.length peer_share <> Group.element_size then
    invalid_arg "Handshake: bad key-share length";
  let peer = Group.of_bytes peer_share in
  Sha256.digest (Group.to_bytes (Group.exp peer secret))

let respond drbg ~peer_share =
  let b = Group.random_exponent drbg in
  let share = Group.to_bytes (Group.exp Group.g b) in
  (derive_keys (shared_secret b peer_share), share)

let complete { secret } ~peer_share = derive_keys (shared_secret secret peer_share)

let local seed =
  let st, client_share = initiate (Drbg.create (seed ^ "/client")) in
  let keys_r, server_share =
    respond (Drbg.create (seed ^ "/server")) ~peer_share:client_share
  in
  let keys = complete st ~peer_share:server_share in
  assert (keys = keys_r);
  keys
