(* BlindBox Detect (§3.2) on the paper's search tree: one AVL node per
   keyword, keyed by the keyword's current ciphertext
   [Enc(salt0 + stride * count)], so a token costs one O(log n) lookup
   and a match re-keys the keyword under its next salt.  The reference
   for [Detect]'s flat cipher index: same events (keyword id, offset,
   salt), same duplicate-cipher rule (the last id wins), same recovered
   keys. *)

module Dpienc = Bbx_dpienc.Dpienc
module Detect = Bbx_detect.Detect

type t = {
  stride : int;
  mutable salt0 : int;
  tkeys : Token_keys.token_key array;
  counts : int array;
  ciphers : int array;       (* each keyword's current index key *)
  mutable tree : int Avl.t;  (* cipher -> keyword id *)
}

let current_salt t id = t.salt0 + (t.stride * t.counts.(id))

let rebuild t =
  t.tree <- Avl.empty;
  Array.iteri
    (fun id tk ->
       t.ciphers.(id) <- Token_keys.encrypt tk ~salt:(current_salt t id);
       t.tree <- Avl.insert t.ciphers.(id) id t.tree)
    t.tkeys

let create ?counts ~mode ~salt0 encs =
  let n = Array.length encs in
  let t =
    { stride = Dpienc.salt_stride mode; salt0;
      tkeys = Array.map Token_keys.token_key_of_enc encs;
      counts = (match counts with Some c -> Array.copy c | None -> Array.make n 0);
      ciphers = Array.make n 0; tree = Avl.empty }
  in
  rebuild t;
  t

let process_token t ~cipher ~offset =
  match Avl.find_opt cipher t.tree with
  | None -> None
  | Some id ->
    let salt = current_salt t id in
    t.counts.(id) <- t.counts.(id) + 1;
    let next = Token_keys.encrypt t.tkeys.(id) ~salt:(current_salt t id) in
    t.tree <- Avl.replace ~old_key:t.ciphers.(id) next id t.tree;
    t.ciphers.(id) <- next;
    Some { Detect.kw_id = id; offset; salt }

(* [Detect.process_stream]'s contract, on the tree. *)
let process_stream t wire ~f =
  let n = ref 0 in
  Dpienc.decode_iter wire ~f:(fun ~cipher ~offset ~embed_pos ->
      incr n;
      match process_token t ~cipher ~offset with
      | None -> ()
      | Some ev -> f ev ~embed_pos);
  !n

(* The list path: every match, in order. *)
let process_batch t (toks : Records.enc_token list) =
  List.filter_map
    (fun (r : Records.enc_token) -> process_token t ~cipher:r.cipher ~offset:r.offset)
    toks

let recover_key t ~(event : Detect.event) ~embed =
  let mask = Token_keys.encrypt_full t.tkeys.(event.kw_id) ~salt:(event.salt + 1) in
  Bbx_crypto.Util.xor embed mask

let reset t ~salt0 =
  t.salt0 <- salt0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  rebuild t

let salt_counts t = Array.copy t.counts

let size t = Avl.size t.tree
let height t = Avl.height t.tree
