open Bbx_dpienc
module Obs = Bbx_obs.Obs

(* Lookup accounting (§3.2's per-token cost, measured).  Lookups are added
   in bulk per stream, and the probe length of one lookup in
   [1 lsl sample_shift] is observed into the [bbx_detect_probe_len]
   histogram — the index's linear-probe scan length (expected O(1) at
   load factor <= 1/2).  An exact per-token count costs ~7% throughput
   (it fails the obs-overhead gate); the sampled estimator is
   statistically identical on any real stream and keeps the hot path at
   one branch + one increment.  Index shape is sampled as gauges once per
   [process_stream] call. *)
let obs_lookups = Obs.counter "bbx_detect_lookups_total"
let obs_probe_len =
  Obs.histogram "bbx_detect_probe_len"
    ~buckets:[| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 |]
let obs_matches = Obs.counter "bbx_detect_matches_total"
let obs_index_capacity = Obs.gauge "bbx_detect_index_capacity"
let obs_keywords = Obs.gauge "bbx_detect_keywords"
let sample_shift = 6

type keyword_id = int

type event = { kw_id : keyword_id; offset : int; salt : int }

(* Per-keyword state is indexed by keyword id: [encs] holds each
   keyword's [AES_k(token)] (borrowed from the caller, never written) and
   [counts] the flat salt-counter table.  [index] maps each keyword's
   current 40-bit cipher back to the keyword.  A keyword's next cipher is
   computed straight from its [AES_k(token)] ([Dpienc.cipher]) when it is
   needed (build, match, reset), so a detector holds no expanded key.
   [probe_tick] and [probe_steps] live on [t] (not at module level) so
   that detectors owned by different domains — one per Shardpool shard —
   never share mutable detection-path state. *)
type t = {
  mode : Dpienc.mode;
  stride : int;
  mutable salt0 : int;
  encs : string array;
  counts : int array;
  index : Cindex.t;
  mutable probe_tick : int;
  probe_steps : int ref;
}

let[@inline] current_salt t id = t.salt0 + (t.stride * t.counts.(id))

(* Keyword [id]'s cipher under its current salt. *)
let[@inline] current_cipher t id = Dpienc.cipher t.encs.(id) ~salt:(current_salt t id)

let rebuild t =
  Cindex.clear t.index;
  for id = 0 to Array.length t.counts - 1 do
    Cindex.insert t.index (current_cipher t id) id
  done

let create ?counts ~mode ~salt0 encs =
  if mode = Dpienc.Probable && salt0 land 1 <> 0 then
    invalid_arg "Detect.create: salt0 must be even";
  let n = Array.length encs in
  let counts =
    match counts with
    | None -> Array.make n 0
    | Some c ->
      if Array.length c <> n then invalid_arg "Detect.create: count table size mismatch";
      Array.iter (fun x -> if x < 0 then invalid_arg "Detect.create: negative count") c;
      Array.copy c
  in
  let t =
    { mode; stride = Dpienc.salt_stride mode; salt0;
      encs; counts;
      index = Cindex.create ~capacity:n ();
      probe_tick = 0; probe_steps = ref 0 }
  in
  rebuild t;
  t

(* Streaming core: one index lookup per token; on a match the keyword is
   re-keyed to its next-salt ciphertext in place (remove + insert over
   contiguous slots, zero allocation).  The binding to remove is the
   token's own: [cipher -> found] was inserted when [found]'s cipher
   became [cipher], and only this re-key or a rebuild moves it since. *)
let process_token t ~cipher ~offset =
  let found =
    if Obs.enabled () then begin
      let k = t.probe_tick + 1 in
      t.probe_tick <- k;
      if k land ((1 lsl sample_shift) - 1) = 0 then begin
        t.probe_steps := 0;
        let r = Cindex.find_probe t.index cipher ~steps:t.probe_steps in
        Obs.observe obs_probe_len !(t.probe_steps);
        r
      end
      else Cindex.find t.index cipher
    end
    else Cindex.find t.index cipher
  in
  if found < 0 then None
  else begin
    Obs.incr obs_matches;
    let salt = current_salt t found in
    t.counts.(found) <- t.counts.(found) + 1;
    Cindex.remove t.index cipher;
    Cindex.insert t.index (current_cipher t found) found;
    Some { kw_id = found; offset; salt }
  end

(* Walk a wire-encoded token stream without materialising records; [f]
   fires once per match with the position of the matching record's embed
   inside [wire] (or -1).  Returns the token count. *)
let process_stream t wire ~f =
  let count = ref 0 in
  Dpienc.decode_iter wire ~f:(fun ~cipher ~offset ~embed_pos ->
      incr count;
      match process_token t ~cipher ~offset with
      | None -> ()
      | Some ev -> f ev ~embed_pos);
  (* bulk/per-delivery accounting, not per token (all O(1)) *)
  Obs.add obs_lookups !count;
  Obs.set_gauge obs_index_capacity (Cindex.capacity t.index);
  Obs.set_gauge obs_keywords (Array.length t.counts);
  !count

let recover_key t ~event ~embed =
  if t.mode <> Dpienc.Probable then
    invalid_arg "Detect.recover_key: not in probable-cause mode";
  if String.length embed <> 16 then invalid_arg "Detect.recover_key: embed must be 16 bytes";
  Dpienc.mask_xor t.encs.(event.kw_id) ~salt:(event.salt + 1) embed

let reset t ~salt0 =
  if t.mode = Dpienc.Probable && salt0 land 1 <> 0 then
    invalid_arg "Detect.reset: salt0 must be even";
  t.salt0 <- salt0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  rebuild t

(* The per-connection half of the detector state is the flat
   salt-counter table plus the base salt.  Ciphers and the index are
   derivable from (encs, salt0, counts) — [create ~counts] builds them —
   so connection snapshots carry one int per keyword. *)
let salt_counts t = Array.copy t.counts

let size t = Cindex.size t.index

(* Resident bytes of the per-connection half of the detector: the
   counter array and the index, its two slot arrays and its filter of one
   byte per slot (a [Bytes.t] is its bytes plus one, rounded up to whole
   words, and a header word).  The fixed-size records are not charged;
   the borrowed [encs] are charged to their owner. *)
let word = Sys.word_size / 8

let footprint_bytes t =
  let cap = Cindex.capacity t.index in
  let counts = (Array.length t.counts + 1) * word in
  let slots = 2 * (cap + 1) * word in
  let filter = (((cap + word) / word) + 1) * word in
  counts + slots + filter
