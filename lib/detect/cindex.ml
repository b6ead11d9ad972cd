(* Two parallel int arrays, linear probing, backward-shift deletion, and a
   filter of one byte per slot in front of them.
   [ids.(i) = -1] marks an empty slot; [keys.(i)] is meaningful only when
   its slot is live.  Capacity is a power of two and the load factor is
   kept <= 1/2, so expected probe lengths stay O(1) even though DPIEnc
   ciphers churn (every match deletes one key and inserts another).

   The filter: a key's byte is [filter.(home slot)] and its bit is the
   3 bits of its Fibonacci product just below the ones [slot] takes.
   Every live key's bit is set, so a clear bit answers a miss without
   reading [keys]/[ids].  [remove] leaves its key's bit set (another key
   may share it) and counts it in [stale]; once stale bits outnumber live
   keys the filter is re-derived from the live slots.  Set bits then
   number at most [2 * count <= capacity] of [8 * capacity], so a miss
   passes the filter with probability <= 1/8.

   The hot-path loops are top-level tail recursions over immediate ints —
   no refs, no closures — so [find]/[insert]/[remove] allocate nothing. *)

type t = {
  mutable keys : int array;
  mutable ids : int array;
  mutable filter : Bytes.t;
  mutable mask : int;    (* capacity - 1 *)
  mutable shift : int;   (* 62 - log2 capacity: Fibonacci-hash top bits *)
  mutable count : int;
  mutable stale : int;   (* removals since the filter was last derived *)
}

let min_capacity = 16

(* Fibonacci hashing (multiplier = 2^63 / golden ratio, truncated to
   OCaml's 63-bit int): ciphers are AES outputs (uniform), but the tests —
   and any future non-cipher key — may not be; one multiply spreads any
   key over the top bits, which the shift then maps onto [0, capacity). *)
let[@inline] hash key = (key * 0x4F1BBCDCBFA53E0B) land max_int
let[@inline] slot t key = hash key lsr t.shift

(* The filter bit of a key whose hash is [h]. *)
let[@inline] bit t h = 1 lsl ((h lsr (t.shift - 3)) land 7)

let[@inline] set_bit t key =
  let h = hash key in
  let i = h lsr t.shift in
  Bytes.unsafe_set t.filter i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.filter i) lor bit t h))

(* [-1] when [key]'s filter bit is clear, else its home slot. *)
let[@inline] filtered_slot t key =
  let h = hash key in
  let i = h lsr t.shift in
  if Char.code (Bytes.unsafe_get t.filter i) land bit t h = 0 then -1 else i

let log2 c =
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  go 0 c

let alloc t cap =
  t.keys <- Array.make cap 0;
  t.ids <- Array.make cap (-1);
  t.filter <- Bytes.make cap '\000';
  t.mask <- cap - 1;
  t.shift <- 62 - log2 cap;
  t.count <- 0;
  t.stale <- 0

let create ?(capacity = 0) () =
  let rec pow2 c n = if c >= n then c else pow2 (c * 2) n in
  let cap = pow2 min_capacity (2 * capacity) in
  let t =
    { keys = [||]; ids = [||]; filter = Bytes.empty; mask = 0; shift = 0; count = 0;
      stale = 0 }
  in
  alloc t cap;
  t

let size t = t.count
let capacity t = Array.length t.ids

let rec find_from keys ids mask key i =
  let id = Array.unsafe_get ids i in
  if id < 0 then -1
  else if Array.unsafe_get keys i = key then id
  else find_from keys ids mask key ((i + 1) land mask)

let find t key =
  let i = filtered_slot t key in
  if i < 0 then -1 else find_from t.keys t.ids t.mask key i

let rec find_probe_from keys ids mask key i ~steps =
  steps := !steps + 1;
  let id = Array.unsafe_get ids i in
  if id < 0 then -1
  else if Array.unsafe_get keys i = key then id
  else find_probe_from keys ids mask key ((i + 1) land mask) ~steps

(* A filtered miss reads one byte and counts as one slot. *)
let find_probe t key ~steps =
  let i = filtered_slot t key in
  if i < 0 then begin
    steps := !steps + 1;
    -1
  end
  else find_probe_from t.keys t.ids t.mask key i ~steps

let mem t key = find t key >= 0

let rec insert_from t key id i =
  let cur = Array.unsafe_get t.ids i in
  if cur < 0 then begin
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.ids i id;
    t.count <- t.count + 1
  end
  else if Array.unsafe_get t.keys i = key then Array.unsafe_set t.ids i id
  else insert_from t key id ((i + 1) land t.mask)

let add t key id =
  set_bit t key;
  insert_from t key id (slot t key)

let grow t =
  let old_keys = t.keys and old_ids = t.ids in
  alloc t (2 * Array.length old_ids);
  Array.iteri (fun i id -> if id >= 0 then add t old_keys.(i) id) old_ids

let insert t key id =
  if id < 0 then invalid_arg "Cindex.insert: id must be >= 0";
  if 2 * (t.count + 1) > Array.length t.ids then grow t;
  add t key id

let rec slot_of_key keys ids mask key i =
  if Array.unsafe_get ids i < 0 then -1
  else if Array.unsafe_get keys i = key then i
  else slot_of_key keys ids mask key ((i + 1) land mask)

(* Backward-shift deletion: walk forward from the hole; any entry whose
   home slot does not lie (cyclically) strictly after the hole can slide
   back into it, re-opening the hole at its old position.  Stops at the
   first empty slot, leaving no tombstone behind.  The filter is indexed
   by home slot, so moving an entry leaves it as it is. *)
let rec backshift t keys ids mask hole j =
  let j = (j + 1) land mask in
  if Array.unsafe_get ids j < 0 then Array.unsafe_set ids hole (-1)
  else begin
    let home = slot t (Array.unsafe_get keys j) in
    if (j - home) land mask >= (j - hole) land mask then begin
      Array.unsafe_set keys hole (Array.unsafe_get keys j);
      Array.unsafe_set ids hole (Array.unsafe_get ids j);
      backshift t keys ids mask j j
    end
    else backshift t keys ids mask hole j
  end

(* Re-derive the filter from the live slots: O(capacity), paid for by the
   more than [count] removals that made [stale] exceed it. *)
let refilter t =
  Bytes.fill t.filter 0 (Bytes.length t.filter) '\000';
  for i = 0 to t.mask do
    if Array.unsafe_get t.ids i >= 0 then set_bit t (Array.unsafe_get t.keys i)
  done;
  t.stale <- 0

let remove t key =
  let i = slot_of_key t.keys t.ids t.mask key (slot t key) in
  if i >= 0 then begin
    t.count <- t.count - 1;
    backshift t t.keys t.ids t.mask i i;
    t.stale <- t.stale + 1;
    if t.stale > t.count then refilter t
  end

let clear t =
  Array.fill t.ids 0 (Array.length t.ids) (-1);
  Bytes.fill t.filter 0 (Bytes.length t.filter) '\000';
  t.count <- 0;
  t.stale <- 0

let iter t ~f =
  Array.iteri (fun i id -> if id >= 0 then f ~key:t.keys.(i) ~id) t.ids

let check_invariants t =
  let live = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun i id ->
       if id >= 0 then begin
         incr live;
         let key = t.keys.(i) in
         (* no false negative: the filter passes every live key *)
         if filtered_slot t key < 0 then ok := false;
         (* reachable: probing from the home slot finds this exact key
            before any empty slot *)
         if find_from t.keys t.ids t.mask key (slot t key) < 0 then ok := false
       end)
    t.ids;
  !ok && !live = t.count && 2 * t.count <= Array.length t.ids
  && t.stale <= t.count
  && Bytes.length t.filter = Array.length t.ids
