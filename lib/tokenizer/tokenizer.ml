module Obs = Bbx_obs.Obs

(* Emission accounting per tokenizer kind.  Counts are accumulated in the
   fold's own accumulator walk and added once per fold call, so the
   per-token cost of instrumentation is zero. *)
let obs_window_tokens = Obs.counter {|bbx_tokenizer_tokens_total{kind="window"}|}
let obs_delim_tokens = Obs.counter {|bbx_tokenizer_tokens_total{kind="delimiter"}|}
let obs_short_tokens = Obs.counter {|bbx_tokenizer_tokens_total{kind="short_unit"}|}
let obs_bytes = Obs.counter "bbx_tokenizer_payload_bytes_total"

let token_len = 8
let max_keyword_len = 32

let is_delimiter c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> false
  | c when Char.code c >= 0x80 -> false (* binary / multi-byte data *)
  | _ -> true

(* ---- streaming visitors ----

   The folds below are the primitive tokenizers: they hand the consumer
   [(off, len)] slices of the payload instead of materialising one string
   per token.  [len = token_len] for ordinary tokens; [len < token_len]
   marks a short delimiter-bounded unit whose logical token is the slice
   zero-padded to [token_len]. *)

let fold_window s ~init ~f =
  let n = String.length s in
  let acc = ref init in
  for off = 0 to n - token_len do
    acc := f !acc ~off ~len:token_len
  done;
  Obs.add obs_window_tokens (max 0 (n - token_len + 1));
  Obs.add obs_bytes n;
  !acc

(* For callers that scan windows themselves (the packed DPIEnc sender
   rolls the window bytes instead of re-reading them): keep the obs
   accounting identical to [fold_window]. *)
let note_window_scan s =
  let n = String.length s in
  Obs.add obs_window_tokens (max 0 (n - token_len + 1));
  Obs.add obs_bytes n

let window_count s = max 0 (String.length s - token_len + 1)

let pad_short s =
  let n = String.length s in
  if n = 0 || n > token_len then invalid_arg "Tokenizer.pad_short: bad length";
  s ^ String.make (token_len - n) '\000'

(* The delimiter tokenizer's emission plan: which full-token offsets get a
   token, and which short delimiter-bounded units get a padded one (the
   latter only when [short_units] is set: the paper's tokenizer detects
   keywords of 8+ bytes only, so padded short tokens are an extension).
   Keyword chunking consults the same plan, so that every chunk the
   middlebox searches for is actually emitted when the keyword appears on
   a boundary.

   The plan is one byte per payload position [i] (and one for the end of
   the payload): bit 0 marks a keyword boundary at [i] — the start/end of
   the stream and every position adjacent to a delimiter character (a
   keyword may itself contain or consist of delimiters, e.g. "?user=", so
   positions of delimiters count as boundaries too); bit 1 a full token
   at offset [i]; bits 2-4 the length of a short unit starting at [i].
   It is returned with its token count, full and short. *)
let boundary = 1
let full = 2

(* Set the full-token bit at [i]: 1 if it was clear, else 0. *)
let[@inline] set_full plan i =
  let v = Char.code (Bytes.unsafe_get plan i) in
  if v land full <> 0 then 0
  else begin
    Bytes.unsafe_set plan i (Char.unsafe_chr (v lor full));
    1
  end

let[@inline] bits plan i = Char.code (Bytes.unsafe_get plan i)

let delimiter_plan ~short_units s =
  let n = String.length s in
  let plan = Bytes.make (n + 1) '\000' in
  Bytes.unsafe_set plan 0 (Char.unsafe_chr boundary);
  Bytes.unsafe_set plan n (Char.unsafe_chr boundary);
  for i = 0 to n - 1 do
    if is_delimiter (String.unsafe_get s i) then begin
      Bytes.unsafe_set plan i (Char.unsafe_chr boundary);
      Bytes.unsafe_set plan (i + 1) (Char.unsafe_chr boundary)
    end
  done;
  let fulls = ref 0 and shorts = ref 0 in
  (* One chunk at every start boundary... *)
  for i = 0 to n - token_len do
    if bits plan i land boundary <> 0 then fulls := !fulls + set_full plan i
  done;
  (* ...continuation chunks at stride [token_len] inside long
     non-delimiter runs (covering keywords longer than one token)... *)
  let run_start = ref 0 in
  for i = 0 to n do
    if i = n || is_delimiter (String.unsafe_get s i) then begin
      let a = !run_start in
      if i - a > token_len then begin
        let off = ref (a + token_len) in
        while !off + token_len <= i && !off - a < max_keyword_len do
          fulls := !fulls + set_full plan !off;
          off := !off + token_len
        done
      end;
      (* short delimiter-bounded units are emitted zero-padded *)
      if short_units && i - a > 0 && i - a < token_len then begin
        Bytes.unsafe_set plan a (Char.unsafe_chr (bits plan a lor ((i - a) lsl 2)));
        incr shorts
      end;
      run_start := i + 1
    end
  done;
  (* ...plus end-aligned tails for every end boundary. *)
  for j = token_len to n do
    if bits plan j land boundary <> 0 then fulls := !fulls + set_full plan (j - token_len)
  done;
  (plan, !fulls, !shorts)

(* Emission order (full tokens ascending, then short units ascending) is
   part of the wire contract: the receiver's §3.4 validation re-tokenizes
   the plaintext and compares bytes. *)
let fold_delimiter ?(short_units = false) ?on_count s ~init ~f =
  let plan, fulls, shorts = delimiter_plan ~short_units s in
  (match on_count with Some g -> g (fulls + shorts) | None -> ());
  let acc = ref init in
  for off = 0 to String.length s - token_len do
    if bits plan off land full <> 0 then acc := f !acc ~off ~len:token_len
  done;
  if shorts > 0 then
    for off = 0 to String.length s - 1 do
      let len = bits plan off lsr 2 in
      if len > 0 then acc := f !acc ~off ~len
    done;
  Obs.add obs_delim_tokens fulls;
  Obs.add obs_short_tokens shorts;
  Obs.add obs_bytes (String.length s);
  !acc

let delimiter_count ?(short_units = false) s =
  let _, fulls, shorts = delimiter_plan ~short_units s in
  fulls + shorts

(* Split a rule keyword into chunks the middlebox will search for.  Chunk
   offsets are picked from the delimiter tokenizer's own emission plan for
   the keyword (a keyword sitting between delimiters in traffic is emitted
   at exactly these relative offsets, plus possibly more from context), so
   delimiter tokenization covers every chunk of a boundary-aligned keyword.
   Window tokenization emits every offset and covers them trivially.

   A greedy cover walks the emittable offsets: at each step take the
   right-most emittable chunk still overlapping the covered prefix.  Gaps
   (only possible for keywords longer than [max_keyword_len]) are jumped,
   trading a little match evidence for detectability. *)
let keyword_chunks kw =
  let n = String.length kw in
  if n = 0 then []
  else if n <= token_len then [ (pad_short kw, 0) ]
  else begin
    let plan, _, _ = delimiter_plan ~short_units:false kw in
    let offsets = ref [] in
    for i = n - token_len downto 0 do
      if bits plan i land full <> 0 then offsets := i :: !offsets
    done;
    let emittable = !offsets in (* sorted ascending; contains 0 and n - token_len *)
    let rec cover frontier acc =
      if frontier >= n then List.rev acc
      else begin
        let overlapping =
          List.filter (fun e -> e <= frontier && e + token_len > frontier) emittable
        in
        match List.fold_left (fun best e -> max best e) (-1) overlapping with
        | -1 ->
          (* gap: jump to the next emittable offset *)
          (match List.find_opt (fun e -> e > frontier) emittable with
           | Some e -> cover (e + token_len) (e :: acc)
           | None -> List.rev acc)
        | e -> cover (e + token_len) (e :: acc)
      end
    in
    let picks = cover 0 [] in
    (* always include the end-aligned tail so matches anchor the keyword end *)
    let picks = if List.mem (n - token_len) picks then picks else picks @ [ n - token_len ] in
    List.map (fun i -> (String.sub kw i token_len, i)) (List.sort_uniq compare picks)
  end
