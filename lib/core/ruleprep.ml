open Bbx_circuit
open Bbx_crypto
open Bbx_garble
open Bbx_ot
open Bbx_tokenizer
module Obs = Bbx_obs.Obs
module Pool = Bbx_exec.Pool

(* Setup-cost metrics: `blindbox stats` reports obfuscated rule
   encryption next to the data-path counters.  The spans double as the
   per-call timing source — [stats] seconds are span-seconds deltas, so
   they read 0.0 when observability is disabled (BLINDBOX_OBS=0). *)
let obs_garble = Obs.span "bbx_ruleprep_garble"
let obs_ot = Obs.span "bbx_ruleprep_ot"
let obs_eval = Obs.span "bbx_ruleprep_eval"
let obs_circuits = Obs.counter "bbx_ruleprep_circuits_total"
let obs_circuit_bytes = Obs.counter "bbx_ruleprep_circuit_bytes_total"
let obs_ot_bytes = Obs.counter "bbx_ruleprep_ot_bytes_total"

type stats = {
  circuits : int;
  circuit_bytes : int;
  ot_bytes : int;
  garble_seconds : float;
  eval_seconds : float;
}

type prepared = {
  chunks : string array;
  encs : string array;
  generation : int;
}

(* The tower-field AES circuit (9 000 AND gates) with half-gates garbling
   lands per-circuit sizes near the paper's 599 KB; the algebraic circuit
   is kept for the circuit tests and garbling ablations. *)
let circuit =
  let c = lazy (Aes_circuit.build_tower ()) in
  fun () -> Lazy.force c

let chunk_bits_per_circuit = 8 * Tokenizer.token_len (* 64 *)

(* One deterministic garbling per (generation, chunk index); both endpoints
   derive the same DRBG from k_rand so their circuits agree byte-for-byte.
   The generation label keeps rule *updates* on fresh randomness — garbled
   circuits must never be reused across different evaluator inputs. *)
let garble_for_chunk ~generation ~k_rand idx c =
  let drbg =
    Drbg.create
      (Kdf.derive ~secret:k_rand ~label:(Printf.sprintf "garble-%s-%d" generation idx) 32)
  in
  Garble.garble drbg c

(* The three per-chunk stages (garble, re-derive + check, evaluate) are
   embarrassingly parallel — every chunk's DRBG is derived from
   (generation, idx) alone — so one polymorphic map covers them all.
   [domains <= 1] is the exact sequential code path (no pool is spawned);
   with a pool, [Pool.map] deals chunks round-robin across stateless
   workers and results are byte-identical at any domain count. *)
type mapper = { pmap : 'a. int -> (int -> 'a) -> 'a array }

let with_mapper ~domains f =
  if domains <= 1 then f { pmap = (fun n g -> Array.init n g) }
  else
    Pool.with_pool ~domains ~state:(fun _ -> ()) @@ fun pool ->
    f { pmap = (fun n g -> Pool.map pool ~n ~f:(fun i () -> g i)) }

(* Stage timing through the obs span (so `blindbox stats` sees it) with
   the delta mirrored into the per-call [stats] record. *)
let timed span f =
  let s0 = Obs.span_seconds span in
  let r = Obs.time span f in
  (r, Obs.span_seconds span -. s0)

let prepare_internal ?k_rand_receiver ?(generation = "initial") ?(domains = 1)
    ~k ~k_rand ~chunks () =
  Array.iter
    (fun chunk ->
       if String.length chunk <> Tokenizer.token_len then
         invalid_arg "Ruleprep: chunk must be token-sized")
    chunks;
  let c = circuit () in
  let n = Array.length chunks in
  let raw_key = Bbx_dpienc.Dpienc.raw_key_of_secret k in
  let key_bits = Circuit.bits_of_string raw_key in
  with_mapper ~domains @@ fun m ->
  (* Endpoint S garbles; endpoint R's copy is re-derived and checked. *)
  let garblings_s, garble_seconds =
    timed obs_garble (fun () -> m.pmap n (fun i -> garble_for_chunk ~generation ~k_rand i c))
  in
  (* The receiver independently re-derives every circuit from its own copy
     of k_rand; the middlebox accepts only byte-identical garblings (at
     least one endpoint is honest, so agreement implies honesty). *)
  let k_rand_r = Option.value k_rand_receiver ~default:k_rand in
  ignore
    (m.pmap n (fun i ->
         let g_r = fst (garble_for_chunk ~generation ~k_rand:k_rand_r i c) in
         if not (Garble.equal (fst garblings_s.(i)) g_r) then
           invalid_arg "Ruleprep: endpoint garblings disagree (malicious endpoint?)")
      : unit array);
  (* Batched IKNP oblivious transfer for every chunk bit of every circuit:
     the middlebox's choice bits are the chunk bits; the endpoints' message
     pairs are the corresponding input-wire labels.  The flat arrays are
     pre-sized and filled in place — no intermediate per-chunk arrays or
     concat copies proportional to total label bytes. *)
  let msg_first, _ = Aes_circuit.msg_input_range in
  let bits = chunk_bits_per_circuit in
  let messages = Array.make (n * bits) ("", "") in
  let choices = Array.make (n * bits) false in
  for i = 0 to n - 1 do
    let _, secrets = garblings_s.(i) in
    let chunk_bits = Circuit.bits_of_string chunks.(i) in
    let base = i * bits in
    for b = 0 to bits - 1 do
      messages.(base + b) <- Garble.input_label_pair secrets ~wire:(msg_first + b);
      choices.(base + b) <- chunk_bits.(b)
    done
  done;
  let (chunk_labels, ot_bytes), _ =
    timed obs_ot (fun () ->
        if n = 0 then ([||], 0)
        else
          Extension.run
            ~sender_drbg:(Drbg.create (Kdf.derive ~secret:k_rand ~label:"ot-endpoint" 32))
            ~receiver_drbg:
              (Drbg.create (Sha256.digest (String.concat "" (Array.to_list chunks) ^ "mb-ot")))
            ~messages ~choices)
  in
  (* The middlebox's evaluation: key labels and zero-pad labels arrive
     directly from the endpoints; chunk labels come from the OT. *)
  let encs, eval_seconds =
    timed obs_eval (fun () ->
        m.pmap n (fun i ->
            let g, secrets = garblings_s.(i) in
            let labels =
              Array.init c.Circuit.n_inputs (fun w ->
                  if w < 128 then Garble.encode_input secrets ~wire:w key_bits.(w)
                  else if w < msg_first + bits then
                    chunk_labels.((i * bits) + (w - msg_first))
                  else Garble.encode_input secrets ~wire:w false)
            in
            Circuit.string_of_bits (Garble.eval c g labels)))
  in
  let circuit_bytes =
    Array.fold_left (fun acc (g, _) -> acc + Garble.size_bytes g) 0 garblings_s
  in
  Obs.add obs_circuits n;
  Obs.add obs_circuit_bytes circuit_bytes;
  Obs.add obs_ot_bytes ot_bytes;
  (encs,
   { circuits = n; circuit_bytes; ot_bytes; garble_seconds; eval_seconds })

let prepare_unchecked ?generation ?domains ~k ~k_rand ~chunks () =
  prepare_internal ?generation ?domains ~k ~k_rand ~chunks ()

(* Test hook for the malicious-endpoint case: endpoints with different
   randomness (i.e. at least one cheating on the agreed seed) must be
   rejected by the middlebox's equality check. *)
let prepare_distrusting ~k ~k_rand_sender ~k_rand_receiver ~chunks =
  prepare_internal ~k_rand_receiver ~k ~k_rand:k_rand_sender ~chunks ()

let verify_signatures ~op ~rg_key ~signatures chunks =
  if Array.length signatures <> Array.length chunks then
    invalid_arg (Printf.sprintf "%s: one signature per chunk required" op);
  Array.iteri
    (fun i chunk ->
       if not (Bbx_sig.Rsa.verify rg_key ~signature:signatures.(i) chunk) then
         invalid_arg (Printf.sprintf "%s: bad RG signature on chunk %d" op i))
    chunks

let prepare ?generation ?domains ~k ~k_rand ~chunks ~signatures ~rg_key () =
  verify_signatures ~op:"Ruleprep.prepare" ~rg_key ~signatures chunks;
  prepare_internal ?generation ?domains ~k ~k_rand ~chunks ()

(* ---------- incremental preparation ---------- *)

let prepared ~chunks ~encs =
  if Array.length chunks <> Array.length encs then
    invalid_arg "Ruleprep.prepared: one encryption per chunk required";
  { chunks; encs; generation = 0 }

let lookup prep =
  let tbl = Hashtbl.create (max 16 (Array.length prep.chunks)) in
  Array.iteri (fun i c -> Hashtbl.replace tbl c prep.encs.(i)) prep.chunks;
  fun chunk -> Hashtbl.find tbl chunk

(* Split an update into (kept chunk/enc pairs, fresh chunks): kept =
   prev minus [remove]; fresh = [add] minus kept, deduplicated with first
   appearance order preserved. *)
let split prev ~add ~remove =
  let removed = Hashtbl.create (max 16 (Array.length remove)) in
  Array.iter (fun c -> Hashtbl.replace removed c ()) remove;
  let kept_chunks = ref [] and kept_encs = ref [] in
  Array.iteri
    (fun i c ->
       if not (Hashtbl.mem removed c) then begin
         kept_chunks := c :: !kept_chunks;
         kept_encs := prev.encs.(i) :: !kept_encs
       end)
    prev.chunks;
  let have = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace have c ()) !kept_chunks;
  let fresh = ref [] in
  Array.iter
    (fun c ->
       if not (Hashtbl.mem have c) then begin
         Hashtbl.replace have c ();
         fresh := c :: !fresh
       end)
    add;
  ( Array.of_list (List.rev !kept_chunks),
    Array.of_list (List.rev !kept_encs),
    Array.of_list (List.rev !fresh) )

let generation_label g = Printf.sprintf "update-%d" g

let update ?domains ?signatures ?rg_key ~k ~k_rand ~prev ~add ~remove () =
  (match (signatures, rg_key) with
   | Some signatures, Some rg_key ->
     (* signatures cover the RG's announced additions, before dedup *)
     verify_signatures ~op:"Ruleprep.update" ~rg_key ~signatures add
   | None, None -> ()
   | _ -> invalid_arg "Ruleprep.update: signatures and rg_key go together");
  let kept_chunks, kept_encs, fresh = split prev ~add ~remove in
  let generation = prev.generation + 1 in
  let fresh_encs, stats =
    prepare_internal ~generation:(generation_label generation) ?domains ~k ~k_rand
      ~chunks:fresh ()
  in
  ( { chunks = Array.append kept_chunks fresh;
      encs = Array.append kept_encs fresh_encs;
      generation },
    stats )

let update_direct ~enc ~prev ~add ~remove =
  let kept_chunks, kept_encs, fresh = split prev ~add ~remove in
  { chunks = Array.append kept_chunks fresh;
    encs = Array.append kept_encs (Array.map enc fresh);
    generation = prev.generation + 1 }
