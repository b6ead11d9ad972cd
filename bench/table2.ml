(* Table 2: connection and detection micro-benchmarks for Vanilla HTTPS,
   the functional-encryption strawman, the Song-et-al searchable strawman,
   and BlindBox HTTPS.

   Absolute numbers shift relative to the paper (software AES here,
   AES-NI + JustGarble there; see DESIGN.md §2); what must reproduce is
   the *relative* structure: BlindBox within small factors of vanilla
   HTTPS, the searchable strawman slower by the ruleset factor (linear
   scan), the FE strawman slower by orders of magnitude, and rule-setup
   time linear in the number of keywords. *)

open Bbx_crypto
open Bbx_dpienc
open Bbx_strawman
open Bbx_tokenizer

let packet_bytes = 1500
let tokens_per_packet = packet_bytes - Tokenizer.token_len + 1 (* window: 1493 *)

(* keyword population for detection trees *)
let keywords n =
  let drbg = Drbg.create "table2-keywords" in
  Array.init n (fun _ -> Drbg.bytes drbg Tokenizer.token_len)

let html_packet =
  lazy (String.sub (Bbx_net.Page.gen_html (Drbg.create "t2html") ~bytes:packet_bytes) 0 packet_bytes)

type row = {
  label : string;
  vanilla : float;  (* seconds; nan = not measured, -1 = not possible *)
  fe : float;
  song : float;
  blindbox : float;
  paper : string;   (* the paper's row for side-by-side reading *)
}

let np = -1.0

let print_row r =
  let cell v = if v = np then "NP" else Bench_util.fmt_seconds v in
  Printf.printf "%-28s %12s %12s %12s %12s   | %s\n" r.label (cell r.vanilla) (cell r.fe)
    (cell r.song) (cell r.blindbox) r.paper

let run () =
  Bench_util.section "Table 2: micro-benchmarks (vanilla / FE / searchable / BlindBox)";
  Printf.printf "%-28s %12s %12s %12s %12s   | %s\n" "" "Vanilla" "FE" "Searchable" "BlindBox"
    "paper (vanilla/FE/searchable/BlindBox)";

  (* --- client-side encryption ------------------------------------- *)
  let aes_key = Aes.expand_key (Drbg.bytes (Drbg.create "t2k") 16) in
  let block = Drbg.bytes (Drbg.create "t2b") 16 in
  let vanilla_block = Bench_util.bechamel_ns ~name:"vanilla-block" (fun () -> Aes.encrypt_block aes_key block) *. 1e-9 in

  let fe_key = Fe.key_of_secret "t2-fe" in
  let fe_drbg = Drbg.create "t2-fe-drbg" in
  let fe_token = Bench_util.time_direct ~reps:5 (fun () -> ignore (Fe.encrypt fe_key fe_drbg "tokentok")) in

  let song_key = Song.key_of_secret "t2-song" in
  let song_sender = Song.sender_create song_key in
  let song_token =
    Bench_util.bechamel_ns ~name:"song-token" (fun () -> Song.encrypt song_sender "tokentok") *. 1e-9
  in

  let dpi_key = Dpienc.key_of_secret "t2-bb" in
  let packet = Lazy.force html_packet in
  (* the sender's streaming pass over the packet (window tokens) into a
     reused wire buffer *)
  let wire = Buffer.create (Dpienc.exact_record_bytes * tokens_per_packet) in
  let bb_encrypt sender () =
    Buffer.clear wire;
    ignore (Dpienc.sender_encrypt_into sender ~tokenization:Dpienc.Window packet wire : int)
  in
  let bb_token =
    (* amortized per token over a realistic packet, counter tables warm *)
    let sender = Dpienc.sender_create Dpienc.Exact dpi_key ~salt0:0 in
    bb_encrypt sender ();
    Bench_util.time_per (bb_encrypt sender) /. float_of_int tokens_per_packet
  in
  print_row
    { label = "Encrypt (128 bits)"; vanilla = vanilla_block; fe = fe_token; song = song_token;
      blindbox = bb_token; paper = "13ns / 70ms / 2.7us / 69ns" };

  let writer = Bbx_tls.Record.create ~key:"t2-rec" ~direction:"d" () in
  let vanilla_packet = Bench_util.time_per (fun () -> ignore (Bbx_tls.Record.seal writer packet)) in
  let fe_packet = fe_token *. float_of_int tokens_per_packet in
  let song_tokens = Bbx_oracle.Tokens.window packet in
  let song_packet =
    Bench_util.time_per ~min_time:0.5 (fun () ->
        List.iter (fun t -> ignore (Song.encrypt song_sender t.Bbx_oracle.Tokens.content))
          song_tokens)
  in
  let bb_packet =
    let sender = Dpienc.sender_create Dpienc.Exact dpi_key ~salt0:0 in
    bb_encrypt sender ();
    Bench_util.time_per (fun () ->
        ignore (Bbx_tls.Record.seal writer packet);
        bb_encrypt sender ())
  in
  print_row
    { label = "Encrypt (1500 bytes)"; vanilla = vanilla_packet; fe = fe_packet;
      song = song_packet; blindbox = bb_packet; paper = "3us / 15s / 257us / 90us" };

  (* --- setup -------------------------------------------------------- *)
  let vanilla_setup =
    Bench_util.time_per ~min_time:0.3 (fun () ->
        let st, share = Bbx_tls.Handshake.initiate (Drbg.create "hs-c") in
        let _, share_s = Bbx_tls.Handshake.respond (Drbg.create "hs-s") ~peer_share:share in
        ignore (Bbx_tls.Handshake.complete st ~peer_share:share_s))
  in
  let chunks1 = [| "keyword1" |] in
  let setup_1kw =
    Bench_util.time_direct (fun () ->
        ignore (Blindbox.Ruleprep.prepare_unchecked ~k:"k" ~k_rand:"kr" ~chunks:chunks1 ()))
  in
  print_row
    { label = "Setup (1 keyword)"; vanilla = vanilla_setup; fe = nan; song = nan;
      blindbox = setup_1kw; paper = "73ms / - / - / 588ms" };

  (* 3k rules ~ 9-10k keywords; per-chunk cost measured on a 4-chunk batch
     then extrapolated (the real run is linear in chunks by construction) *)
  let rules3k = Bbx_rules.Datasets.generate Bbx_rules.Datasets.Emerging_threats ~n:3000 in
  let n_chunks_3k = Array.length (Bbx_mbox.Engine.distinct_chunks rules3k) in
  let chunks4 =
    let drbg = Drbg.create "t2-chunks" in
    Array.init 4 (fun _ -> Drbg.bytes drbg Tokenizer.token_len)
  in
  let setup_4 =
    Bench_util.time_direct (fun () ->
        ignore (Blindbox.Ruleprep.prepare_unchecked ~k:"k" ~k_rand:"kr" ~chunks:chunks4 ()))
  in
  let setup_3k = setup_4 /. 4.0 *. float_of_int n_chunks_3k in
  print_row
    { label = "Setup (3K rules)"; vanilla = vanilla_setup; fe = nan; song = nan;
      blindbox = setup_3k; paper = "73ms / - / - / 97s" };
  Bench_util.note "3K-rule setup extrapolated from a measured 4-circuit batch; %d distinct chunks"
    n_chunks_3k;

  (* --- middlebox detection ------------------------------------------ *)
  let kw_per_rule = 3 in
  let detect_row ~rules_label ~n_keywords ~paper =
    let kws = keywords n_keywords in
    (* FE: linear scan, one modexp per keyword *)
    let fe_rks = Array.map (fun k -> Fe.rule_key fe_key k) (Array.sub kws 0 (min 3 n_keywords)) in
    let fe_cipher = Fe.encrypt fe_key fe_drbg "misstokn" in
    let fe_test = Bench_util.time_direct ~reps:5 (fun () -> ignore (Fe.detect fe_rks fe_cipher)) in
    let fe_token = fe_test /. float_of_int (Array.length fe_rks) *. float_of_int n_keywords in
    (* Searchable: linear scan, one AES per keyword *)
    let song_tds = Array.map (fun k -> Song.trapdoor song_key k) kws in
    let song_cipher = Song.encrypt song_sender "misstokn" in
    let song_tok =
      if n_keywords <= 100 then
        Bench_util.bechamel_ns ~name:"song-detect" (fun () -> Song.detect song_tds song_cipher) *. 1e-9
      else Bench_util.time_per (fun () -> ignore (Song.detect song_tds song_cipher))
    in
    (* BlindBox: one index lookup per token, amortized over a packet's
       wire of non-matching tokens *)
    let dpi = Dpienc.key_of_secret "t2-bb" in
    let encs = Array.map (fun k -> Dpienc.token_enc dpi k) kws in
    let det = Bbx_detect.Detect.create ~mode:Dpienc.Exact ~salt0:0 encs in
    let misses =
      Bbx_oracle.Records.encode_tokens ~explicit:false
        (List.init tokens_per_packet (fun i ->
             { Bbx_oracle.Records.cipher = 0x123456789a + i; embed = None; offset = i }))
    in
    let bb_tok =
      Bench_util.time_per (fun () ->
          ignore (Bbx_detect.Detect.process_stream det misses ~f:(fun _ ~embed_pos:_ -> ()) : int))
      /. float_of_int tokens_per_packet
    in
    print_row
      { label = Printf.sprintf "Detect: %s, 1 token" rules_label; vanilla = np;
        fe = fe_token; song = song_tok; blindbox = bb_tok; paper = fst paper };
    print_row
      { label = Printf.sprintf "Detect: %s, 1 packet" rules_label; vanilla = np;
        fe = fe_token *. float_of_int tokens_per_packet;
        song = song_tok *. float_of_int tokens_per_packet;
        blindbox = bb_tok *. float_of_int tokens_per_packet; paper = snd paper }
  in
  detect_row ~rules_label:"1 rule" ~n_keywords:kw_per_rule
    ~paper:("NP / 170ms / 1.9us / 20ns", "NP / 36s / 52us / 5us");
  detect_row ~rules_label:"3K rules" ~n_keywords:9600
    ~paper:("NP / 8.3min / 5.6ms / 137ns", "NP / 5.7days / 157ms / 33us");
  Bench_util.note "FE detection extrapolated from a 3-keyword scan (linear by construction)"
