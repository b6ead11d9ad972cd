(* Ablations for the design choices DESIGN.md calls out:

   1. BlindBox Detect's tree lookup vs a linear scan over the same DPIEnc
      ciphertexts (the log-vs-linear argument of §3.2 in isolation);
   2. DPIEnc + counter salts vs plain deterministic AES + hash table — the
      paper's claim that the randomized scheme costs ~nothing over the
      insecure deterministic one;
   3. window vs delimiter tokenization: token volume vs keyword recall;
   4. IKNP OT extension vs running one public-key base OT per label. *)

open Bbx_crypto
open Bbx_dpienc
open Bbx_tokenizer
open Bbx_oracle

let run () =
  Bench_util.section "Ablation 1: tree lookup vs linear scan (per miss token)";
  let dpi = Dpienc.key_of_secret "abl-k" in
  let drbg = Drbg.create "abl-kws" in
  Printf.printf "  %-10s %14s %14s %10s\n" "#keywords" "AVL tree" "linear scan" "tree height";
  List.iter
    (fun n ->
       let kws = Array.init n (fun _ -> Drbg.bytes drbg 8) in
       let encs = Array.map (Dpienc.token_enc dpi) kws in
       let det = Ref_detect.create ~mode:Dpienc.Exact ~salt0:0 encs in
       let miss = 0x9999999999 in
       let tree_ns =
         Bench_util.bechamel_ns ~name:"tree" (fun () ->
             Ref_detect.process_token det ~cipher:miss ~offset:0)
       in
       (* linear scan over the same precomputed per-keyword ciphertexts *)
       let current = Array.map (fun enc -> Token_keys.encrypt (Token_keys.token_key_of_enc enc) ~salt:0) encs in
       let scan_ns =
         Bench_util.bechamel_ns ~name:"scan" (fun () ->
             let hit = ref false in
             for i = 0 to n - 1 do
               if current.(i) = miss then hit := true
             done;
             !hit)
       in
       Printf.printf "  %-10d %11.0f ns %11.0f ns %10d\n" n tree_ns scan_ns
         (Ref_detect.height det))
    [ 10; 100; 1000; 10_000 ];
  Bench_util.note "the searchable strawman additionally pays one AES per keyword per token on the scan";

  Bench_util.section "Ablation 2: DPIEnc detection vs deterministic encryption (security off)";
  (* The paper's claim (§3): DPIEnc + BlindBox Detect achieve "the
     detection speed of deterministic encryption and the security of
     randomized encryption".  Deterministic detection is one hashtable
     probe of the static ciphertext; DPIEnc detection is one tree probe
     plus counter maintenance on matches. *)
  let n_kw = 10_000 in
  let kws2 = Array.init n_kw (fun _ -> Drbg.bytes drbg 8) in
  let encs2 = Array.map (Dpienc.token_enc dpi) kws2 in
  let det2 = Ref_detect.create ~mode:Dpienc.Exact ~salt0:0 encs2 in
  let miss2 = 0x7777777777 in
  let dpienc_ns =
    Bench_util.bechamel_ns ~name:"dpienc" (fun () ->
        Ref_detect.process_token det2 ~cipher:miss2 ~offset:0)
  in
  let table = Hashtbl.create n_kw in
  Array.iteri
    (fun i enc -> Hashtbl.replace table (Token_keys.encrypt (Token_keys.token_key_of_enc enc) ~salt:0) i)
    encs2;
  let det_ns =
    Bench_util.bechamel_ns ~name:"determ" (fun () -> Hashtbl.find_opt table miss2)
  in
  Printf.printf "  detection per token over %d keywords: DPIEnc+tree %.0f ns vs deterministic+hashtable %.0f ns (%.1fx)\n"
    n_kw dpienc_ns det_ns (dpienc_ns /. det_ns);
  (* sender side: the randomized salts cost one extra AES per occurrence;
     both sides walk the packet's delimiter tokens *)
  let packet = Bbx_net.Page.gen_html (Drbg.create "abl-html") ~bytes:1500 in
  let delimiter = Dpienc.Delimiter { short_units = false } in
  let dpienc_s =
    let sender = Dpienc.sender_create Dpienc.Exact dpi ~salt0:0 in
    let wire = Buffer.create 4096 in
    let encrypt () =
      Buffer.clear wire;
      ignore (Dpienc.sender_encrypt_into sender ~tokenization:delimiter packet wire : int)
    in
    encrypt ();
    Bench_util.time_per encrypt
  in
  let det_s =
    let cache = Hashtbl.create 512 in
    Bench_util.time_per (fun () ->
        Hashtbl.reset cache;
        Tokenizer.fold_delimiter packet ~init:() ~f:(fun () ~off ~len ->
            let t = String.sub packet off len in
            match Hashtbl.find_opt cache t with
            | Some _ -> ()
            | None -> Hashtbl.add cache t (Dpienc.token_enc dpi t)))
  in
  Printf.printf "  sender per 1500-byte packet: DPIEnc %s vs deterministic %s (%.1fx)\n"
    (Bench_util.fmt_seconds dpienc_s) (Bench_util.fmt_seconds det_s) (dpienc_s /. det_s);
  Bench_util.note "deterministic encryption leaks token frequencies (forbidden by the threat model)";

  Bench_util.section "Ablation 3: window vs delimiter tokenization";
  let text = Bbx_net.Page.gen_html (Drbg.create "abl-t") ~bytes:(64 * 1024) in
  Printf.printf "  tokens per text byte: window %.2f, delimiter %.2f\n"
    (float_of_int (Tokenizer.window_count text) /. float_of_int (String.length text))
    (float_of_int (Tokenizer.delimiter_count text) /. float_of_int (String.length text));
  (* recall on keywords planted mid-word vs on boundaries *)
  let covered tokenize payload kw =
    let toks = tokenize payload in
    List.for_all
      (fun (c, rel) ->
         let base = 5 (* "q=az " prefix below *) in
         List.exists (fun t -> t.Tokens.content = c && t.Tokens.offset = base + rel) toks)
      (Tokenizer.keyword_chunks kw)
  in
  let kw = "evilpayloadkw" in
  let aligned = "q=az " ^ kw ^ " tail" in
  Printf.printf "  boundary-aligned keyword: window %b, delimiter %b\n"
    (covered Tokens.window aligned kw) (covered Tokens.delimiter aligned kw);
  let covered_anywhere tokenize payload kw =
    let toks = tokenize payload in
    List.exists
      (fun t ->
         match Tokenizer.keyword_chunks kw with
         | (first, _) :: _ -> t.Tokens.content = first
         | [] -> false)
      toks
  in
  let glued = "q=azq" ^ kw ^ "zq x" in
  Printf.printf "  mid-word keyword:         window %b, delimiter %b\n"
    (covered_anywhere Tokens.window glued kw)
    (covered_anywhere Tokens.delimiter glued kw);

  Bench_util.section "Ablation 4: garbling scheme — half-gates vs classic 4-row";
  let aes_c = Bbx_circuit.Aes_circuit.build () in
  let time_garble scheme =
    Bench_util.time_direct (fun () ->
        ignore (Bbx_garble.Garble.garble ~scheme (Drbg.create "abl-g") aes_c))
  in
  let size scheme =
    Bbx_garble.Garble.size_bytes (fst (Bbx_garble.Garble.garble ~scheme (Drbg.create "abl-g") aes_c))
  in
  let eval_time scheme =
    let g, sec = Bbx_garble.Garble.garble ~scheme (Drbg.create "abl-g") aes_c in
    let labels = Bbx_garble.Garble.encode_inputs sec (Array.make 256 false) in
    Bench_util.time_direct (fun () -> ignore (Bbx_garble.Garble.eval aes_c g labels))
  in
  Printf.printf "  %-12s %12s %12s %12s\n" "scheme" "garble" "eval" "size";
  List.iter
    (fun (name, scheme) ->
       Printf.printf "  %-12s %12s %12s %12s\n" name
         (Bench_util.fmt_seconds (time_garble scheme))
         (Bench_util.fmt_seconds (eval_time scheme))
         (Bench_util.fmt_bytes (size scheme)))
    [ ("classic", Bbx_garble.Garble.Classic); ("half-gates", Bbx_garble.Garble.Half_gates) ];
  Bench_util.note "half-gates (the default) halves circuit bytes and evaluator hashes per AND gate";

  Bench_util.section "Ablation 5: IKNP extension vs per-label base OT (64 labels)";
  let open Bbx_ot in
  let n = 64 in
  let messages = Array.init n (fun i -> (Printf.sprintf "label-zero-%04d!" i, Printf.sprintf "label-one--%04d!" i)) in
  let choices = Array.init n (fun i -> i land 1 = 0) in
  let ext_s =
    Bench_util.time_direct (fun () ->
        ignore
          (Extension.run ~sender_drbg:(Drbg.create "abl-es") ~receiver_drbg:(Drbg.create "abl-er")
             ~messages ~choices))
  in
  let base_s =
    Bench_util.time_direct (fun () ->
        let sd = Drbg.create "abl-bs" and rd = Drbg.create "abl-br" in
        let params = Base.setup sd in
        Array.iteri
          (fun i b ->
             let st, pk0 = Base.receiver_choose rd params b in
             let m0, m1 = messages.(i) in
             let resp = Base.sender_respond sd params ~pk0 ~m0 ~m1 in
             ignore (Base.receiver_recover st resp))
          choices)
  in
  Printf.printf "  base OT x64: %s;  IKNP (incl. 128 base OTs): %s\n"
    (Bench_util.fmt_seconds base_s) (Bench_util.fmt_seconds ext_s);
  Bench_util.note "extension amortises: past ~128 transfers it beats per-label base OT and scales with symmetric crypto only"
