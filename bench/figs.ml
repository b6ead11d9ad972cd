(* Figures 3-6: page-load times and bandwidth overheads.

   Figs. 3-4 combine a link model with per-byte CPU costs measured on the
   real sender pipeline (Record.seal + tokenize + DPIEnc); every figure
   charges the token bytes the DPIEnc sender really emits
   ([sender_encrypt_into], Exact mode, one write per page text) over the
   synthetic top-50 corpus. *)

open Bbx_crypto
open Bbx_dpienc
open Bbx_net

let dpi_key = Dpienc.key_of_secret "figs-k"
let delimiter = Dpienc.Delimiter { short_units = false }

(* The TOKEN_STREAM bytes a fresh sender emits for [text] in one write. *)
let token_wire_bytes tokenization text =
  let sender = Dpienc.sender_create Dpienc.Exact dpi_key ~salt0:0 in
  let buf = Buffer.create (Dpienc.exact_record_bytes * String.length text) in
  ignore (Dpienc.sender_encrypt_into sender ~tokenization text buf : int);
  Buffer.length buf

(* ---- measured cost model ------------------------------------------- *)

let sample_bytes = 128 * 1024

let measure_cost_model () =
  let text = Page.gen_html (Drbg.create "figs-html") ~bytes:sample_bytes in
  let text = String.sub text 0 sample_bytes in
  let writer = Bbx_tls.Record.create ~key:"figs" ~direction:"d" () in
  let tls_s = Bench_util.time_per ~min_time:0.5 (fun () -> ignore (Bbx_tls.Record.seal writer text)) in
  let bb_s =
    let sender = Dpienc.sender_create Dpienc.Exact dpi_key ~salt0:0 in
    let wire = Buffer.create (Dpienc.exact_record_bytes * sample_bytes) in
    Bench_util.time_per ~min_time:0.5 (fun () ->
        ignore (Bbx_tls.Record.seal writer text);
        Buffer.clear wire;
        ignore (Dpienc.sender_encrypt_into sender ~tokenization:delimiter text wire : int))
  in
  let fb = float_of_int sample_bytes in
  { Linksim.tls_cpu_per_byte = tls_s /. fb;
    bb_text_cpu_per_byte = bb_s /. fb;
    token_wire_per_text_byte = float_of_int (token_wire_bytes delimiter text) /. fb }

let model = lazy (measure_cost_model ())

let page_load_fig link ~label ~paper_note =
  let model = Lazy.force model in
  Bench_util.section label;
  Printf.printf "  measured cost model: TLS %.1f ns/B, BlindBox text %.1f ns/B, +%.2f wire B/text B\n"
    (model.Linksim.tls_cpu_per_byte *. 1e9) (model.Linksim.bb_text_cpu_per_byte *. 1e9)
    model.Linksim.token_wire_per_text_byte;
  Printf.printf "%-12s %14s %14s %8s %14s %14s %8s\n" "Site"
    "whole TLS" "whole BB+TLS" "ratio" "text TLS" "text BB+TLS" "ratio";
  List.iter
    (fun p ->
       let text = p.Corpus.text_kb * 1024 and binary = p.Corpus.binary_kb * 1024 in
       (* per-site token density: prose (Gutenberg) tokenizes far lighter
          than markup-heavy pages *)
       let body = Page.text_body (Corpus.page_of_profile p) in
       let model =
         { model with
           Linksim.token_wire_per_text_byte =
             float_of_int (token_wire_bytes delimiter body)
             /. float_of_int (max 1 (String.length body)) }
       in
       let t_whole_tls = Linksim.page_load link model Linksim.Tls ~text_bytes:text ~binary_bytes:binary in
       let t_whole_bb = Linksim.page_load link model Linksim.Blindbox ~text_bytes:text ~binary_bytes:binary in
       let t_text_tls = Linksim.page_load link model Linksim.Tls ~text_bytes:text ~binary_bytes:0 in
       let t_text_bb = Linksim.page_load link model Linksim.Blindbox ~text_bytes:text ~binary_bytes:0 in
       Printf.printf "%-12s %14s %14s %7.2fx %14s %14s %7.2fx\n" p.Corpus.site
         (Bench_util.fmt_seconds t_whole_tls) (Bench_util.fmt_seconds t_whole_bb)
         (t_whole_bb /. t_whole_tls)
         (Bench_util.fmt_seconds t_text_tls) (Bench_util.fmt_seconds t_text_bb)
         (t_text_bb /. t_text_tls))
    Corpus.named_sites;
  Bench_util.note "%s" paper_note

let run_fig3 () =
  page_load_fig Linksim.broadband ~label:"Fig 3: page load time, 20 Mbps x 10 ms (scaled testbed)"
    ~paper_note:
      "paper: whole-page overhead <= 2x (10-13%% on video-heavy sites), text/code up to ~3x"

let run_fig4 () =
  page_load_fig Linksim.gigabit ~label:"Fig 4: page load time, 1 Gbps x 10 ms"
    ~paper_note:"paper: CPU-bound regime; text-heavy overhead up to ~16x vs TLS"

(* ---- Fig 5: bandwidth overhead over the top-50 corpus --------------- *)

type page_overhead = {
  site : string;
  text : int;
  binary : int;
  window_wire : int;  (* token bytes on the wire, window tokenization *)
  delim_wire : int;   (* token bytes on the wire, delimiter tokenization *)
}

let corpus_overheads =
  lazy
    (List.mapi
       (fun i page ->
          let body = Page.text_body page in
          { site = Printf.sprintf "site%02d" i;
            text = Page.text_bytes page;
            binary = Page.binary_bytes page;
            window_wire = token_wire_bytes Dpienc.Window body;
            delim_wire = token_wire_bytes delimiter body })
       (Corpus.top50 ()))

let overhead_ratio p token_bytes =
  let total = p.text + p.binary in
  float_of_int (total + token_bytes) /. float_of_int total

let run_fig5 () =
  let pages = Lazy.force corpus_overheads in
  Bench_util.section "Fig 5a/5b: bytes and overhead across the top-50 corpus";
  Printf.printf "%-8s %10s %10s | %12s %8s | %12s %8s\n" "page" "text" "binary"
    "window wire" "ovh" "delim wire" "ovh";
  List.iter
    (fun p ->
       Printf.printf "%-8s %10s %10s | %12s %7.2fx | %12s %7.2fx\n" p.site
         (Bench_util.fmt_bytes p.text) (Bench_util.fmt_bytes p.binary)
         (Bench_util.fmt_bytes p.window_wire) (overhead_ratio p p.window_wire)
         (Bench_util.fmt_bytes p.delim_wire) (overhead_ratio p p.delim_wire))
    pages;
  let summarize name f =
    let l = List.map f pages in
    let a = Array.of_list l in
    Array.sort compare a;
    Printf.printf "  %-22s median %.2fx  min %.2fx  max %.2fx\n" name
      (Bench_util.percentile a 0.5) a.(0) a.(Array.length a - 1)
  in
  summarize "window overhead" (fun p -> overhead_ratio p p.window_wire);
  summarize "delimiter overhead" (fun p -> overhead_ratio p p.delim_wire);
  Bench_util.note "paper: window median 4x (worst 24x); delimiter median 2.5x (best 1.1x, worst 14x)"

(* ---- Fig 6: CDF vs plaintext and vs gzip ---------------------------- *)

let run_fig6 () =
  let pages = Lazy.force corpus_overheads in
  Bench_util.section "Fig 6: CDF of transmitted bytes, BlindBox : SSL baseline";
  (* compressed text sizes (binary assumed already compressed) *)
  let corpus = Corpus.top50 () in
  let compressed =
    List.map (fun page -> Bbx_compress.Compress.compressed_size (Page.text_body page)) corpus
  in
  let series =
    [ ("delim : plaintext", List.map (fun p -> overhead_ratio p p.delim_wire) pages);
      ("window : plaintext", List.map (fun p -> overhead_ratio p p.window_wire) pages);
      ("delim : gzip",
       List.map2
         (fun p ctext ->
            let base = ctext + p.binary in
            float_of_int (base + p.delim_wire) /. float_of_int base)
         pages compressed);
      ("window : gzip",
       List.map2
         (fun p ctext ->
            let base = ctext + p.binary in
            float_of_int (base + p.window_wire) /. float_of_int base)
         pages compressed);
    ]
  in
  Printf.printf "%-20s %8s %8s %8s %8s %8s %8s\n" "series (ratio)" "p10" "p25" "p50" "p75" "p90" "max";
  List.iter
    (fun (name, values) ->
       let a = Array.of_list values in
       Array.sort compare a;
       Printf.printf "%-20s %7.2fx %7.2fx %7.2fx %7.2fx %7.2fx %7.2fx\n" name
         (Bench_util.percentile a 0.10) (Bench_util.percentile a 0.25)
         (Bench_util.percentile a 0.50) (Bench_util.percentile a 0.75)
         (Bench_util.percentile a 0.90) a.(Array.length a - 1))
    series;
  Bench_util.note
    "paper's CDF ordering: delim:plain < window:plain < delim:gzip < window:gzip (gzip shrinks the baseline, tokens don't compress)"
