(* List tokenizers on top of the production folds: one record per token,
   in the folds' emission order.  Short delimiter units become their
   zero-padded token. *)

module Tokenizer = Bbx_tokenizer.Tokenizer

type token = {
  content : string;  (* exactly [Tokenizer.token_len] bytes *)
  offset : int;      (* byte offset in the payload *)
}

(* The token a fold visit at [(off, len)] stands for. *)
let slice_token s ~off ~len =
  let content = String.sub s off len in
  { content = (if len = Tokenizer.token_len then content else Tokenizer.pad_short content);
    offset = off }

let visit s acc ~off ~len = slice_token s ~off ~len :: acc

let window s = List.rev (Tokenizer.fold_window s ~init:[] ~f:(visit s))

let delimiter ?short_units s =
  List.rev (Tokenizer.fold_delimiter ?short_units s ~init:[] ~f:(visit s))
