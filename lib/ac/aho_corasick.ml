(* Classic goto/fail/output construction with the fail links flattened into
   a dense 256-way transition table per node (so the search loop is a pure
   table walk, one load per input byte). *)

type t = {
  next : int array array;     (* node -> byte -> node *)
  outputs : int list array;   (* node -> pattern indices ending here *)
}

let build patterns =
  Array.iter (fun p -> if p = "" then invalid_arg "Aho_corasick.build: empty pattern") patterns;
  (* Trie construction. *)
  let cap = ref 16 in
  let goto = ref (Array.init !cap (fun _ -> Array.make 256 (-1))) in
  let outputs = ref (Array.make !cap []) in
  let n_nodes = ref 1 in
  let ensure_cap () =
    if !n_nodes >= !cap then begin
      let ncap = 2 * !cap in
      let g = Array.init ncap (fun i -> if i < !cap then !goto.(i) else Array.make 256 (-1)) in
      let o = Array.init ncap (fun i -> if i < !cap then !outputs.(i) else []) in
      cap := ncap; goto := g; outputs := o
    end
  in
  Array.iteri
    (fun idx pat ->
       let node = ref 0 in
       String.iter
         (fun c ->
            let b = Char.code c in
            if !goto.(!node).(b) = -1 then begin
              ensure_cap ();
              !goto.(!node).(b) <- !n_nodes;
              incr n_nodes;
              ensure_cap ()
            end;
            node := !goto.(!node).(b))
         pat;
       !outputs.(!node) <- idx :: !outputs.(!node))
    patterns;
  let goto = Array.sub !goto 0 !n_nodes in
  let outputs = Array.sub !outputs 0 !n_nodes in
  (* BFS to compute fail links, merging outputs, and flatten transitions. *)
  let fail = Array.make !n_nodes 0 in
  let queue = Queue.create () in
  for b = 0 to 255 do
    let v = goto.(0).(b) in
    if v = -1 then goto.(0).(b) <- 0
    else begin
      fail.(v) <- 0;
      Queue.add v queue
    end
  done;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    outputs.(u) <- outputs.(u) @ outputs.(fail.(u));
    for b = 0 to 255 do
      let v = goto.(u).(b) in
      if v = -1 then goto.(u).(b) <- goto.(fail.(u)).(b)
      else begin
        fail.(v) <- goto.(fail.(u)).(b);
        Queue.add v queue
      end
    done
  done;
  { next = goto; outputs }

let search t payload =
  let acc = ref [] in
  let node = ref 0 in
  String.iteri
    (fun i c ->
       node := t.next.(!node).(Char.code c);
       List.iter (fun p -> acc := (p, i + 1) :: !acc) t.outputs.(!node))
    payload;
  List.rev !acc

let count_matches t payload =
  let count = ref 0 in
  let node = ref 0 in
  String.iter
    (fun c ->
       node := t.next.(!node).(Char.code c);
       match t.outputs.(!node) with
       | [] -> ()
       | l -> count := !count + List.length l)
    payload;
  !count

let footprint_bytes t =
  let word = Sys.word_size / 8 in
  let nodes = Array.length t.next in
  (* dense 256-way row + header per node, plus the output lists (3 words
     per cons cell) *)
  let outputs =
    Array.fold_left (fun acc l -> acc + (3 * List.length l)) 0 t.outputs
  in
  (nodes * 258 + outputs + 8) * word
