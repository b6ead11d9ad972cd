let sigpipe_ignored = ref false

let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    sigpipe_ignored := true;
    (* not all platforms have SIGPIPE (and set_signal raises there) *)
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
    | Invalid_argument _ | Sys_error _ -> ()
  end

let rec retry f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry f

let read fd buf off len = retry (fun () -> Unix.read fd buf off len)

let write fd buf off len = retry (fun () -> Unix.write fd buf off len)

let really_write fd buf off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    let n = write fd buf !off !len in
    off := !off + n;
    len := !len - n
  done

let write_string fd s = really_write fd (Bytes.unsafe_of_string s) 0 (String.length s)

let accept ?cloexec fd = retry (fun () -> Unix.accept ?cloexec fd)
