(* Child processes: the [pti] tools that build inputs and the [pti
   serve] daemon under test. Every child is waited for; a daemon that
   ignores SIGTERM is killed. *)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let log_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

(* Run [pti args...] to completion; its output goes to [log]. *)
let run_tool ~pti ~log args =
  let null = devnull () and lfd = log_fd log in
  let pid =
    Unix.create_process pti (Array.of_list (pti :: args)) null lfd lfd
  in
  Unix.close null;
  Unix.close lfd;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ ->
      failwith
        (Printf.sprintf "pti %s failed (see %s)" (String.concat " " args) log)

type t = { pid : int; port : int; workers : int; out : Unix.file_descr }

(* Start [pti serve args... --port 0] and wait for its listening line. *)
let start ~pti ~log args =
  let null = devnull () and lfd = log_fd log in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process pti
      (Array.of_list ((pti :: "serve" :: args) @ [ "--port"; "0" ]))
      null wr lfd
  in
  Unix.close null;
  Unix.close lfd;
  Unix.close wr;
  let buf = Buffer.create 128 in
  let chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec line () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Buffer.sub buf 0 i
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then failwith "pti serve did not start";
        (match Unix.select [ rd ] [] [] left with
        | [], _, _ -> ()
        | _ ->
            let k = Unix.read rd chunk 0 (Bytes.length chunk) in
            if k = 0 then failwith (Printf.sprintf "pti serve exited (see %s)" log);
            Buffer.add_subbytes buf chunk 0 k);
        line ()
  in
  let port, workers =
    match line () with
    | l -> (
        (* "pti-serve: listening on HOST:PORT (N workers, ...)" *)
        try Scanf.sscanf l "pti-serve: listening on %_[^:]:%d (%d workers" (fun p w -> (p, w))
        with _ -> failwith ("unexpected pti serve output: " ^ l))
    | exception e ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        raise e
  in
  { pid; port; workers; out = rd }

(* Peak resident set (VmHWM) of the daemon, in kB. *)
let vm_hwm_kb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf l "VmHWM: %d kB" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* SIGTERM, then wait up to 20 s for the drain before SIGKILL. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  (try Unix.close t.out with Unix.Unix_error _ -> ())

(* Bytes of a file, or of every regular file under a directory. *)
let rec disk_bytes path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + disk_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()
