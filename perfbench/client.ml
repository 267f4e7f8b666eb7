(* The benchmark's own closed-loop client: one thread per connection,
   each sending its next request only after the previous reply
   arrived. It links [Protocol] for the wire format and nothing from
   [Loadgen], so changes to the serving code cannot change how the
   benchmark measures.

   Nothing is checked against the index inside the timed window: each
   reply's tag and id are checked, its body digest (or, where no later
   direct call can reproduce it, the body itself) is kept, and
   [Check] compares them afterwards. *)

module P = Pti_server.Protocol

let tag_hits = P.reply_tag (P.Hits [])
let tag_ack = P.reply_tag (P.Ack 0)

type conn = { fd : Unix.file_descr; wb : P.Wbuf.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  P.connect_retry fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; wb = P.Wbuf.create 256 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request, one reply (the raw payload: tag, id, body). *)
let call c ~id op =
  P.Wbuf.reset c.wb;
  P.encode_request_into c.wb { P.id; op };
  P.write_wbuf c.fd c.wb;
  match P.read_frame c.fd with
  | Some payload -> payload
  | None -> failwith "daemon closed the connection"

let body payload = String.sub payload 5 (String.length payload - 5)

let stats c =
  match P.decode_reply (call c ~id:0 P.Stats) with
  | _, P.Stats_reply s -> Mini_json.parse s
  | _ -> failwith "Stats: unexpected reply"

type run = {
  ops : P.op array;  (** The op actually sent (deletes resolved). *)
  t_start : int array;  (** Monotonic ns at send. *)
  t_end : int array;  (** Monotonic ns at reply; 0 if never answered. *)
  ok : bool array;  (** Reply arrived with the expected id and tag. *)
  digest : string array;  (** Body digest ("" when [keep] holds the body). *)
  kept : string array;  (** Full payload, when [keep_bodies]. *)
  ack : int array;  (** [Ack] value of writes, -1 otherwise. *)
}

let empty_run n =
  {
    ops = Array.make n P.Ping;
    t_start = Array.make n 0;
    t_end = Array.make n 0;
    ok = Array.make n false;
    digest = Array.make n "";
    kept = Array.make n "";
    ack = Array.make n (-1);
  }

(* Drive one connection through its steps; returns the run and how many
   steps were sent. [deadline_ns] bounds a run gone pathologically slow:
   remaining steps are left unsent, and the caller counts every unsent
   step as failed, as it does all of them when the connect fails. *)
let run_client ~port ~(texts : string array) ~keep_bodies ~deadline_ns
    (steps : Spec.step array) =
  let n = Array.length steps in
  let r = empty_run n in
  let own = Queue.create () in
  let sent = ref 0 in
  (match connect port with
  | exception _ -> ()
  | c ->
      (try
         for i = 0 to n - 1 do
           if Clock.now_ns () > deadline_ns then raise Exit;
           let op =
             match steps.(i) with
             | Spec.Read op -> Some op
             | Spec.Insert j -> Some (P.Insert { index = 0; doc = texts.(j) })
             | Spec.Delete_own ->
                 Option.map
                   (fun doc_id -> P.Delete { index = 0; doc_id })
                   (Queue.take_opt own)
           in
           match op with
           | None -> incr sent  (* an earlier insert failed: nothing to delete *)
           | Some op ->
               r.ops.(i) <- op;
               P.Wbuf.reset c.wb;
               P.encode_request_into c.wb { P.id = i; op };
               incr sent;
               r.t_start.(i) <- Clock.now_ns ();
               P.write_wbuf c.fd c.wb;
               let payload =
                 match P.read_frame c.fd with
                 | Some p -> p
                 | None -> raise Exit
               in
               r.t_end.(i) <- Clock.now_ns ();
               let len = String.length payload in
               let tag = if len >= 5 then Char.code payload.[0] else -1 in
               let id =
                 if len >= 5 then
                   Int32.to_int (String.get_int32_be payload 1) land 0xffffffff
                 else -1
               in
               (match steps.(i) with
               | Spec.Read _ ->
                   r.ok.(i) <- tag = tag_hits && id = i;
                   if keep_bodies then r.kept.(i) <- payload
                   else r.digest.(i) <- Digest.substring payload 5 (len - 5)
               | Spec.Insert _ | Spec.Delete_own ->
                   r.ok.(i) <- tag = tag_ack && id = i && len = 13;
                   if r.ok.(i) then begin
                     let v = Int64.to_int (String.get_int64_be payload 5) in
                     r.ack.(i) <- v;
                     match steps.(i) with
                     | Spec.Insert _ -> Queue.add v own
                     | _ -> ()
                   end)
         done
       with _ -> ());
      close c);
  (r, !sent)

(* All clients in parallel, one thread each, from one process. *)
let run_all ~port ~texts ~keep_bodies ~deadline_ns streams =
  let results = Array.make (Array.length streams) (empty_run 0, 0) in
  let threads =
    Array.mapi
      (fun c steps ->
        Thread.create
          (fun () ->
            results.(c) <-
              run_client ~port ~texts ~keep_bodies ~deadline_ns steps)
          ())
      streams
  in
  Array.iter Thread.join threads;
  results
