(* The traced run: the same seeded request stream replayed in process
   through each layer's public functions, with spans recorded around
   each call from here. It mirrors what a daemon worker does for one
   request — decode, result-cache probe, engine or segment store,
   encode — without sockets, queues or threads, so the daemon run's
   latency minus this run's is what the serving machinery adds.

   Each replay runs twice over identical state: once with spans off and
   once with them on; the ratio of the two request-handling times is
   [trace.overhead_ratio]. No end-to-end metric comes from here. *)

module P = Pti_server.Protocol
module RC = Pti_server.Result_cache
module G = Pti_core.General_index
module L = Pti_core.Listing_index
module E = Pti_core.Engine
module T = Pti_transform.Transform
module Store = Pti_segment.Segment_store
module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym

let tag_hits = Client.tag_hits
let hits_of = Check.hits_of

(* Client streams interleaved round-robin, at most [limit] requests. *)
let interleave (streams : Spec.step array array) ~limit =
  let longest = Array.fold_left (fun m s -> max m (Array.length s)) 0 streams in
  let out = ref [] and n = ref 0 in
  (try
     for i = 0 to longest - 1 do
       Array.iteri
         (fun c s ->
           if i < Array.length s then begin
             if !n >= limit then raise Exit;
             out := (c, s.(i)) :: !out;
             incr n
           end)
         streams
     done
   with Exit -> ());
  Array.of_list (List.rev !out)

let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, Clock.seconds_since t0)

(* A result cache of the daemon's capacity, read from its Stats reply. *)
let new_rcache rc_bytes =
  RC.create ~capacity_bytes:rc_bytes
    ~shards:(max 1 (Pti_parallel.num_domains ())) ()

(* Span names, interned once per recorder. *)
type names = {
  request : int; decode : int; find : int; encode : int;
  range : int; query : int; long_query : int; topk : int; listing : int;
  q_clean : int; q_after : int; s_topk : int; insert : int; delete : int;
  compact : int;
}

let names tr =
  let n = Trace.name tr in
  {
    request = n "request"; decode = n "protocol.decode";
    find = n "result_cache.find"; encode = n "protocol.encode";
    range = n "engine.range"; query = n "engine.query";
    long_query = n "engine.long_query"; topk = n "engine.topk";
    listing = n "engine.listing"; q_clean = n "segment.query_clean";
    q_after = n "segment.query_after_write"; s_topk = n "segment.topk";
    insert = n "segment.insert"; delete = n "segment.delete";
    compact = n "segment.compact";
  }

type counters = {
  mutable region_ns : int;  (* request handling, spans included *)
  mutable replies : int;
  mutable reply_bytes : int;
  mutable engine_calls : int;
  mutable engine_minor : float;
  mutable short_queries : int;
  mutable width : int;
  mutable hits : int;
}

let counters () =
  { region_ns = 0; replies = 0; reply_bytes = 0; engine_calls = 0;
    engine_minor = 0.0; short_queries = 0; width = 0; hits = 0 }

(* Decode, probe the cache, compute on a miss, encode — the worker's
   path for one read. [key_suffix] is the corpus version suffix the
   daemon appends to corpus keys. *)
let serve_read tr nm cn rc wb ~id ~frame ~key_suffix engine =
  let r =
    Trace.span tr nm.decode ~req:id (fun () ->
        P.decode_request_sub frame ~pos:4 ~len:(String.length frame - 4))
  in
  let key = Option.get (RC.key r.P.op) ^ key_suffix in
  match Trace.span tr nm.find ~req:id (fun () -> RC.find rc key) with
  | RC.Hit c ->
      Trace.span tr nm.encode ~req:id (fun () ->
          P.Wbuf.reset wb;
          P.encode_cached_reply_into wb ~id ~tag:c.RC.ctag ~body:c.RC.cbody);
      None
  | RC.Fresh tok ->
      let w0 = Gc.minor_words () in
      let hits = engine r.P.op in
      cn.engine_minor <- cn.engine_minor +. (Gc.minor_words () -. w0);
      cn.engine_calls <- cn.engine_calls + 1;
      Trace.span tr nm.encode ~req:id (fun () ->
          let reply = P.Hits hits in
          let body = P.encode_reply_body reply in
          RC.fill rc tok { RC.ctag = tag_hits; cbody = body; creply = reply };
          P.Wbuf.reset wb;
          P.encode_cached_reply_into wb ~id ~tag:tag_hits ~body);
      Some (r.P.op, hits)
  | RC.Busy _ -> failwith "single-threaded replay saw a busy cache slot"

(* ---- static containers ---- *)

let static_pass tr ~rc_bytes ~g ~l (reqs : (int * Spec.step) array) frames =
  let nm = names tr in
  let cn = counters () in
  let rc = new_rcache rc_bytes in
  let wb = P.Wbuf.create 4096 in
  let eng = G.engine g in
  let max_short = E.max_short eng in
  Array.iteri
    (fun id _ ->
      let engine op =
        let span n f = Trace.span tr n ~req:id f in
        match op with
        | P.Query { pattern; tau; _ } ->
            let long = String.length pattern > max_short in
            span (if long then nm.long_query else nm.query) (fun () ->
                hits_of (G.query g ~pattern:(Sym.of_string pattern) ~tau))
        | P.Top_k { pattern; tau; k; _ } ->
            span nm.topk (fun () ->
                hits_of (G.query_top_k g ~pattern:(Sym.of_string pattern) ~tau ~k))
        | P.Listing { pattern; tau; _ } ->
            span nm.listing (fun () ->
                hits_of (L.query l ~pattern:(Sym.of_string pattern) ~tau))
        | _ -> invalid_arg "static replay: not a read"
      in
      let t0 = Clock.now_ns () in
      let sp = Trace.enter tr nm.request ~req:id in
      let miss = serve_read tr nm cn rc wb ~id ~frame:frames.(id) ~key_suffix:"" engine in
      Trace.leave tr sp;
      cn.region_ns <- cn.region_ns + (Clock.now_ns () - t0);
      cn.replies <- cn.replies + 1;
      cn.reply_bytes <- cn.reply_bytes + P.Wbuf.length wb;
      (* attribution probe, outside the request: the suffix-range
         search alone, and the range width the hits came out of *)
      match miss with
      | Some (P.Query { pattern; _ }, hits) when String.length pattern <= max_short ->
          let pattern = Sym.of_string pattern in
          let width =
            match Trace.span tr nm.range ~req:id (fun () -> E.suffix_range eng ~pattern) with
            | Some (lo, hi) -> hi - lo + 1
            | None -> 0
          in
          cn.short_queries <- cn.short_queries + 1;
          cn.width <- cn.width + width;
          cn.hits <- cn.hits + List.length hits
      | _ -> ())
    reqs;
  cn

let frames_of reqs =
  Array.mapi
    (fun id (_, step) ->
      match step with
      | Spec.Read op -> P.encode_request { P.id; op }
      | _ -> invalid_arg "static replay: not a read")
    reqs

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = if n = 0 then 0.0 else float_of_int a /. float_of_int n

let engine_metrics tr cn_plain cn =
  let m = Trace.mean_ns tr in
  let q = m "engine.query" and r = m "engine.range" in
  [
    ("engine.range_ns", r);
    ("engine.query_ns", q);
    ("engine.report_ns", if q > 0.0 && r > 0.0 then q -. r else 0.0);
    ("engine.topk_ns", m "engine.topk");
    ("engine.listing_ns", m "engine.listing");
    ("engine.long_query_ns", m "engine.long_query");
    ("engine.range_width", per cn.width cn.short_queries);
    ("engine.hits", per cn.hits cn.short_queries);
    ("engine.hits_per_width", per cn.hits cn.width);
    ("engine.minor_words_per_query",
     ratio cn_plain.engine_minor (float_of_int cn_plain.engine_calls));
  ]

let protocol_metrics tr cn cn_plain =
  let m = Trace.mean_ns tr in
  [
    ("protocol.decode_ns", m "protocol.decode");
    ("protocol.encode_ns", m "protocol.encode");
    ("protocol.reply_bytes", per cn.reply_bytes cn.replies);
    ("result_cache.find_ns", m "result_cache.find");
    ("trace.overhead_ratio",
     ratio (float_of_int cn.region_ns) (float_of_int cn_plain.region_ns));
  ]

let write_trace tr ~out_dir ~label =
  Trace.write_tsv tr (Filename.concat out_dir (label ^ ".spans.tsv"));
  let table = Trace.table tr in
  let oc = open_out (Filename.concat out_dir (label ^ ".layers.txt")) in
  output_string oc table;
  close_out oc;
  table

type result = {
  metrics : (string * float) list;
  request_ns : int array;  (** Each replayed request's duration, spans on. *)
  table : string;
}

(* Build, save and open the two containers in process (the setup.*
   split), then replay. *)
let static_run ~rc_bytes ~work ~out_dir ~label (inp : Spec.inputs) streams ~limit =
  let tau_min = Spec.tau_min in
  let n = U.length inp.single in
  let tr_t, transform_s = timed (fun () -> T.build ~tau_min inp.single) in
  let (g, l), build_s =
    timed (fun () ->
        let g = G.build ~tau_min inp.single in
        (g, L.build ~tau_min (Array.to_list inp.docs)))
  in
  let gp = Filename.concat work "replay-general.pti"
  and lp = Filename.concat work "replay-listing.pti" in
  let (), save_s = timed (fun () -> G.save g gp; L.save l lp) in
  let (g, l), open_s =
    timed (fun () -> (G.load ~verify:true gp, L.load ~verify:true lp))
  in
  let reqs = interleave streams ~limit in
  let frames = frames_of reqs in
  let off = Trace.create ~enabled:false in
  ignore (static_pass off ~rc_bytes ~g ~l reqs frames : counters);  (* warm-up *)
  let cn_plain = static_pass off ~rc_bytes ~g ~l reqs frames in
  let tr = Trace.create ~enabled:true in
  let cn = static_pass tr ~rc_bytes ~g ~l reqs frames in
  let table = write_trace tr ~out_dir ~label in
  let metrics =
    protocol_metrics tr cn cn_plain
    @ engine_metrics tr cn_plain cn
    @ [
        ("setup.transform_s", transform_s);
        ("setup.build_s", build_s);
        ("setup.save_s", save_s);
        ("setup.open_ms", open_s *. 1e3);
        ("transform.expansion", per (T.text_length tr_t) n);
        ("storage.general_bytes_per_position", per (Daemon.disk_bytes gp) n);
        ("storage.listing_bytes_per_position", per (Daemon.disk_bytes lp) n);
      ]
  in
  { metrics; request_ns = Trace.durations tr "request"; table }

(* ---- dynamic corpus ---- *)

type seg_counters = {
  mutable seals : int;
  mutable seal_ns : int;
  mutable compactions : int;
  mutable compact_ns : int;
  mutable wal_growth : int;
  mutable wal_inserts : int;
  mutable inserted_bytes : int;
  mutable new_file_bytes : int;
}

(* Bytes newly written under [dir] since the last call: new files in
   full, files rewritten under the same name (new inode) in full,
   appended files by their growth. *)
let dir_diff seen dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_ino; st_size; _ } ->
          let fresh =
            match Hashtbl.find_opt seen f with
            | Some (ino, size) when ino = st_ino -> max 0 (st_size - size)
            | _ -> st_size
          in
          Hashtbl.replace seen f (st_ino, st_size);
          acc + fresh
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir dir)

let corpus_pass tr ~rc_bytes ~dir ~(texts : string array) ~diff (reqs : (int * Spec.step) array) =
  let nm = names tr in
  let cn = counters () in
  let sc =
    { seals = 0; seal_ns = 0; compactions = 0; compact_ns = 0; wal_growth = 0;
      wal_inserts = 0; inserted_bytes = 0; new_file_bytes = 0 }
  in
  let s = Store.open_dir dir in
  let seen = Hashtbl.create 64 in
  if diff then ignore (dir_diff seen dir : int);
  let rc = new_rcache rc_bytes in
  let wb = P.Wbuf.create 4096 in
  let own = Array.init Spec.clients (fun _ -> Queue.create ()) in
  let after_write = ref false in
  Array.iteri
    (fun id (c, step) ->
      let op =
        match step with
        | Spec.Read op -> Some op
        | Spec.Insert j -> Some (P.Insert { index = 0; doc = texts.(j) })
        | Spec.Delete_own ->
            Option.map (fun doc_id -> P.Delete { index = 0; doc_id })
              (Queue.take_opt own.(c))
      in
      match op with
      | None -> ()
      | Some op ->
          let frame = P.encode_request { P.id = id; op } in
          let gen0 = Store.generation s in
          let wal0 = (Store.stats s).Store.st_wal_bytes in
          let write_span = ref (-1) in
          let t0 = Clock.now_ns () in
          let sp = Trace.enter tr nm.request ~req:id in
          (match op with
          | P.Insert _ | P.Delete _ ->
              let r =
                Trace.span tr nm.decode ~req:id (fun () ->
                    P.decode_request_sub frame ~pos:4 ~len:(String.length frame - 4))
              in
              let v =
                match r.P.op with
                | P.Insert { doc; _ } ->
                    let i = Trace.enter tr nm.insert ~req:id in
                    let v = Store.insert s (U.parse doc) in
                    Trace.leave tr i;
                    write_span := i;
                    Queue.add v own.(c);
                    v
                | P.Delete { doc_id; _ } ->
                    Trace.span tr nm.delete ~req:id (fun () ->
                        if Store.delete s doc_id then 1 else 0)
                | _ -> assert false
              in
              after_write := true;
              Trace.span tr nm.encode ~req:id (fun () ->
                  P.Wbuf.reset wb;
                  P.encode_reply_into wb ~id (P.Ack v))
          | _ ->
              let key_suffix = Printf.sprintf "#g%d" (Store.version s) in
              let engine op =
                let name, f =
                  match op with
                  | P.Top_k { pattern; tau; k; _ } ->
                      (nm.s_topk, fun () ->
                          Store.query_top_k s ~pattern:(Sym.of_string pattern) ~tau ~k)
                  | P.Listing { pattern; tau; _ } | P.Query { pattern; tau; _ } ->
                      ((if !after_write then nm.q_after else nm.q_clean), fun () ->
                          Store.query s ~pattern:(Sym.of_string pattern) ~tau)
                  | _ -> invalid_arg "corpus replay: not a read"
                in
                after_write := false;
                Trace.span tr name ~req:id (fun () -> hits_of (f ()))
              in
              ignore (serve_read tr nm cn rc wb ~id ~frame ~key_suffix engine
                      : (P.op * (int * float) list) option));
          Trace.leave tr sp;
          cn.region_ns <- cn.region_ns + (Clock.now_ns () - t0);
          cn.replies <- cn.replies + 1;
          cn.reply_bytes <- cn.reply_bytes + P.Wbuf.length wb;
          (match op with
          | P.Insert { doc; _ } ->
              sc.inserted_bytes <- sc.inserted_bytes + String.length doc;
              if Store.generation s <> gen0 then begin
                sc.seals <- sc.seals + 1;
                sc.seal_ns <- sc.seal_ns + Trace.duration tr !write_span
              end
              else begin
                sc.wal_growth <- sc.wal_growth + ((Store.stats s).Store.st_wal_bytes - wal0);
                sc.wal_inserts <- sc.wal_inserts + 1
              end
          | _ -> ());
          (match op with
          | P.Insert _ | P.Delete _ ->
              (* the daemon's background compactor, run inline *)
              if Store.needs_compaction s then begin
                let i = Trace.enter tr nm.compact ~req:(-1) in
                let t = Clock.now_ns () in
                ignore (Store.compact s : bool);
                sc.compact_ns <- sc.compact_ns + (Clock.now_ns () - t);
                Trace.leave tr i;
                sc.compactions <- sc.compactions + 1
              end;
              if diff then sc.new_file_bytes <- sc.new_file_bytes + dir_diff seen dir
          | _ -> ()))
    reqs;
  (cn, sc)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let p = Filename.concat src f in
      if (Unix.stat p).Unix.st_kind = Unix.S_REG then begin
        let ic = open_in_bin p in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let oc = open_out_bin (Filename.concat dst f) in
        output_string oc data;
        close_out oc
      end)
    (Sys.readdir src)

(* Preload a corpus in process (the setup.preload_s split), then
   replay on two byte-identical copies of it. *)
let corpus_run ~rc_bytes ~work ~out_dir ~label (inp : Spec.inputs) streams ~limit =
  let tau_min = Spec.tau_min in
  let n = U.length inp.single in
  let tr_t, transform_s = timed (fun () -> T.build ~tau_min inp.single) in
  let pre = Filename.concat work "replay-corpus" in
  let preload = Spec.preload_count inp in
  let (), preload_s =
    timed (fun () ->
        let config =
          { (Store.default_config ~tau_min) with
            backend = E.Succinct; memtable_max_docs = Spec.memtable_max }
        in
        let s = Store.create ~config pre in
        for i = 0 to preload - 1 do ignore (Store.insert s inp.docs.(i) : int) done;
        ignore (Store.seal s : bool))
  in
  let preload_positions =
    Array.fold_left ( + ) 0 (Array.init preload (fun i -> U.length inp.docs.(i)))
  in
  let pre_bytes = Daemon.disk_bytes pre in
  let a = pre ^ "-a" and b = pre ^ "-b" in
  copy_dir pre a;
  copy_dir pre b;
  let (), open_s = timed (fun () -> ignore (Store.open_dir ~read_only:true ~verify:true b : Store.t)) in
  let reqs = interleave streams ~limit in
  let off = Trace.create ~enabled:false in
  let cn_plain, _ = corpus_pass off ~rc_bytes ~dir:a ~texts:inp.texts ~diff:false reqs in
  let tr = Trace.create ~enabled:true in
  let cn, sc = corpus_pass tr ~rc_bytes ~dir:b ~texts:inp.texts ~diff:true reqs in
  let table = write_trace tr ~out_dir ~label in
  let m = Trace.mean_ns tr in
  let metrics =
    protocol_metrics tr cn cn_plain
    @ [
        ("segment.query_clean_ns", m "segment.query_clean");
        ("segment.query_after_write_ns", m "segment.query_after_write");
        ("segment.insert_ns", m "segment.insert");
        ("segment.delete_ns", m "segment.delete");
        ("segment.seal_ms", per sc.seal_ns sc.seals /. 1e6);
        ("segment.seals", float_of_int sc.seals);
        ("segment.compact_ms", per sc.compact_ns sc.compactions /. 1e6);
        ("segment.wal_bytes_per_insert", per sc.wal_growth sc.wal_inserts);
        ("segment.write_amp", per sc.new_file_bytes sc.inserted_bytes);
        ("setup.transform_s", transform_s);
        ("setup.preload_s", preload_s);
        ("setup.open_ms", open_s *. 1e3);
        ("transform.expansion", per (T.text_length tr_t) n);
        ("storage.listing_bytes_per_position", per pre_bytes preload_positions);
      ]
  in
  { metrics; request_ns = Trace.durations tr "request"; table }
