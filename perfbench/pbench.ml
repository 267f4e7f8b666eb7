(* The benchmark: one named workload against a `pti serve` child.

     pbench.exe --workload NAME --seed N --seconds S --trace 0|1 --pti PATH

   Run from the repository root (perfbench/run.py builds and calls it).
   With --trace 0 it measures the end-to-end metrics: set-up (repeated,
   median reported), then a fixed number of requests from a closed loop
   of two connections, every reply checked afterwards. With --trace 1
   it runs the same daemon run once more for the server counters and
   client-side splits, then the traced in-process replay, and reports
   the per-layer metrics. The last stdout line is the JSON result. *)

module P = Pti_server.Protocol
module J = Mini_json
module L = Pti_core.Listing_index
module G = Pti_core.General_index
module U = Pti_ustring.Ustring

(* name, unit — exactly what BENCHMARK.json lists, in its order *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_rps", "1/s");
    ("listing_p50_us", "us");
    ("listing_p95_us", "us");
    ("peak_rss_mb", "MB");
    ("disk_bytes_per_position", "B/position");
  ]

(* Client-side figures that are 0 on some workloads (no search on the
   corpus, no writes on static-*, no failures on a correct run), so they
   cannot be gated; BENCHMARK.json lists them under per_layer. *)
let client_splits =
  [
    ("search_p50_us", "us"); ("search_p95_us", "us");
    ("write_p50_us", "us"); ("write_p95_us", "us");
    ("failed_ratio", "ratio");
  ]

let per_layer =
  client_splits
  @ [
    ("protocol.decode_ns", "ns"); ("protocol.encode_ns", "ns");
    ("protocol.reply_bytes", "B");
    ("result_cache.hit_ratio", "ratio"); ("result_cache.find_ns", "ns");
    ("result_cache.evictions", "count"); ("result_cache.bytes", "B");
    ("server.unattributed_p50_us", "us"); ("server.batch_mean", "jobs");
    ("server.queue_depth_max", "jobs");
    ("server.minor_words_per_request", "words");
    ("server.major_collections", "count");
    ("engine_cache.misses", "count");
    ("engine.range_ns", "ns"); ("engine.query_ns", "ns");
    ("engine.report_ns", "ns"); ("engine.topk_ns", "ns");
    ("engine.listing_ns", "ns"); ("engine.long_query_ns", "ns");
    ("engine.range_width", "suffixes"); ("engine.hits", "hits");
    ("engine.hits_per_width", "ratio");
    ("engine.minor_words_per_query", "words");
    ("segment.query_clean_ns", "ns"); ("segment.query_after_write_ns", "ns");
    ("segment.insert_ns", "ns"); ("segment.delete_ns", "ns");
    ("segment.seal_ms", "ms"); ("segment.seals", "count");
    ("segment.compactions", "count"); ("segment.compact_ms", "ms");
    ("segment.count_end", "count");
    ("segment.wal_bytes_per_insert", "B");
    ("segment.write_amp", "ratio");
    ("segment.tombstone_ratio_end", "ratio");
    ("setup.transform_s", "s"); ("setup.build_s", "s");
    ("setup.save_s", "s"); ("setup.open_ms", "ms");
    ("setup.preload_s", "s"); ("transform.expansion", "ratio");
    ("storage.general_bytes_per_position", "B/position");
    ("storage.listing_bytes_per_position", "B/position");
    ("trace.overhead_ratio", "ratio");
  ]

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  pti : string;
  n_override : int option;
  corrupt : bool;  (** Corrupt one recorded reply before checking. *)
}

let usage () =
  prerr_endline
    "usage: pbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --pti PATH [--n N] [--corrupt-reply]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and pti = ref "" and n = ref None in
  let corrupt = ref false in
  let rec go = function
    | "--workload" :: v :: tl -> workload := v; go tl
    | "--seed" :: v :: tl -> seed := int_of_string_opt v; go tl
    | "--seconds" :: v :: tl -> seconds := int_of_string_opt v; go tl
    | "--trace" :: v :: tl -> trace := Some (v = "1"); go tl
    | "--pti" :: v :: tl -> pti := v; go tl
    | "--n" :: v :: tl -> n := int_of_string_opt v; go tl
    | "--corrupt-reply" :: tl -> corrupt := true; go tl
    | [] -> ()
    | a :: _ -> prerr_endline ("pbench: unknown argument " ^ a); usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when !workload <> "" && !pti <> "" && seconds > 0 ->
      { workload = !workload; seed; seconds; trace; pti = !pti; n_override = !n;
        corrupt = !corrupt }
  | _ -> usage ()

(* ---- small helpers ---- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* The [q]-quantile of a sorted array, interpolated linearly between
   ranks: every percentile and median in the report is read this way. *)
let quantile (a : float array) q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let f = x -. float_of_int i in
    if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i)

let us_of_ns d = float_of_int d /. 1e3

let rec hash_tree ctx path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      let entries = Sys.readdir path in
      Array.sort compare entries;
      Array.iter (fun f -> hash_tree ctx (Filename.concat path f)) entries
  | { Unix.st_kind = Unix.S_REG; _ } ->
      Buffer.add_string ctx path;
      Buffer.add_string ctx (Digest.to_hex (Digest.file path))
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* The checkout may not be a git repository: identify the code under
   test by a digest of its sources as well as by commit when known. *)
let source_digest () =
  let b = Buffer.create 4096 in
  List.iter (hash_tree b) [ "lib"; "bin"; "dune-project" ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let git_commit () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let l = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when l <> "" -> l
    | _ -> "unknown"
  with _ -> "unknown"

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* ---- stats deltas ---- *)

let stat j keys = J.num (J.path j keys)

let sum_obj j key =
  match J.member key j with
  | J.Obj fields -> List.fold_left (fun acc (_, v) -> acc +. J.num v) 0.0 fields
  | _ -> 0.0

let corpus_stat j key =
  match J.to_list (J.member "corpora" j) with
  | c :: _ -> J.num (J.member key c)
  | [] -> 0.0

let server_metrics s0 s1 =
  let d keys = stat s1 keys -. stat s0 keys in
  let hits = d [ "result_cache"; "hits" ] and misses = d [ "result_cache"; "misses" ] in
  let served = sum_obj s1 "ok" -. sum_obj s0 "ok" in
  let batches = d [ "batches"; "count" ] in
  [
    ("result_cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("result_cache.evictions", d [ "result_cache"; "evictions" ]);
    ("result_cache.bytes", stat s1 [ "result_cache"; "bytes" ]);
    ("server.batch_mean", if batches > 0.0 then d [ "batches"; "jobs" ] /. batches else 0.0);
    ("server.queue_depth_max", stat s1 [ "queue"; "max_depth" ]);
    ("server.minor_words_per_request",
     if served > 0.0 then d [ "gc"; "minor_words" ] /. served else 0.0);
    ("server.major_collections", d [ "gc"; "major_collections" ]);
    ("engine_cache.misses", stat s1 [ "cache"; "misses" ]);
    ("segment.compactions", d [ "latency"; "compact"; "count" ]);
    ("segment.count_end", corpus_stat s1 "segments");
    ("segment.tombstone_ratio_end", corpus_stat s1 "tombstone_ratio");
  ]

(* ---- set-up ---- *)

type served = {
  daemon : Daemon.t;
  containers : string list;  (** Static: the served files. *)
  corpus : string option;
}

let first_reply_pattern (inp : Spec.inputs) ~seed =
  Spec.draw (Pti_workload.Querygen.state ~seed ~stream:(Spec.clients + 2) ()) inp.single 4

(* From generated input files to the daemon's first reply, index open
   included: build + save (or bulk load), start, one query per index. *)
let setup ~pti ~(w : Spec.workload) ~inputs_dir ~dir ~pattern =
  Unix.mkdir dir 0o755;
  let log = Filename.concat dir "setup.log" in
  let tool = Daemon.run_tool ~pti ~log in
  let t0 = Clock.now_ns () in
  let served =
    match w.kind with
    | Spec.Static_fresh | Spec.Static_hot ->
        let gp = Filename.concat dir "general.pti" and lp = Filename.concat dir "listing.pti" in
        tool [ "build"; "-i"; Filename.concat inputs_dir "single.txt"; "-o"; gp;
               "--tau-min"; string_of_float Spec.tau_min ];
        tool [ "build"; "--docs"; "-i"; Filename.concat inputs_dir "docs.txt"; "-o"; lp;
               "--tau-min"; string_of_float Spec.tau_min ];
        let daemon = Daemon.start ~pti ~log [ gp; lp ] in
        { daemon; containers = [ gp; lp ]; corpus = None }
    | Spec.Corpus_churn ->
        let cd = Filename.concat dir "corpus" in
        tool [ "corpus"; "init"; cd; "--backend"; "succinct";
               "--memtable-max"; string_of_int Spec.memtable_max;
               "--tau-min"; string_of_float Spec.tau_min ];
        tool [ "corpus"; "insert"; cd; "-i"; Filename.concat inputs_dir "preload.txt" ];
        let daemon =
          Daemon.start ~pti ~log
            [ "--corpus"; cd; "--compact-interval-ms"; string_of_int Spec.compact_interval_ms ]
        in
        { daemon; containers = []; corpus = Some cd }
  in
  let c = Client.connect served.daemon.Daemon.port in
  let first =
    match w.kind with
    | Spec.Corpus_churn -> [ P.Listing { index = 0; pattern; tau = w.tau } ]
    | _ ->
        [ P.Query { index = 0; pattern; tau = w.tau };
          P.Listing { index = 1; pattern; tau = w.tau } ]
  in
  List.iteri
    (fun id op ->
      let payload = Client.call c ~id op in
      if Char.code payload.[0] <> Client.tag_hits then
        failwith "set-up: the first reply is not a hit list")
    first;
  Client.close c;
  (served, Clock.seconds_since t0)

(* ---- the corpus's final probes ---- *)

(* Flush, wait for the background compactor to go quiet (generation
   unchanged for 300 ms, or 10 s passed), then probe; retried if the
   generation moved under the probes, so wire and disk describe the
   same manifest. *)
let corpus_final_probes port probes =
  let c = Client.connect port in
  let gen () = corpus_stat (Client.stats c) "generation" in
  ignore (Client.call c ~id:1 (P.Flush { index = 0 }) : string);
  let give_up = Unix.gettimeofday () +. 10.0 in
  let rec quiet g0 stable_since =
    Unix.sleepf 0.05;
    let g = gen () in
    let now = Unix.gettimeofday () in
    if now > give_up then g
    else if g <> g0 then quiet g now
    else if now -. stable_since < 0.3 then quiet g stable_since
    else g
  in
  let rec attempt k =
    let g0 = quiet (gen ()) (Unix.gettimeofday ()) in
    let answers =
      List.mapi (fun i op -> (op, Client.body (Client.call c ~id:(i + 2) op))) probes
    in
    if gen () = g0 || k = 0 then answers else attempt (k - 1)
  in
  let answers = attempt 5 in
  Client.close c;
  answers

(* ---- report ---- *)

let print_metrics title unit_of values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-36s %16.6g %s\n" name
        (Option.value ~default:0.0 (List.assoc_opt name values)) unit)
    unit_of

let json_metrics unit_of values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (List.assoc_opt name values) in
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
       unit_of)

let main a =
  let t_process = Clock.now_ns () in
  let w =
    match Spec.find a.workload with
    | Some w -> w
    | None ->
        Printf.eprintf "pbench: unknown workload %s (%s)\n" a.workload
          (String.concat ", " (List.map (fun w -> w.Spec.name) Spec.workloads));
        exit 2
  in
  let w = match a.n_override with Some n -> { w with Spec.n } | None -> w in
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let out_dir = Filename.concat root "trace" in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let work = Filename.concat root (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Daemon.remove_tree work;
  Unix.mkdir work 0o755;
  let live = ref None in
  let cleanup () =
    Option.iter Daemon.stop !live;
    live := None;
    Daemon.remove_tree work
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* inputs: the fixed collection as files; the seed drives the streams *)
  let inp = Spec.make_inputs ~n:w.n in
  let inputs_dir = Filename.concat work "inputs" in
  Unix.mkdir inputs_dir 0o755;
  write_lines (Filename.concat inputs_dir "single.txt") [ U.to_text inp.single ];
  write_lines (Filename.concat inputs_dir "docs.txt") (Array.to_list inp.texts);
  let preload = Spec.preload_count inp in
  write_lines (Filename.concat inputs_dir "preload.txt")
    (Array.to_list (Array.sub inp.texts 0 preload));
  let per_client = Spec.requests_per_client w ~seconds:a.seconds in
  let streams = Spec.streams w inp ~seed:a.seed ~per_client in
  (* set-up, repeated; the last one serves the run *)
  let k = if a.trace then 1 else 3 in
  let pattern = first_reply_pattern inp ~seed:a.seed in
  let setup_times =
    List.init k (fun i ->
        let dir = Filename.concat work (Printf.sprintf "setup-%d" i) in
        let served, t = setup ~pti:a.pti ~w ~inputs_dir ~dir ~pattern in
        live := Some served.daemon;
        if i < k - 1 then begin
          Daemon.stop served.daemon;
          live := None;
          Daemon.remove_tree dir
        end;
        (served, t))
  in
  let served = fst (List.nth setup_times (k - 1)) in
  let setup_s = quantile (sorted (List.map snd setup_times)) 0.5 in
  let port = served.daemon.Daemon.port in
  let s0 = let c = Client.connect port in Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats c) in
  (* the daemon's settings as it reports them, where it does *)
  let rc_bytes = int_of_float (stat s0 [ "result_cache"; "capacity_bytes" ]) in
  let corpus = w.kind = Spec.Corpus_churn in
  let wal_sync =
    match J.to_list (J.member "corpora" s0) with
    | c :: _ -> (match J.member "wal_sync" c with J.Str p -> Printf.sprintf "\"%s\"" (J.escape p) | _ -> "null")
    | [] -> "null"
  in
  let conditions =
    Printf.sprintf
      "{\"workload\": \"%s\", \"seed\": %d, \"dataset_seed\": %d, \"n\": %d, \"theta\": %g, \"tau\": %g, \
       \"tau_min\": %g, \"seconds\": %d, \"clients\": %d, \"requests_per_client\": %d, \
       \"nproc\": %d, \"commit\": \"%s\", \"source_digest\": \"%s\", \"trace\": %b, \
       \"backend\": \"%s\", \"workers\": %d, \"result_cache_mb\": %g, \
       \"wal_sync\": %s, \"memtable_max\": %s, \"compact_interval_ms\": %s}"
      w.name a.seed Spec.dataset_seed w.n Spec.theta w.tau Spec.tau_min a.seconds Spec.clients per_client
      (Pti_parallel.available_cores ()) (J.escape (git_commit ())) (source_digest ()) a.trace
      (if corpus then "succinct" else "packed")
      served.daemon.Daemon.workers
      (float_of_int rc_bytes /. 1048576.0)
      wal_sync
      (if corpus then string_of_int Spec.memtable_max else "null")
      (if corpus then string_of_int Spec.compact_interval_ms else "null")
  in
  Printf.printf "conditions %s\n%!" conditions;
  (* the timed run *)
  let budget_ns = min (8 * a.seconds * 1_000_000_000) (120_000_000_000 - (Clock.now_ns () - t_process)) in
  let deadline_ns = Clock.now_ns () + max budget_ns 1_000_000_000 in
  let keep_bodies = corpus in
  let results = Client.run_all ~port ~texts:inp.texts ~keep_bodies ~deadline_ns streams in
  let s1 = let c = Client.connect port in Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats c) in
  let rss_mb = float_of_int (Daemon.vm_hwm_kb served.daemon) /. 1024.0 in
  let runs = Array.map fst results in
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 streams in
  let sent = Array.fold_left (fun acc (_, s) -> acc + s) 0 results in
  (* Latency and throughput over the timed (post-warm-up) requests. The
     timed window, from the first timed send to the last timed reply, is
     cut into equal spans of time; a request counts in the span its reply
     arrived in. Each gated figure is the median over the spans of its
     per-span value. On a shared 2-vCPU VM other tenants slow the host
     down for seconds at a time: the median reads through a burst that
     hits fewer than half of the spans, while a change that slows most of
     the run moves it. A read-only stream gets up to 30 spans of at least
     400 listings each, so each span's p95 has 20 samples beyond it. A
     stream with writes changes the served state as it goes (the memtable
     fills and seals), so its spans are not alike and it is read as one
     span. Whole-run figures are printed beside them. *)
  let warm = int_of_float (Float.of_int per_client *. Spec.warmup_share) in
  let timed = ref [] and first = ref max_int and last = ref 0 in
  Array.iteri
    (fun c (r : Client.run) ->
      Array.iteri
        (fun i step ->
          if i >= warm && r.ok.(i) then begin
            timed := (r.t_start.(i), r.t_end.(i), Spec.cls_of_step w.kind step) :: !timed;
            first := min !first r.t_start.(i);
            last := max !last r.t_end.(i)
          end)
        streams.(c))
    runs;
  let listings = List.length (List.filter (fun (_, _, cls) -> cls = Spec.Listing) !timed) in
  let writes = List.exists (fun (_, _, cls) -> cls = Spec.Write) !timed in
  let spans = if writes then 1 else max 1 (min 30 (listings / 400)) in
  let window = max 1 (!last - !first) in
  let lat = Hashtbl.create 64 and done_ = Array.make spans 0 in
  let push key d = Hashtbl.replace lat key (d :: Option.value ~default:[] (Hashtbl.find_opt lat key)) in
  List.iter
    (fun (t0, t1, cls) ->
      let sp = min (spans - 1) ((t1 - !first) * spans / window) and d = us_of_ns (t1 - t0) in
      push (cls, Some sp) d;
      push (cls, None) d;
      done_.(sp) <- done_.(sp) + 1)
    !timed;
  let lat_of key = sorted (Option.value ~default:[] (Hashtbl.find_opt lat key)) in
  let span_s = float_of_int window /. 1e9 /. float_of_int spans in
  let over_spans f = quantile (sorted (List.init spans f)) 0.5 in
  let throughput = over_spans (fun sp -> float_of_int done_.(sp) /. span_s) in
  let span_percentile cls q = over_spans (fun sp -> quantile (lat_of (cls, Some sp)) q) in
  (* disk use at the end of the run *)
  let disk_bytes, positions, corpus_extra =
    match served.corpus with
    | None ->
        let b = List.fold_left (fun acc p -> acc + Daemon.disk_bytes p) 0 served.containers in
        (b, 2 * U.length inp.single, None)
    | Some cd ->
        let lives, text_of, bad_writes = Check.corpus_writes ~preload streams runs in
        let live_end =
          List.init preload Fun.id
          @ Hashtbl.fold
              (fun id (lf : Check.life) acc -> if lf.del_acked = max_int then id :: acc else acc)
              lives []
        in
        let doc_len id =
          let j = if id < preload then id else Hashtbl.find text_of id in
          U.length inp.docs.(j)
        in
        let positions = List.fold_left (fun acc id -> acc + doc_len id) 0 live_end in
        (Daemon.disk_bytes cd, positions, Some (cd, lives, text_of, bad_writes, live_end))
  in
  let probes =
    match served.corpus with
    | Some _ -> corpus_final_probes port (Spec.probes w inp ~seed:a.seed)
    | None -> []
  in
  Daemon.stop served.daemon;
  live := None;
  if a.corrupt then begin
    (* self-test: damage one recorded reply; the checks must catch it *)
    let r = runs.(0) in
    match Array.find_index (fun ok -> ok) r.Client.ok with
    | Some i when keep_bodies ->
        let b = Bytes.of_string r.kept.(i) in
        (* the first hit's key gains 2^14: no document has that id *)
        if Bytes.length b > 16 then Bytes.set b 15 (Char.chr (Char.code (Bytes.get b 15) lxor 0x40))
        else Bytes.set b 0 '\255';
        r.kept.(i) <- Bytes.to_string b
    | Some i -> r.digest.(i) <- Digest.string ("corrupt" ^ r.digest.(i))
    | None -> ()
  end;
  (* verification *)
  let transport_failed =
    Array.fold_left
      (fun acc ((r : Client.run), s) ->
        let bad = ref 0 in
        for i = 0 to s - 1 do if not r.ok.(i) then incr bad done;
        acc + !bad)
      0 results
  in
  let mismatches =
    match corpus_extra with
    | None ->
        let g = G.load ~verify:true (List.nth served.containers 0) in
        let l = L.load ~verify:true (List.nth served.containers 1) in
        Check.static_digests ~g ~l runs
    | Some (cd, lives, text_of, bad_writes, live_end) ->
        let ever = List.init preload Fun.id @ Hashtbl.fold (fun id _ acc -> id :: acc) lives [] in
        let ids = Array.of_list ever in
        let docs =
          List.map (fun id -> inp.docs.(if id < preload then id else Hashtbl.find text_of id)) ever
        in
        let mono = L.build ~tau_min:Spec.tau_min docs in
        let bad_reads = Check.corpus_reads ~preload ~lives ~mono ~ids runs in
        let bad_probes = Check.corpus_probes ~dir:cd ~mono ~ids ~live_end probes in
        Printf.printf "checks: %d bad write ack(s), %d bad read(s), %d bad probe(s) of %d\n"
          bad_writes bad_reads bad_probes (List.length probes);
        bad_writes + bad_reads + bad_probes
  in
  (* Every request of the fixed count is attempted: one never sent (a
     failed connect, or the deadline) or never answered counts as failed. *)
  let unsent = total - sent in
  let attempted = total + List.length probes in
  let failed = unsent + transport_failed + mismatches in
  let failed_ratio = float_of_int failed /. float_of_int attempted in
  Printf.printf "requests: %d attempted, %d failed (%d never sent, %d transport/error, %d mismatched)\n"
    attempted failed unsent transport_failed mismatches;
  Printf.printf "whole-run throughput %.1f/s; per span (%d spans): %s\n"
    (float_of_int (List.length !timed) /. (float_of_int window /. 1e9)) spans
    (String.concat " " (List.init spans (fun sp -> Printf.sprintf "%.0f" (float_of_int done_.(sp) /. span_s))));
  List.iter
    (fun cls ->
      let a = lat_of (cls, None) in
      if Array.length a > 0 then
        Printf.printf "whole-run latency %-8s n=%-7d p50 %.1f us  p95 %.1f us  p99 %.1f us  p99.9 %.1f us  max %.1f us\n"
          (Spec.cls_name cls) (Array.length a) (quantile a 0.5) (quantile a 0.95)
          (quantile a 0.99) (quantile a 0.999) (quantile a 1.0))
    [ Spec.Search; Spec.Listing; Spec.Write ];
  let client_metrics =
    let p = span_percentile in
    [
      ("setup_s", setup_s);
      ("throughput_rps", throughput);
      ("listing_p50_us", p Spec.Listing 0.5);
      ("listing_p95_us", p Spec.Listing 0.95);
      ("peak_rss_mb", rss_mb);
      ("disk_bytes_per_position", float_of_int disk_bytes /. float_of_int (max 1 positions));
      ("search_p50_us", p Spec.Search 0.5);
      ("search_p95_us", p Spec.Search 0.95);
      ("write_p50_us", p Spec.Write 0.5);
      ("write_p95_us", p Spec.Write 0.95);
      ("failed_ratio", failed_ratio);
    ]
  in
  let values, unit_of =
    if not a.trace then (client_metrics, end_to_end)
    else begin
      (* one trace per workload, the latest run's *)
      let label = w.name in
      let limit = match w.kind with Spec.Corpus_churn -> max_int | _ -> 30_000 in
      let replay =
        match w.kind with
        | Spec.Corpus_churn -> Replay.corpus_run ~rc_bytes ~work ~out_dir ~label inp streams ~limit
        | _ -> Replay.static_run ~rc_bytes ~work ~out_dir ~label inp streams ~limit
      in
      Printf.printf "per-layer self time (traced replay, spans in %s/%s.spans.tsv):\n%s"
        out_dir label replay.table;
      let unattributed =
        quantile (sorted (List.map (fun (t0, t1, _) -> us_of_ns (t1 - t0)) !timed)) 0.5
        -. quantile (sorted (List.map us_of_ns (Array.to_list replay.request_ns))) 0.5
      in
      ( client_metrics @ server_metrics s0 s1 @ replay.metrics
        @ [ ("server.unattributed_p50_us", unattributed) ],
        per_layer )
    end
  in
  print_metrics (if a.trace then "per-layer metrics" else "end-to-end metrics") unit_of values;
  if not a.trace then print_metrics "client splits (not gated)" client_splits values;
  let correct = failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics unit_of values);
  correct

let () = if not (main (parse_args ())) then exit 1
