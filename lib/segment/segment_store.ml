(* LSM-style segment store. See the mli for the contract and
   DESIGN.md §15 for the invariants; the notes here cover what the
   signature can't say.

   Durability protocol: segment containers are written FIRST, the
   manifest LAST, both through Pti_storage.Writer (tmp + fsync +
   rename + directory fsync, instrumented by the storage.* failpoints).
   A crash between the two leaves an orphan segment file that no
   manifest references — harmless, reclaimed by the next compaction's
   sweep. In-memory state is mutated only AFTER the manifest rename
   succeeded, so a failed commit (ENOSPC, injected fault) leaves both
   the directory and the store exactly at the previous generation.

   The memtable is backed by a write-ahead log (wal-NNNNNN.log beside
   the MANIFEST): insert/delete/seal append a checksummed record
   BEFORE the in-memory mutation takes effect (same critical section),
   fsynced per the wal_sync policy, and open_dir replays the log on
   top of the manifest generation — so acknowledged-but-unsealed
   operations survive a crash. The log is rotated (fresh file, old one
   unlinked) by the first commit that leaves the memtable empty, which
   every record then being covered by the manifest makes safe; replay
   is therefore bounded by roughly one memtable's worth of records.
   Replay is idempotent — a record whose document the manifest already
   seals is skipped — which is what makes the crash windows of
   rotation (two log files alive) and of the seal (manifest renamed,
   log not yet rotated) recover to exactly the acknowledged state.

   The memtable is a logarithmic stack of immutable heap-built runs
   over a [pending] list (DESIGN.md §15.1): insert only conses onto
   [pending], and the first read that finds pending documents folds
   them into the stack (fold on read, so a bulk load builds once per
   seal). Exact, because prefix sums are factor-local (DESIGN.md §2.1):
   a document answers bit-identically in any run or segment.

   Concurrency: four locks plus two atomics.

   - [m], the state lock, guards every mutable field and is only ever
     held for short critical sections — IO-free except for the single
     buffered write(2) of a WAL record append (a memtable mutation and
     its log record must be atomic with respect to each other, or a
     delete racing an insert could replay in the wrong order; an fsync
     is NEVER issued under [m]), and no engine is ever built under it.
     Queries take it just long enough to snapshot the run stack plus
     the segment list; the scatter-gather itself runs lock-free on the
     snapshot. Tombstone bitmaps are never mutated in place — a delete
     installs a copy — so a snapshot taken before a delete keeps
     answering from consistent pre-delete state.
   - [bm], the build lock, owns the run stack: a fold builds its run
     while holding [bm] but not [m], and everything else that replaces
     runs (seal, a memtable delete) holds [bm] too, so a fold's
     snapshot of [pending] and [runs] stays valid until it installs.
     Inserts never take it: they only prepend to [pending], and a fold
     removes exactly the tail it snapshotted.
   - [wm], the WAL lock, guards the active log writer (fd swap on
     rotation, the dirty flag) so a policy fsync runs without blocking
     readers behind the disk. Acquired inside [m] on the append path,
     alone on the sync path; never the other way around.
   - [cm], the commit lock, serializes everything that writes or
     adopts a manifest: seal, delete-commit, compaction's swap and
     orphan sweep, and reload. Manifest builds and fsyncs run while
     holding [cm] but never [m], so a burst of tombstone commits
     cannot stall reader snapshots behind the disk.
   - [generation] and [vversion] are atomics so server worker domains
     can key result caches off them without taking any lock (a plain
     mutable int would let a worker read an arbitrarily stale value
     under the multicore memory model and serve stale cached replies
     after an acked mutation).

   Lock order: [cm] before [bm] before [m] before [wm]; nothing
   acquires [cm] (or the directory lock below) while holding [bm], [m]
   or [wm], nor [bm] while holding [m] or [wm].

   Cross-process writers: the documented external-compaction flow
   means a second process may commit to the same directory. Every
   manifest commit therefore (1) takes an exclusive [Unix.lockf] lock
   on the sidecar LOCK file and (2) re-reads the on-disk generation
   under that lock; if it no longer matches the generation this store
   last loaded, the commit raises [Conflict] — failing loudly instead
   of clobbering the other writer's commit (last-writer-wins would
   silently resurrect its deletes). [reload] is how the loser adopts
   the winner's generation. POSIX record locks neither exclude nor
   survive other threads of the same process touching the lock file,
   which is exactly why in-process writers serialize on [cm] first
   and only one LOCK fd is ever open per store. *)

module Logp = Pti_prob.Logp
module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module L = Pti_core.Listing_index
module Engine = Pti_core.Engine
module S = Pti_storage
module F = Pti_fault

type config = {
  tau_min : float;
  relevance : L.relevance;
  backend : Engine.backend;
  memtable_max_docs : int;
  compact_min_segments : int;
}

let default_config ~tau_min =
  {
    tau_min;
    relevance = L.Rel_max;
    backend = Engine.Packed;
    memtable_max_docs = 256;
    compact_min_segments = 4;
  }

type wal_sync = Wal_always | Wal_interval of float | Wal_never

let default_wal_sync = Wal_interval 5.0

let wal_sync_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "always" -> Wal_always
  | "never" -> Wal_never
  | _ ->
      let bad () =
        failwith
          (Printf.sprintf
             "bad wal-sync policy %S (always, interval:<ms> or never)" s)
      in
      if String.length s > 9 && String.sub s 0 9 = "interval:" then
        match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
        | Some ms when ms > 0.0 && Float.is_finite ms -> Wal_interval ms
        | _ -> bad ()
      else bad ()

let wal_sync_to_string = function
  | Wal_always -> "always"
  | Wal_never -> "never"
  | Wal_interval ms -> Printf.sprintf "interval:%g" ms

exception Conflict of { dir : string; disk_gen : int; mem_gen : int }

let () =
  Printexc.register_printer (function
    | Conflict { dir; disk_gen; mem_gen } ->
        Some
          (Printf.sprintf
             "Segment_store.Conflict(%s: on-disk generation %d, in-memory %d \
              — another writer committed; reload to adopt it)"
             dir disk_gen mem_gen)
    | _ -> None)

(* An immutable sealed segment: a mapped listing container plus its
   slot → corpus-id section and the manifest-owned tombstone bitmap. *)
type seg = {
  sg_name : string;
  sg_handle : L.t;
  sg_ids : S.ints; (* local slot -> corpus doc id, strictly ascending *)
  sg_n : int;
  sg_tombs : Bytes.t; (* bit j set = slot j dead; copy-on-write *)
  sg_dead : int;
  sg_bytes : int; (* container file size, for the size-tiered policy *)
}

(* A memtable run: an immutable heap-built listing index over some
   unsealed documents and their corpus ids (strictly ascending). *)
type run = { r_index : L.t; r_ids : int array }

type t = {
  dir : string;
  cfg : config;
  read_only : bool;
  verify : bool;
  wal_sync : wal_sync;
  m : Mutex.t; (* state lock: short sections; see the header comment *)
  bm : Mutex.t; (* build lock: owns the run stack; see above *)
  cm : Mutex.t; (* commit lock: serializes manifest writers; see above *)
  wm : Mutex.t; (* WAL lock: active writer fd + dirty flag *)
  generation : int Atomic.t;
  vversion : int Atomic.t;
  mutable next_doc_id : int;
  mutable seg_seq : int; (* next segment file number (monotonic) *)
  mutable segs : seg list; (* manifest order *)
  mutable pending : (int * U.t) list; (* unsealed, in no run; newest first *)
  mutable runs : run list; (* memtable runs, newest (smallest) first *)
  mutable compacting : bool;
  mutable wal : S.Wal.writer option; (* None iff read-only; under [wm] *)
  mutable wal_seq : int; (* active log file number; under [m] *)
  mutable wal_records : int; (* records in the active log; under [m] *)
  mutable wal_bytes : int; (* bytes of the active log; under [m] *)
  mutable wal_dirty : bool; (* appended since last fsync; under [wm] *)
  mutable wal_last_sync : float; (* Wal_interval clock; under [wm] *)
  mutable quarantined : string list; (* scrub evictions; under [m] *)
}

let manifest_name = "MANIFEST"
let lock_name = "LOCK"
let quarantine_dir_name = "quarantine"
let manifest_path dir = Filename.concat dir manifest_name
let seg_path t name = Filename.concat t.dir name
let seg_file_name seq = Printf.sprintf "seg-%06d.pti" seq

(* [Some seq] iff [name] is a well-formed segment file name. *)
let seg_file_seq name =
  if
    String.length name > 4
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".pti"
  then int_of_string_opt (String.sub name 4 (String.length name - 8))
  else None

let wal_file_name seq = Printf.sprintf "wal-%06d.log" seq

let wal_file_seq name =
  if
    String.length name > 4
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 (String.length name - 8))
  else None

let wal_path dir seq = Filename.concat dir (wal_file_name seq)

(* Every wal-*.log in [dir], ascending by sequence number. *)
let wal_files dir =
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun n ->
         match wal_file_seq n with Some s -> Some (s, n) | None -> None)
  |> List.sort compare

let dir t = t.dir
let generation t = Atomic.get t.generation
let version t = Atomic.get t.vversion

let is_corpus_dir d =
  (try Sys.is_directory d with Sys_error _ -> false)
  && Sys.file_exists (manifest_path d)

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let committing t f =
  Mutex.lock t.cm;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cm) f

let building t f =
  Mutex.lock t.bm;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.bm) f

(* caller holds [t.m] *)
let mem_empty t = t.pending = [] && t.runs = []

(* Exclusive cross-process lock held for the duration of one manifest
   commit. Closing the fd releases the lock even if the process dies
   mid-commit (the kernel drops record locks with the descriptor). *)
let with_dir_lock dir f =
  let fd =
    Unix.openfile (Filename.concat dir lock_name)
      [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      f ())

(* ------------------------------------------------------------------ *)
(* Write-ahead log records. One marshalled [wal_op] per framed record
   (Pti_storage.Wal does the length + checksum framing). W_seal is a
   marker only — the seal's durability is its manifest commit — but
   having every mutation leave a record makes the log a complete,
   ordered account of the write path for forensics and tests. *)

type wal_op = W_insert of int * U.t | W_delete of int | W_seal of int

let wal_encode (op : wal_op) = Marshal.to_string op []

(* Checksum-verified payloads only (Wal.scan rejects damaged records),
   so Marshal cannot read garbage. *)
let wal_decode s : wal_op = Marshal.from_string s 0

(* Caller holds [t.m]: the record lands in the log in exactly the
   order the memtable mutation becomes visible. An exception here
   (ENOSPC, injected fault) aborts the mutation before any in-memory
   state changed — at worst a torn tail the next open truncates. *)
let wal_append_locked t op =
  match t.wal with
  | None -> ()
  | Some w ->
      let payload = wal_encode op in
      Mutex.lock t.wm;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.wm)
        (fun () ->
          S.Wal.append w payload;
          t.wal_dirty <- true);
      t.wal_records <- t.wal_records + 1;
      t.wal_bytes <- t.wal_bytes + S.Wal.header_bytes + String.length payload

(* Policy fsync, outside [t.m] so readers never wait on the disk.
   [force] flushes regardless of the interval clock (but still never
   under Wal_never) — the idle-flusher entry point. *)
let wal_flush ?(force = false) t =
  let due now =
    match t.wal_sync with
    | Wal_never -> false
    | Wal_always -> true
    | Wal_interval ms -> force || now -. t.wal_last_sync >= ms /. 1000.0
  in
  match t.wal_sync with
  | Wal_never -> ()
  | _ ->
      let now = Unix.gettimeofday () in
      if due now then begin
        Mutex.lock t.wm;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.wm)
          (fun () ->
            if t.wal_dirty then begin
              (match t.wal with Some w -> S.Wal.sync w | None -> ());
              t.wal_dirty <- false;
              t.wal_last_sync <- now
            end)
      end

let sync_wal t = wal_flush ~force:true t
let wal_policy t = t.wal_sync

(* ------------------------------------------------------------------ *)
(* Tombstone bitmaps *)

let bitmap_len n = Stdlib.max 1 ((n + 7) / 8)

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let popcount b n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if bit_get b i then incr c
  done;
  !c

(* ------------------------------------------------------------------ *)
(* Manifest: a small PTI-ENGINE-4 container, one per commit. Sections:
     corpus.meta     ints  [| format; generation; next_doc_id; seg_seq |]
     corpus.config   bytes (tau_min, relevance, backend tag, thresholds)
     corpus.segments bytes (marshalled segment file-name array)
     corpus.counts   ints  (documents per segment)
     corpus.tombs.<i> bits (per-segment tombstone bitmap)
   Writing it through Pti_storage.Writer buys checksums, typed Corrupt
   rejection and the crash-safe rename for free. *)

let manifest_format = 1

let backend_tag = function Engine.Packed -> 0 | Engine.Succinct -> 1
let backend_of_tag = function
  | 0 -> Engine.Packed
  | 1 -> Engine.Succinct
  | n ->
      raise
        (S.Corrupt
           {
             section = "corpus.config";
             reason = Printf.sprintf "unknown backend tag %d" n;
           })

(* raises on any write/fsync/rename fault with the destination
   manifest untouched *)
let write_manifest ~dir ~cfg ~gen ~next_doc_id ~seg_seq ~quarantined ~segs =
  let w = S.Writer.create (manifest_path dir) in
  S.Writer.add_ints w "corpus.meta" [| manifest_format; gen; next_doc_id; seg_seq |];
  (* scrubber evictions: names of segment files moved to quarantine/.
     Written only when non-empty so older readers (and golden fixtures)
     see an unchanged section set on healthy corpora. *)
  if quarantined <> [] then
    S.Writer.add_bytes w "corpus.quarantine"
      (Marshal.to_string (Array.of_list (quarantined : string list)) []);
  S.Writer.add_bytes w "corpus.config"
    (Marshal.to_string
       ( cfg.tau_min,
         cfg.relevance,
         backend_tag cfg.backend,
         cfg.memtable_max_docs,
         cfg.compact_min_segments )
       []);
  S.Writer.add_bytes w "corpus.segments"
    (Marshal.to_string (Array.of_list (List.map (fun s -> s.sg_name) segs)) []);
  S.Writer.add_ints w "corpus.counts"
    (Array.of_list (List.map (fun s -> s.sg_n) segs));
  List.iteri
    (fun i s ->
      S.Writer.add_bits w
        (Printf.sprintf "corpus.tombs.%d" i)
        (S.Bits.of_bytes s.sg_tombs))
    segs;
  S.Writer.close w

type manifest = {
  mf_gen : int;
  mf_next_doc_id : int;
  mf_seg_seq : int;
  mf_cfg : config;
  mf_segs : (string * int * Bytes.t) list; (* name, n_docs, tombstones *)
  mf_quarantine : string list; (* scrub-evicted segment files *)
}

let corrupt section reason = raise (S.Corrupt { section; reason })

let read_manifest ?(verify = true) dir =
  let r = S.Reader.open_file ~verify (manifest_path dir) in
  let meta = S.Reader.ints r "corpus.meta" in
  if S.Ints.length meta < 4 then corrupt "corpus.meta" "short meta section";
  if S.Ints.get meta 0 <> manifest_format then
    corrupt "corpus.meta"
      (Printf.sprintf "unsupported manifest format %d" (S.Ints.get meta 0));
  let tau_min, relevance, btag, mem_max, compact_min =
    (Marshal.from_string (S.Reader.blob r "corpus.config") 0
      : float * L.relevance * int * int * int)
  in
  let names =
    (Marshal.from_string (S.Reader.blob r "corpus.segments") 0 : string array)
  in
  let counts = S.Reader.ints r "corpus.counts" in
  if S.Ints.length counts <> Array.length names then
    corrupt "corpus.counts" "segment count mismatch";
  let segs =
    List.init (Array.length names) (fun i ->
        let n = S.Ints.get counts i in
        let bits = S.Reader.bits r (Printf.sprintf "corpus.tombs.%d" i) in
        let b = S.Bits.to_bytes bits in
        if Bytes.length b < bitmap_len n then
          corrupt
            (Printf.sprintf "corpus.tombs.%d" i)
            "tombstone bitmap shorter than segment";
        (names.(i), n, b))
  in
  let quarantine =
    if S.Reader.has r "corpus.quarantine" then
      Array.to_list
        (Marshal.from_string (S.Reader.blob r "corpus.quarantine") 0
          : string array)
    else []
  in
  {
    mf_gen = S.Ints.get meta 1;
    mf_next_doc_id = S.Ints.get meta 2;
    mf_seg_seq = S.Ints.get meta 3;
    mf_cfg =
      {
        tau_min;
        relevance;
        backend = backend_of_tag btag;
        memtable_max_docs = mem_max;
        compact_min_segments = compact_min;
      };
    mf_segs = segs;
    mf_quarantine = quarantine;
  }

(* The generation currently committed on disk; [~verify:false] checks
   only the envelope, enough to trust the meta words. *)
let disk_generation dir =
  let r = S.Reader.open_file ~verify:false (manifest_path dir) in
  let meta = S.Reader.ints r "corpus.meta" in
  if S.Ints.length meta < 4 then corrupt "corpus.meta" "short meta section";
  S.Ints.get meta 1

(* ------------------------------------------------------------------ *)
(* Segment open/close *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let open_segment ~dir ~verify (name, n, tombs) =
  let path = Filename.concat dir name in
  let handle = L.load ~verify path in
  if L.n_docs handle <> n then
    corrupt "segment.docids"
      (Printf.sprintf "%s: manifest says %d docs, container has %d" name n
         (L.n_docs handle));
  (* the id map lives in the same container; the verified open above
     already checksummed every section, so this reader can skip it *)
  let r = S.Reader.open_file ~verify:false path in
  let ids = S.Reader.ints r "segment.docids" in
  if S.Ints.length ids <> n then
    corrupt "segment.docids" (name ^ ": id map length mismatch");
  {
    sg_name = name;
    sg_handle = handle;
    sg_ids = ids;
    sg_n = n;
    sg_tombs = tombs;
    sg_dead = popcount tombs n;
    sg_bytes = file_size path;
  }

(* strictly-ascending id map: binary search for [id], None if absent *)
let slot_of_id ids n id =
  let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = S.Ints.get ids mid in
    if v = id then begin
      found := mid;
      lo := !hi + 1
    end
    else if v < id then lo := mid + 1
    else hi := mid - 1
  done;
  if !found >= 0 then Some !found else None

(* ------------------------------------------------------------------ *)
(* Construction *)

let of_manifest ~dir ~read_only ~verify ~wal_sync (m : manifest) =
  {
    dir;
    cfg = m.mf_cfg;
    read_only;
    verify;
    wal_sync;
    m = Mutex.create ();
    bm = Mutex.create ();
    cm = Mutex.create ();
    wm = Mutex.create ();
    generation = Atomic.make m.mf_gen;
    vversion = Atomic.make 0;
    next_doc_id = m.mf_next_doc_id;
    seg_seq = m.mf_seg_seq;
    segs = List.map (open_segment ~dir ~verify) m.mf_segs;
    pending = [];
    runs = [];
    compacting = false;
    wal = None;
    wal_seq = 0;
    wal_records = 0;
    wal_bytes = 0;
    wal_dirty = false;
    wal_last_sync = Unix.gettimeofday ();
    quarantined = m.mf_quarantine;
  }

let create ?config ?(wal_sync = default_wal_sync) dir_ =
  let cfg =
    match config with Some c -> c | None -> default_config ~tau_min:0.1
  in
  if cfg.tau_min <= 0.0 || cfg.tau_min >= 1.0 then
    invalid_arg "Segment_store.create: tau_min must be in (0, 1)";
  if Sys.file_exists (manifest_path dir_) then
    invalid_arg
      (Printf.sprintf "Segment_store.create: %s already holds a manifest" dir_);
  if not (Sys.file_exists dir_) then Unix.mkdir dir_ 0o755;
  with_dir_lock dir_ (fun () ->
      (* re-check under the lock: two concurrent inits must not both
         write generation 0 *)
      if Sys.file_exists (manifest_path dir_) then
        invalid_arg
          (Printf.sprintf "Segment_store.create: %s already holds a manifest"
             dir_);
      (* a stale log from a previous life of this directory must not
         replay into the fresh corpus *)
      List.iter
        (fun (seq, _) -> S.Wal.remove (wal_path dir_ seq))
        (wal_files dir_);
      write_manifest ~dir:dir_ ~cfg ~gen:0 ~next_doc_id:0 ~seg_seq:0
        ~quarantined:[] ~segs:[]);
  let t =
    of_manifest ~dir:dir_ ~read_only:false ~verify:true ~wal_sync
      {
        mf_gen = 0;
        mf_next_doc_id = 0;
        mf_seg_seq = 0;
        mf_cfg = cfg;
        mf_segs = [];
        mf_quarantine = [];
      }
  in
  t.wal <- Some (S.Wal.open_writer (wal_path dir_ 0));
  t

(* Replay one scanned WAL payload into the just-opened store. The log
   can hold records the manifest already covers (crash after a seal's
   manifest commit but before its WAL rotation finished), so replay is
   idempotent: an insert whose id is already sealed — or already
   replayed — is skipped. File order is oldest-first; prepending keeps
   [t.pending] in its newest-first invariant (there are no runs yet:
   the first read folds the replayed documents). *)
let replay_record t payload =
  match wal_decode payload with
  | W_seal _ -> ()
  | W_insert (id, u) ->
      let sealed =
        List.exists (fun s -> slot_of_id s.sg_ids s.sg_n id <> None) t.segs
      in
      if (not sealed) && not (List.mem_assoc id t.pending) then
        t.pending <- (id, u) :: t.pending;
      t.next_doc_id <- Stdlib.max t.next_doc_id (id + 1)
  | W_delete id ->
      if List.mem_assoc id t.pending then
        t.pending <- List.remove_assoc id t.pending

(* Replay every wal-NNNNNN.log (ascending) on top of the manifest
   generation. Torn tails are truncated on disk (writable stores) or
   ignored in memory (read-only); Pti_storage.Wal.scan already raised
   [Corrupt] for a damaged record that is NOT the tail. A writable open
   then consolidates: with more than one log on disk (a crash left a
   half-finished rotation) the surviving memtable is re-logged into one
   fresh fsynced file under the directory lock; a single clean log is
   simply reopened for append, so an external [pti corpus ...] process
   never destroys a live daemon's active log. *)
let recover_wal t =
  let files = wal_files t.dir in
  let torn = ref false in
  List.iter
    (fun (seq, _) ->
      let path = wal_path t.dir seq in
      let scan = S.Wal.scan path in
      if scan.S.Wal.ws_torn then begin
        torn := true;
        if not t.read_only then S.Wal.truncate path scan.S.Wal.ws_valid_bytes
      end;
      List.iter (replay_record t) scan.S.Wal.ws_records;
      t.wal_records <- t.wal_records + List.length scan.S.Wal.ws_records;
      t.wal_bytes <- t.wal_bytes + scan.S.Wal.ws_valid_bytes)
    files;
  if not t.read_only then begin
    let max_seq = List.fold_left (fun a (s, _) -> Stdlib.max a s) (-1) files in
    if List.length files > 1 then
      (* consolidate under the lock so a racing external writer can't
         observe (or produce) a second active log mid-swap *)
      with_dir_lock t.dir (fun () ->
          let seq = max_seq + 1 in
          let w = S.Wal.open_writer (wal_path t.dir seq) in
          List.iter
            (fun (id, u) -> S.Wal.append w (wal_encode (W_insert (id, u))))
            (List.rev t.pending);
          S.Wal.sync w;
          t.wal <- Some w;
          t.wal_seq <- seq;
          t.wal_records <- List.length t.pending;
          t.wal_bytes <-
            List.fold_left
              (fun a (id, u) ->
                a + S.Wal.header_bytes
                + String.length (wal_encode (W_insert (id, u))))
              0 t.pending;
          List.iter (fun (s, _) -> S.Wal.remove (wal_path t.dir s)) files)
    else begin
      let seq = Stdlib.max max_seq 0 in
      t.wal_seq <- seq;
      t.wal <- Some (S.Wal.open_writer (wal_path t.dir seq));
      if files = [] then begin
        t.wal_records <- 0;
        t.wal_bytes <- 0
      end
    end
  end

let open_dir ?(read_only = false) ?(verify = true)
    ?(wal_sync = default_wal_sync) dir_ =
  if not (Sys.file_exists (manifest_path dir_)) then
    raise (Sys_error (dir_ ^ ": not a corpus directory (no MANIFEST)"));
  let t =
    of_manifest ~dir:dir_ ~read_only ~verify ~wal_sync
      (read_manifest ~verify dir_)
  in
  recover_wal t;
  if t.pending <> [] then Atomic.incr t.vversion;
  t

(* ------------------------------------------------------------------ *)
(* Commit: durable manifest first, in-memory state second. The caller
   holds [t.cm] and passes the full candidate segment list; nothing is
   mutated on failure. [install] runs under [t.m] in the same critical
   section that publishes the new list, so a reader snapshot can never
   observe the segment swap without its side effects (e.g. seal
   clearing the sealed documents from the memtable — splitting the two
   would let one query see a document both sealed and unsealed). *)

let commit t ?(install = fun () -> ()) ?quarantined ~segs () =
  let mem_gen = Atomic.get t.generation in
  let gen = mem_gen + 1 in
  let next_doc_id, seg_seq = locked t (fun () -> (t.next_doc_id, t.seg_seq)) in
  let quarantined =
    match quarantined with Some q -> q | None -> t.quarantined
  in
  with_dir_lock t.dir (fun () ->
      (* commit-time check, race-free under the directory lock: if
         another process moved the manifest since this store loaded
         it, refuse — last-writer-wins here would silently resurrect
         the other writer's deletes *)
      let disk_gen = disk_generation t.dir in
      if disk_gen <> mem_gen then
        raise (Conflict { dir = t.dir; disk_gen; mem_gen });
      write_manifest ~dir:t.dir ~cfg:t.cfg ~gen ~next_doc_id ~seg_seq
        ~quarantined ~segs);
  locked t (fun () ->
      Atomic.set t.generation gen;
      t.segs <- segs;
      t.quarantined <- quarantined;
      Atomic.incr t.vversion;
      install ())

(* Retire the write-ahead log after a commit emptied the memtable:
   every record it holds is now manifest-covered, so the file can be
   unlinked and a fresh (empty) one started — this is what bounds
   replay to one memtable's worth of records. Caller holds [t.cm]
   (seal/compact), so no concurrent seal races the swap; concurrent
   inserts are handled by re-checking the memtable under [t.m] and
   abandoning the rotation if one slipped in (its record is in the OLD
   file, which must then survive). *)
let rotate_wal t =
  if (not t.read_only) && t.wal <> None then begin
    let want = locked t (fun () -> mem_empty t && t.wal_records > 0) in
    if want then begin
      let new_seq = t.wal_seq + 1 in
      let nw = S.Wal.open_writer (wal_path t.dir new_seq) in
      let retired =
        locked t (fun () ->
            if not (mem_empty t) then None
            else begin
              Mutex.lock t.wm;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock t.wm)
                (fun () ->
                  let old = t.wal in
                  t.wal <- Some nw;
                  t.wal_dirty <- false;
                  (match old with Some w -> S.Wal.close w | None -> ()));
              let old_seq = t.wal_seq in
              t.wal_seq <- new_seq;
              t.wal_records <- 0;
              t.wal_bytes <- 0;
              Some old_seq
            end)
      in
      (* the unlink (and its directory fsync) happens outside [t.m] so
         a rotation never stalls the read path *)
      match retired with
      | Some old_seq -> S.Wal.remove (wal_path t.dir old_seq)
      | None ->
          S.Wal.close nw;
          S.Wal.remove (wal_path t.dir new_seq)
    end
  end

let check_writable t name =
  if t.read_only then invalid_arg ("Segment_store." ^ name ^ ": read-only store")

(* ------------------------------------------------------------------ *)
(* Memtable *)

let build_listing t docs =
  L.build ~relevance:t.cfg.relevance ~backend:t.cfg.backend
    ~tau_min:t.cfg.tau_min docs

let by_id (a, _) (b, _) = Int.compare a b

(* [docs] ascending by id *)
let build_run t docs =
  {
    r_index = build_listing t (List.map snd docs);
    r_ids = Array.of_list (List.map fst docs);
  }

let run_size r = Array.length r.r_ids
let run_docs r =
  List.mapi (fun k id -> (id, L.doc r.r_index k)) (Array.to_list r.r_ids)

(* The remaining helpers read the memtable: caller holds [t.m]. *)

let mem_count t =
  List.fold_left (fun a r -> a + run_size r) (List.length t.pending) t.runs

(* [n] documents left [pending] since a snapshot that holders of [t.bm]
   took: only inserts touched it since, by prepending *)
let drop_pending_tail t n =
  let keep = List.length t.pending - n in
  t.pending <- List.filteri (fun i _ -> i < keep) t.pending

(* Fold the pending documents into the run stack (caller holds [t.bm],
   not [t.m]): one build over them and the newest runs down to the
   deepest one no larger than everything newer than it. Every run left
   is then larger than all newer runs together, so sizes at least
   double down the stack, and a rebuilt document's run at least
   doubles: ≤ ⌊log₂ n⌋ + 1 runs, ≤ log₂ n + 1 builds per document.
   Returns the snapshot the fold installed — the read path's view. *)
let fold_pending t =
  let pending, runs, segs = locked t (fun () -> (t.pending, t.runs, t.segs)) in
  if pending = [] then (runs, segs)
  else begin
    let rec depth i newer k = function
      | [] -> k
      | r :: older ->
          let k = if run_size r <= newer then i + 1 else k in
          depth (i + 1) (newer + run_size r) k older
    in
    let k = depth 0 (List.length pending) 0 runs in
    let absorbed = List.filteri (fun i _ -> i < k) runs in
    let older = List.filteri (fun i _ -> i >= k) runs in
    let docs = pending @ List.concat_map run_docs absorbed in
    let runs = build_run t (List.sort by_id docs) :: older in
    locked t (fun () ->
        drop_pending_tail t (List.length pending);
        t.runs <- runs);
    (runs, segs)
  end

(* rough heap footprint of the unsealed documents, for the metrics
   gauge: choices dominate (a sym + boxed float per choice) *)
let mem_bytes_estimate docs =
  List.fold_left
    (fun acc (_, u) -> acc + 48 + (24 * U.length u) + (32 * U.n_choices u))
    0 docs

(* ------------------------------------------------------------------ *)
(* Seal *)

let seal t =
  check_writable t "seal";
  committing t @@ fun () ->
  (* [t.bm] keeps the run stack fixed until the install below; inserts
     landing after this snapshot stay pending, untouched *)
  building t @@ fun () ->
  let pending, runs = locked t (fun () -> (t.pending, t.runs)) in
  if pending = [] && runs = [] then false
  else begin
    ignore (F.hit "segment.seal" : int option);
    (* marker record: closes this memtable's run in the log, so a
       post-crash forensic read of a retired-late WAL shows where the
       durable boundary was *)
    locked t (fun () ->
        wal_append_locked t (W_seal (Atomic.get t.generation + 1)));
    wal_flush t;
    (* a lone run with nothing pending already is the segment's index:
       runs are built exactly as a fresh [L.build] over their documents *)
    let r =
      match (pending, runs) with
      | [], [ r ] -> r
      | _ ->
          let docs = pending @ List.concat_map run_docs runs in
          build_run t (List.sort by_id docs)
    in
    let ids = r.r_ids in
    let reserved =
      locked t (fun () ->
          let s = t.seg_seq in
          t.seg_seq <- s + 1;
          s)
    in
    let name = seg_file_name reserved in
    (match
       L.save r.r_index (seg_path t name) ~extra:(fun w ->
           S.Writer.add_ints w "segment.docids" ids);
       let seg =
         open_segment ~dir:t.dir ~verify:t.verify
           ( name,
             Array.length ids,
             Bytes.make (bitmap_len (Array.length ids)) '\000' )
       in
       let segs = locked t (fun () -> t.segs) @ [ seg ] in
       commit t ~segs
         ~install:(fun () ->
           drop_pending_tail t (List.length pending);
           t.runs <- [])
         ()
     with
    | () -> ()
    | exception e ->
        (* the manifest still names the old set. Release the reserved
           sequence number ONLY if no later reservation happened
           meanwhile: sequence numbers must never be handed out twice,
           or a retried seal could rename its file over a pending
           compaction output *)
        locked t (fun () ->
            if t.seg_seq = reserved + 1 then t.seg_seq <- reserved);
        raise e);
    (* the commit emptied the memtable (unless a concurrent insert
       slipped in): every WAL record is now manifest-covered, so retire
       the log — this bounds replay to one memtable *)
    rotate_wal t;
    true
  end

(* ------------------------------------------------------------------ *)
(* Insert / delete *)

let insert t u =
  check_writable t "insert";
  if U.length u = 0 then invalid_arg "Segment_store.insert: empty document";
  let id, want_seal =
    locked t (fun () ->
        let id = t.next_doc_id in
        (* log first, mutate second: if the append raises (disk full,
           injected fault) no state changed and the id was not burned *)
        wal_append_locked t (W_insert (id, u));
        t.next_doc_id <- id + 1;
        t.pending <- (id, u) :: t.pending;
        Atomic.incr t.vversion;
        ( id,
          t.cfg.memtable_max_docs > 0
          && mem_count t >= t.cfg.memtable_max_docs ))
  in
  wal_flush t;
  if want_seal then ignore (seal t : bool);
  id

(* Caller holds [t.cm] and [t.bm]: drop [id] from [pending], or
   dissolve the run holding it, returning its other documents there. *)
let delete_unsealed t id =
  locked t (fun () ->
      let run = List.find_opt (fun r -> Array.mem id r.r_ids) t.runs in
      if Option.is_none run && not (List.mem_assoc id t.pending) then false
      else begin
        wal_append_locked t (W_delete id);
        (match run with
        | None -> t.pending <- List.remove_assoc id t.pending
        | Some r ->
            t.runs <- List.filter (( != ) r) t.runs;
            t.pending <-
              t.pending @ List.filter (fun (d, _) -> d <> id) (run_docs r));
        Atomic.incr t.vversion;
        true
      end)

let delete t id =
  check_writable t "delete";
  committing t (fun () ->
      (* only a seal (which needs [t.cm]) moves a document out of the
         memtable, so the answer cannot go stale before [t.bm] is ours;
         deletes of sealed documents never wait for a fold *)
      if
        locked t (fun () ->
            List.mem_assoc id t.pending
            || List.exists (fun r -> Array.mem id r.r_ids) t.runs)
        && building t (fun () -> delete_unsealed t id)
      then begin
        wal_flush t;
        true
      end
      else begin
        (* [t.segs] is stable while [t.cm] is held — every mutator of
           the segment list takes the commit lock *)
        let segs = locked t (fun () -> t.segs) in
        let hit = ref false in
        let segs' =
          List.map
            (fun s ->
              if !hit then s
              else
                match slot_of_id s.sg_ids s.sg_n id with
                | Some slot when not (bit_get s.sg_tombs slot) ->
                    hit := true;
                    let tombs = Bytes.copy s.sg_tombs in
                    bit_set tombs slot;
                    { s with sg_tombs = tombs; sg_dead = s.sg_dead + 1 }
                | _ -> s)
            segs
        in
        if !hit then commit t ~segs:segs' ();
        !hit
      end)

(* ------------------------------------------------------------------ *)
(* Scatter-gather read path *)

(* Canonical result order: most probable first, corpus id breaking
   ties. Every document id occurs in exactly one source, so this total
   order makes the merged answer independent of how the corpus is cut
   into segments — the determinism [loadgen --verify] relies on. *)
let cmp_hit (d1, p1) (d2, p2) =
  let c = Logp.compare p2 p1 in
  if c <> 0 then c else Int.compare d1 d2

(* One source's canonically-sorted live hits, ids already corpus-wide. *)
let seg_hits s ~pattern ~tau =
  let raw = L.query s.sg_handle ~pattern ~tau in
  let live =
    if s.sg_dead = 0 then
      List.map (fun (slot, p) -> (S.Ints.get s.sg_ids slot, p)) raw
    else
      List.filter_map
        (fun (slot, p) ->
          if bit_get s.sg_tombs slot then None
          else Some (S.Ints.get s.sg_ids slot, p))
        raw
  in
  let a = Array.of_list live in
  Array.sort cmp_hit a;
  a

let run_hits r ~pattern ~tau =
  let a =
    Array.of_list
      (List.map
         (fun (slot, p) -> (r.r_ids.(slot), p))
         (L.query r.r_index ~pattern ~tau))
  in
  Array.sort cmp_hit a;
  a

(* Bounded-heap k-way merge of canonically sorted sources: the heap
   holds one cursor per non-exhausted source (≤ #segments + 1 entries,
   independent of result size), so top-k stops after k pops without
   materializing the full union. *)
let merge_sources ?(limit = max_int) (sources : (int * Logp.t) array array) =
  let nsrc = Array.length sources in
  let pos = Array.make nsrc 0 in
  let heap = Array.make nsrc 0 in
  let size = ref 0 in
  let head s = sources.(s).(pos.(s)) in
  let less a b = cmp_hit (head a) (head b) < 0 in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let rec up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less heap.(i) heap.(p) then begin
        swap i p;
        up p
      end
    end
  in
  let rec down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < !size && less heap.(l) heap.(!best) then best := l;
    if r < !size && less heap.(r) heap.(!best) then best := r;
    if !best <> i then begin
      swap i !best;
      down !best
    end
  in
  Array.iteri
    (fun s src ->
      if Array.length src > 0 then begin
        heap.(!size) <- s;
        incr size;
        up (!size - 1)
      end)
    sources;
  let out = ref [] in
  let taken = ref 0 in
  while !size > 0 && !taken < limit do
    let s = heap.(0) in
    out := head s :: !out;
    incr taken;
    pos.(s) <- pos.(s) + 1;
    if pos.(s) >= Array.length sources.(s) then begin
      size := !size - 1;
      heap.(0) <- heap.(!size)
    end;
    if !size > 0 then down 0
  done;
  List.rev !out

(* a consistent read snapshot: the memtable runs plus the current
   segment records, folding pending documents first (outside [t.m]) *)
let snapshot t =
  match
    locked t (fun () -> if t.pending = [] then Some (t.runs, t.segs) else None)
  with
  | Some snap -> snap
  | None -> building t (fun () -> fold_pending t)

let gather ?limit t ~pattern ~tau =
  let runs, segs = snapshot t in
  let sources =
    List.map (fun r -> run_hits r ~pattern ~tau) runs
    @ List.map (fun s -> seg_hits s ~pattern ~tau) segs
  in
  merge_sources ?limit (Array.of_list sources)

let query t ~pattern ~tau = gather t ~pattern ~tau

let query_top_k t ~pattern ~tau ~k =
  if k <= 0 then [] else gather ~limit:k t ~pattern ~tau

let count t ~pattern ~tau = List.length (gather t ~pattern ~tau)

(* ------------------------------------------------------------------ *)
(* Compaction *)

(* Size-tiered candidate selection: the tier is every segment within
   2× of the smallest one's size. High overall tombstone ratio makes
   every segment a candidate (the merge is what reclaims the space). *)
let dead_live segs =
  List.fold_left (fun (d, l) s -> (d + s.sg_dead, l + (s.sg_n - s.sg_dead))) (0, 0) segs

let smallest_tier segs =
  match
    List.sort (fun a b -> compare (a.sg_bytes, a.sg_name) (b.sg_bytes, b.sg_name)) segs
  with
  | [] -> []
  | smallest :: _ as sorted ->
      List.filter (fun s -> s.sg_bytes <= 2 * smallest.sg_bytes) sorted

let high_tombstone segs =
  let dead, live = dead_live segs in
  dead > 0 && float_of_int dead > 0.3 *. float_of_int (dead + live)

(* caller holds [t.m] *)
let candidates ~force t =
  let viable inputs =
    List.length inputs >= 2
    || List.exists (fun s -> s.sg_dead > 0) inputs
    (* a pending quarantine makes any rewrite worthwhile: the commit is
       what clears the degradation marker (read-repair, DESIGN.md §15) *)
    || (t.quarantined <> [] && inputs <> [])
  in
  let inputs =
    if force then t.segs
    else if high_tombstone t.segs then t.segs
    else begin
      let tier = smallest_tier t.segs in
      if List.length tier >= t.cfg.compact_min_segments then tier else []
    end
  in
  if viable inputs then inputs else []

let needs_compaction t = locked t (fun () -> candidates ~force:false t <> [])

(* Survivors of [inputs] under the snapshot bitmaps, ascending by
   corpus id (inputs hold disjoint id sets, each already ascending). *)
let survivors inputs =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun slot ->
          if bit_get s.sg_tombs slot then None
          else Some (S.Ints.get s.sg_ids slot, L.doc s.sg_handle slot))
        (List.init s.sg_n Fun.id))
    inputs
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let compact ?(force = false) t =
  check_writable t "compact";
  let picked =
    locked t (fun () ->
        if t.compacting then None
        else
          match candidates ~force t with
          | [] -> None
          | inputs ->
              t.compacting <- true;
              let out_seq = t.seg_seq in
              t.seg_seq <- out_seq + 1;
              Some (inputs, out_seq))
  in
  match picked with
  | None -> false
  | Some (inputs, out_seq) ->
      Fun.protect
        ~finally:(fun () -> locked t (fun () -> t.compacting <- false))
        (fun () ->
          ignore (F.hit "segment.compact" : int option);
          (* merge outside all locks: the snapshot bitmaps are
             copy-on-write, so concurrent deletes cannot shift what we
             read here — they are re-applied at swap time below *)
          let docs = survivors inputs in
          let built =
            match docs with
            | [] -> None
            | docs ->
                let ids = Array.of_list (List.map fst docs) in
                let l = build_listing t (List.map snd docs) in
                let name = seg_file_name out_seq in
                L.save l (seg_path t name) ~extra:(fun w ->
                    S.Writer.add_ints w "segment.docids" ids);
                Some name
          in
          let input_names = List.map (fun s -> s.sg_name) inputs in
          committing t (fun () ->
              (* [t.segs] is stable under [t.cm]; deletes committed
                 while the merge ran live in the CURRENT records *)
              let cur_segs = locked t (fun () -> t.segs) in
              let out =
                match built with
                | None -> None
                | Some name ->
                    let seg =
                      open_segment ~dir:t.dir ~verify:t.verify
                        ( name,
                          List.length docs,
                          Bytes.make (bitmap_len (List.length docs)) '\000' )
                    in
                    (* tombstone their ids in the output so documents
                       deleted during the merge stay dead *)
                    let tombs = ref seg.sg_tombs in
                    let dead = ref 0 in
                    List.iter
                      (fun cur ->
                        match
                          List.find_opt (fun s -> s.sg_name = cur.sg_name) inputs
                        with
                        | None -> ()
                        | Some old ->
                            for slot = 0 to cur.sg_n - 1 do
                              if
                                bit_get cur.sg_tombs slot
                                && not (bit_get old.sg_tombs slot)
                              then begin
                                match
                                  slot_of_id seg.sg_ids seg.sg_n
                                    (S.Ints.get cur.sg_ids slot)
                                with
                                | None -> ()
                                | Some oslot ->
                                    if not (bit_get !tombs oslot) then begin
                                      if !dead = 0 then tombs := Bytes.copy !tombs;
                                      bit_set !tombs oslot;
                                      incr dead
                                    end
                              end
                            done)
                      cur_segs;
                    Some { seg with sg_tombs = !tombs; sg_dead = !dead }
              in
              let keep =
                List.filter
                  (fun s -> not (List.mem s.sg_name input_names))
                  cur_segs
              in
              let segs' =
                match out with None -> keep | Some seg -> keep @ [ seg ]
              in
              (* the rewrite re-verified everything that survived, so a
                 successful compaction clears the degraded marker *)
              commit t ~segs:segs' ~quarantined:[] ();
              (* The new generation is durable; the inputs and any
                 orphans older transitions left behind are garbage.
                 Two guards make unlinking safe against writers whose
                 rename→manifest-commit window could otherwise race
                 the readdir below into unlinking a file a manifest is
                 about to reference:
                 - in-process writers (seal) rename and commit while
                   holding [t.cm], which this sweep also holds;
                 - other processes are covered by the sequence
                   watermark: their pending output is always numbered
                   at or above the seg_seq this store just committed
                   (they loaded it from a manifest at least as new),
                   while every local orphan was reserved — hence
                   numbered — strictly below it. Sequence numbers are
                   never re-issued while another reservation is
                   outstanding (see seal's rollback), so nothing below
                   the watermark can ever be referenced again. *)
              let watermark = locked t (fun () -> t.seg_seq) in
              let referenced = List.map (fun s -> s.sg_name) segs' in
              Array.iter
                (fun name ->
                  match seg_file_seq name with
                  | Some seq
                    when seq < watermark && not (List.mem name referenced) -> (
                      try Sys.remove (seg_path t name) with Sys_error _ -> ())
                  | _ -> ())
                (try Sys.readdir t.dir with Sys_error _ -> [||]);
              rotate_wal t);
          true)

(* ------------------------------------------------------------------ *)
(* Reload *)

let reload t =
  let m = read_manifest ~verify:t.verify t.dir in
  committing t (fun () ->
      let mem_gen = Atomic.get t.generation in
      if m.mf_gen <= mem_gen then begin
        (* equal: nothing to do. Lower: a stale manifest (restored
           backup, tampering) must never roll the live store back to
           an older segment set — refuse and say so *)
        if m.mf_gen < mem_gen then
          Printf.eprintf
            "pti: %s: on-disk manifest generation %d is behind in-memory %d; \
             refusing to regress\n\
             %!"
            t.dir m.mf_gen mem_gen;
        false
      end
      else begin
        let cur_segs = locked t (fun () -> t.segs) in
        let segs =
          List.map
            (fun (name, n, tombs) ->
              match
                List.find_opt (fun s -> s.sg_name = name && s.sg_n = n) cur_segs
              with
              | Some s ->
                  (* same immutable container: keep the mapping, adopt
                     the manifest's (possibly newer) tombstones *)
                  { s with sg_tombs = tombs; sg_dead = popcount tombs n }
              | None -> open_segment ~dir:t.dir ~verify:t.verify (name, n, tombs))
            m.mf_segs
        in
        locked t (fun () ->
            t.segs <- segs;
            t.quarantined <- m.mf_quarantine;
            Atomic.set t.generation m.mf_gen;
            t.next_doc_id <- Stdlib.max t.next_doc_id m.mf_next_doc_id;
            t.seg_seq <- Stdlib.max t.seg_seq m.mf_seg_seq;
            Atomic.incr t.vversion);
        true
      end)

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = {
  st_generation : int;
  st_segments : int;
  st_memtable_docs : int;
  st_memtable_runs : int;
  st_memtable_bytes : int;
  st_live_docs : int;
  st_tombstones : int;
  st_segment_bytes : int;
  st_next_doc_id : int;
  st_degraded_segments : int;
  st_wal_records : int;
  st_wal_bytes : int;
}

let stats t =
  locked t (fun () ->
      let dead, live = dead_live t.segs in
      {
        st_generation = Atomic.get t.generation;
        st_segments = List.length t.segs;
        st_memtable_docs = mem_count t;
        st_memtable_runs = List.length t.runs;
        st_memtable_bytes =
          mem_bytes_estimate (t.pending @ List.concat_map run_docs t.runs);
        st_live_docs = live;
        st_tombstones = dead;
        st_segment_bytes = List.fold_left (fun a s -> a + s.sg_bytes) 0 t.segs;
        st_next_doc_id = t.next_doc_id;
        st_degraded_segments = List.length t.quarantined;
        st_wal_records = t.wal_records;
        st_wal_bytes = t.wal_bytes;
      })

let tombstone_ratio st =
  let total = st.st_live_docs + st.st_tombstones in
  if total = 0 then 0.0 else float_of_int st.st_tombstones /. float_of_int total

(* ------------------------------------------------------------------ *)
(* Integrity scrubbing *)

type scrub_report = {
  sc_scanned : int;
  sc_bytes : int;
  sc_corrupt : (string * string) list;
  sc_quarantined : int;
  sc_io_errors : int;
}

(* Evict the named segments through a normal manifest commit. The
   rename into quarantine/ happens BEFORE the commit — the other order
   would let compact's orphan sweep unlink the evidence, or leave a
   committed manifest referencing a file we then fail to move — and is
   rolled back if the commit raises (Conflict, injected fault), so the
   store never ends up with a manifest naming a segment that is not
   where the manifest says. In-flight query snapshots keep their mmap
   of a renamed file: the inode lives on until they drop it. *)
let quarantine_segments t names =
  if names = [] then 0
  else
    committing t (fun () ->
        let cur = locked t (fun () -> t.segs) in
        (* a concurrent compaction may have already retired a victim *)
        let victims = List.filter (fun s -> List.mem s.sg_name names) cur in
        if victims = [] then 0
        else begin
          let qdir = Filename.concat t.dir quarantine_dir_name in
          if not (Sys.file_exists qdir) then Unix.mkdir qdir 0o755;
          let moved = ref [] in
          (try
             List.iter
               (fun s ->
                 Unix.rename (seg_path t s.sg_name)
                   (Filename.concat qdir s.sg_name);
                 moved := s.sg_name :: !moved)
               victims;
             let victim_names = List.map (fun s -> s.sg_name) victims in
             let keep =
               List.filter (fun s -> not (List.mem s.sg_name victim_names)) cur
             in
             let q = locked t (fun () -> t.quarantined) in
             commit t ~segs:keep ~quarantined:(q @ victim_names) ()
           with e ->
             List.iter
               (fun n ->
                 try Unix.rename (Filename.concat qdir n) (seg_path t n)
                 with Unix.Unix_error _ -> ())
               !moved;
             raise e);
          List.length victims
        end)

let scrub ?(budget_mb_s = 0.0) t =
  let snapshot =
    locked t (fun () -> List.map (fun s -> (s.sg_name, s.sg_bytes)) t.segs)
  in
  let scanned = ref 0 and bytes = ref 0 and io_errors = ref 0 in
  let corrupt = ref [] in
  List.iter
    (fun (name, size) ->
      (match
         ignore (F.hit "scrub.read" : int option);
         (* a fresh verifying reader re-walks every section checksum
            against the bytes on disk right now — rot that crept in
            after the serving mmap was established is still caught *)
         ignore (S.Reader.open_file ~verify:true (seg_path t name) : S.Reader.t)
       with
      | () ->
          incr scanned;
          bytes := !bytes + size
      | exception S.Corrupt { section; reason = _ } ->
          incr scanned;
          bytes := !bytes + size;
          corrupt := (name, section) :: !corrupt
      | exception (Unix.Unix_error _ | Sys_error _) -> incr io_errors);
      if budget_mb_s > 0.0 && size > 0 then
        Unix.sleepf (float_of_int size /. (budget_mb_s *. 1024. *. 1024.)))
    snapshot;
  let corrupt = List.rev !corrupt in
  let quarantined =
    if t.read_only then 0 else quarantine_segments t (List.map fst corrupt)
  in
  {
    sc_scanned = !scanned;
    sc_bytes = !bytes;
    sc_corrupt = corrupt;
    sc_quarantined = quarantined;
    sc_io_errors = !io_errors;
  }

(* referenced below to keep Sym in the interface's type expressions
   without an unused-module warning under strict flags *)
let _ = (fun (p : Sym.t array) -> p)
