(** Shared query engine over a transformed uncertain string (§4–§6).

    The engine owns the suffix array, LCP array, the per-length
    probability RMQ structures [RMQ_1 .. RMQ_(log N)] with
    duplicate-elimination (Algorithms 1 and 3), and the blocking scheme
    for long patterns. It is parameterised by:

    - a {e key} function mapping original string positions to output
      identities — the identity for substring search (report positions),
      the document id for string listing (report documents);
    - an {e aggregation metric} for slots sharing a key inside one
      depth-[i] lcp-group: [Max] keeps the most probable slot (substring
      search, listing with [Rel_max]); [Or_metric] stores the
      OR-combination Σp − Πp over the key's distinct positions (listing
      with [Rel_or]; this retains the level value arrays, trading the
      paper's discard-the-array trick for O(1) verification of the
      complex metric).

    Queries report, for a pattern [p] and threshold [τ ≥ τ_min], every
    distinct key whose metric value strictly exceeds [τ], in
    non-increasing metric order, in O(m log N + occ) for short patterns
    (m ≤ log N) and O(m·occ_blocks + block) via the blocking ladder for
    long ones.

    Threshold comparisons are floating point: a match whose probability
    equals [τ] to within ~1e-12 may fall on either side of the strict
    comparison, because window probabilities are evaluated as prefix-sum
    differences of logarithms. *)

module Logp = Pti_prob.Logp

type ladder =
  | Ladder_geometric
      (** Block sizes log N, 2 log N, 4 log N, … — O(N) words total,
          construction O(N log N); queries use the largest size ≤ m
          (sound upper-bound filtering; see DESIGN.md §2.5). *)
  | Ladder_full
      (** The paper's sizes log N .. N. Θ(N²) construction work — only
          for small inputs / the ablation benchmark. *)
  | Ladder_none
      (** No blocking structure; long patterns scan the suffix range. *)

type metric = Max | Or_metric

type range_search =
  | Rs_binary
      (** Suffix-array binary search, O(m log N) with text access. *)
  | Rs_fm
      (** FM-index backward search, O(m log σ) without text access —
          the compressed-suffix-array role of §8.7. Adds the wavelet
          tree of the BWT to the index. *)
  | Rs_tree
      (** Suffix-tree locus walk, O(m + σ) — the literal §3.4 method.
          Adds the materialised suffix tree to the index. *)

type config = {
  rmq_kind : Pti_rmq.Rmq.kind;
  ladder : ladder;
  metric : metric;
  range_search : range_search;
}

val default_config : config
(** Succinct RMQ, geometric ladder, [Max] metric, binary search. *)

type backend =
  | Packed
      (** Every construction artefact persisted: Fischer–Heun RMQs, LCP
          array, raw per-position logs. Fastest queries. *)
  | Succinct
      (** Space-lean serving layout: signature-only block RMQs (≈2 bits
          per element per level), FM-index range search instead of
          suffix-array binary search, and the LCP / raw-log sections
          dropped from the container. Targets < 4 words per text
          position at a small constant-factor query latency cost. *)

val backend_to_string : backend -> string
val backend_of_string : string -> backend option

type t

val build :
  ?config:config ->
  ?backend:backend ->
  ?domains:int ->
  key_of_pos:(int -> int) ->
  Pti_transform.Transform.t ->
  t
(** [backend] (default [Packed]) selects the persisted layout;
    [Succinct] overrides the config's [rmq_kind] to the signature-only
    block RMQ and [range_search] to [Rs_fm] (metric and ladder choices
    are kept). The backend is recorded in the container header and
    restored by {!load}.

    [key_of_pos] maps an original uncertain-string position to the
    output key, a non-negative int (construction deduplicates in arrays
    indexed by key, so keys should be dense: positions or document
    ids); it must be total on positions occurring in the transform. It
    may be called concurrently from several domains and must be pure
    (every supplied key function is a plain array/identity lookup).

    [?domains] sets the construction parallelism (default:
    [Pti_parallel.num_domains ()], i.e. [PTI_DOMAINS] or the hardware
    count). After the suffix and LCP arrays, construction is one task
    per level and one per ladder size, spread over the domains: a level
    task computes its window values once, in text order, deduplicates
    its lcp-groups and builds its RMQ from those values; a ladder task
    computes its block maxima and their RMQ. The result is
    byte-identical for every domain count because each task owns its
    outputs outright. [domains:1] runs the exact sequential code
    path. *)

val transform : t -> Pti_transform.Transform.t
val config : t -> config

val backend : t -> backend
(** The layout this engine was built with (or that its container
    recorded). *)

val max_short : t -> int
(** ⌈log₂ N⌉: the short/long pattern boundary. *)

val suffix_range : t -> pattern:Pti_ustring.Sym.t array -> (int * int) option

val query :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) list
(** Distinct keys with metric value strictly above [tau], most probable
    first. Raises [Invalid_argument] if [tau < tau_min] of the
    transform, or if the pattern is empty or contains the separator.
    Safe to call from several domains at once without locking: queries
    only {e read} the engine (every structure is immutable after
    construction) and allocate their traversal state per call. *)

val count : t -> pattern:Pti_ustring.Sym.t array -> tau:float -> int

val stream :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> (int * Logp.t) Seq.t
(** Like {!query}, but lazily: answers are produced on demand in
    non-increasing metric order, so consuming a prefix of the sequence
    costs time proportional to that prefix (for short patterns; long
    patterns materialise the answer first). The sequence is ephemeral —
    it captures mutable traversal state and must be consumed at most
    once. *)

val query_top_k :
  t -> pattern:Pti_ustring.Sym.t array -> tau:float -> k:int ->
  (int * Logp.t) list
(** The [k] most probable answers above [tau] (fewer if fewer exist).
    For short patterns this stops after [k] range-maximum extractions —
    the top-k flavour of the Hon–Shah–Vitter framework the paper builds
    on (§7). *)

val size_words : t -> int
(** Historical 8-bytes-per-element space estimate; prefer
    {!size_bytes}. *)

val size_bytes : t -> int
(** Byte-accurate space of the engine's structures in their current
    representation — packed (mapped) views count at their packed
    width, heap-built views at 8 bytes per element. *)

val stats : t -> string

(** {2 Persistence}

    An engine saves into a {!Pti_storage} container ("PTI-ENGINE-4"):
    every array — transform, suffix/LCP arrays, duplicate-elimination
    bitmaps, OR-metric value arrays, ladder maxima, and the RMQ index
    tables — becomes a named, checksummed, 8-byte-aligned section
    packed at the minimal byte width covering its values (DESIGN.md
    §8–§9). {!load} memory-maps the file and reads the sections in
    place: no deserialization, no RMQ rebuild, open time independent
    of N up to the optional checksum pass. Mapped engines are immutable
    and page-cache-shared, so concurrent domains and
    separate OS processes serving the same file share one physical copy.
    The configuration, transform metadata, source string and the
    optional suffix tree remain [Marshal] blobs (the source is
    deserialized lazily, eagerly only for correlated inputs). *)

val save : ?extra:(Pti_storage.Writer.t -> unit) -> t -> string -> unit
(** Write the engine to [path]. [extra] may append wrapper-owned
    sections (e.g. the listing index' document blobs) to the same
    container before it is laid out and checksummed. Identical engines
    produce byte-identical files. *)

val load : ?verify:bool -> key_of_pos:(int -> int) -> string -> t
(** Memory-map an index file ([verify] as in
    {!Pti_storage.Reader.open_file}). [key_of_pos] must be the same
    mapping used at build time (the identity for substring indexes;
    wrappers persist what they need to reconstruct theirs). Raises
    {!Pti_storage.Corrupt}, naming the offending section, on a damaged
    container or a file that is not one. *)

val open_reader : key_of_pos:(int -> int) -> Pti_storage.Reader.t -> t
(** {!load} for an already-open container — wrappers use this to read
    their own sections from the same reader. *)
