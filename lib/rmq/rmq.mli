(** Range-maximum queries over (virtual) float arrays.

    Front end over four interchangeable implementations (see
    {!Rmq_intf.S}): a linear-scan oracle, a sparse table, a Fischer–Heun
    block structure and a signature-only block structure ([Block], ≈2
    bits per element — the space-lean point used by the succinct serving
    backend). The index construction of the paper (Lemma 1) uses the
    succinct variant; the others exist as a testing oracle and
    speed/space ablation points. *)

type kind = Naive | Sparse | Succinct | Block of int

val kind_of_string : string -> kind option
(** Recognises ["naive"], ["sparse"], ["succinct"], ["block"]
    (= [Block 31]) and ["block:N"] for N in [2, 31]. *)

val kind_to_string : kind -> string
val all_kinds : kind list

type t

val build : kind -> float array -> t

val build_oracle : kind -> value:(int -> float) -> len:int -> t
(** Builds over the virtual array [value 0 .. value (len-1)]. The oracle
    is probed O(len) times at construction ([Naive]: never; [Sparse]:
    about [len log len] times) and O(1) times per query, so a costly
    oracle is better materialised into an array for the build and
    re-attached with {!rebind}. *)

val rebind : t -> value:(int -> float) -> t
(** [rebind t ~value] is [t]'s index arrays (shared, not copied) over the
    oracle [value], which must agree with the one [t] was built over at
    every index. It answers every query as [build_oracle] over [value]
    would and {!save_parts} writes the same bytes; it probes [value]
    only at query time, through the same recursion as {!open_parts}.
    Lets a builder run the construction over a plain array of values
    and hand the query path its own oracle with no extra
    indirection. *)

val length : t -> int

val query : t -> l:int -> r:int -> int
(** Leftmost index of the maximum in the inclusive range [\[l, r\]]. *)

val size_words : t -> int

val size_bytes : t -> int
(** Exact bytes of the index arrays in their current representation
    (packed views count at their packed width), excluding the oracle. *)

(** {2 Persistence}

    An RMQ's index arrays (sparse-table rows, Fischer–Heun signatures
    and shared in-block tables, …) serialize into {!Pti_storage}
    sections under a caller-chosen [prefix] and are read back as
    zero-copy views of the mapped file. The value oracle is a closure
    and cannot be persisted: the caller re-supplies it at open time (the
    engine re-attaches oracles over its own mapped probability
    sections). *)

val save_parts : Pti_storage.Writer.t -> prefix:string -> t -> unit

val open_parts :
  Pti_storage.Reader.t -> prefix:string -> value:(int -> float) -> t
(** Raises {!Pti_storage.Corrupt} on missing/damaged sections. The
    reconstructed structure answers queries identically to the one
    saved, provided [value] agrees with the oracle used at build
    time. *)

module Naive_impl : Rmq_intf.S with type t = Rmq_naive.t
module Sparse_impl : Rmq_intf.S with type t = Rmq_sparse.t
module Succinct_impl : Rmq_intf.S with type t = Rmq_succinct.t
