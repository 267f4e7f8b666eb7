(** Signature-only block RMQ: ≈2 bits per element.

    Blocks of ≤ 31 elements store only the push/pop signature of their
    max-Cartesian tree (one word per block); in-block queries replay the
    signature with a restricted-stack simulation and never touch the
    value oracle. Per-block maxima are indexed recursively (sparse table
    once small). Queries cost two signature replays, one top query and
    O(1) oracle probes to merge candidates — the space-lean point of the
    Fischer–Heun family, used by the succinct serving backend. *)

type t

val max_block : int
(** Largest supported block size (31: signatures must fit one word). *)

val build : ?block:int -> float array -> t
(** [block] defaults to {!max_block}; raises [Invalid_argument] outside
    [2, max_block]. The array is copied and retained as the oracle. *)

val build_oracle : block:int -> value:(int -> float) -> len:int -> t
(** [value] is called O(len) times at construction and O(1) per query. *)

val rebind : t -> value:(int -> float) -> t
(** The same index arrays over another oracle; see {!Rmq.rebind}. *)

val length : t -> int
val block_size : t -> int

val query : t -> l:int -> r:int -> int
(** Leftmost index of the maximum in the inclusive range [\[l, r\]].
    Raises [Invalid_argument] on an empty or out-of-bounds range. *)

val size_words : t -> int
val size_bytes : t -> int

val save_parts : Pti_storage.Writer.t -> prefix:string -> t -> unit
(** Sections under [prefix]: [".meta"] = [\[block; top tag\]], [".sig"]
    per-block signatures, recursion under [".top"]. *)

val open_parts :
  Pti_storage.Reader.t -> prefix:string -> value:(int -> float) -> len:int -> t
(** Zero-copy reopen of {!save_parts} output over the mapped file.
    Raises {!Pti_storage.Corrupt} on missing/damaged sections. *)
