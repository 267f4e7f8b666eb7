(** Prefix-product arrays over log probabilities.

    This is the paper's successive multiplicative probability array [C]:
    [C[j] = pr(c_1) * ... * pr(c_j)], generalised to log space and made
    robust to zero probabilities. The probability of the window
    [\[i, i+len)] is recovered in O(1) as [C[i+len-1] / C[i-1]].

    Positions are 0-indexed throughout. *)

type t

val of_logps : ?restart_after:(int -> bool) -> Logp.t array -> t
(** [of_logps a] preprocesses the per-position log probabilities [a] in
    O(n). Zero probabilities are handled exactly (a window containing a
    zero has probability zero; other windows are unaffected).

    [restart_after i] (default: never) restarts the sums after
    position [i], so a window inside one restart-delimited block gets
    bit-for-bit the value of an array built over that block alone. A
    window containing a restart position is meaningless. Without raw
    logs (see {!of_storage}) {!get} returns probability 1 at a restart
    position (0 if its probability is zero). *)

val of_probs : float array -> t
(** Convenience: probabilities in [0, 1]; validated like
    {!Logp.of_prob}. *)

val length : t -> int

val get : t -> int -> Logp.t
(** [get t i] is the probability of position [i] alone. *)

val window : t -> pos:int -> len:int -> Logp.t
(** [window t ~pos ~len] is the product of positions
    [pos, pos+1, ..., pos+len-1]. Raises [Invalid_argument] if the window
    is not contained in [\[0, length t)] or [len < 1]. *)

val prefix : t -> int -> Logp.t
(** [prefix t j] is the product of positions [0..j-1]; [prefix t 0] is
    {!Logp.one}. Meaningful only on an array built without restarts. *)

val size_bytes : t -> int
(** Exact bytes of the three backing arrays in their current
    representation (packed views count at their packed width). *)

(** {2 Storage backing}

    The internal arrays are {!Pti_storage} views, so a prefix-product
    array can be served zero-copy from a mapped index file; the
    accessors below exist for the persistence layer only. *)

val raw :
  t -> Pti_storage.floats * Pti_storage.ints * Pti_storage.floats option
(** [(cum, zeros, logs)] — the cumulative log sums (length n+1), the
    zero-probability prefix counts (length n+1) and the raw per-position
    log values (length n; [None] when the container dropped them). *)

val of_storage :
  cum:Pti_storage.floats ->
  zeros:Pti_storage.ints ->
  logs:Pti_storage.floats option ->
  t
(** Rebuild from views previously obtained via {!raw} (typically mapped
    from a file). [logs] may be [None] — the succinct backend drops the
    raw log section; {!get} then derives per-position values from
    cumulative differences (exact zeros, float-rounded magnitudes) and
    {!window}/{!prefix} are unaffected. Raises [Invalid_argument] on
    inconsistent lengths. *)
