(** Signature-only block RMQ: ~2 bits per element, the space-lean point
    of the Fischer–Heun family used by the succinct serving backend.

    The array is cut into blocks of at most 31 elements. Each block
    stores {e only} the push/pop signature of its max-Cartesian tree —
    at most 2·31 − 1 = 61 bits, one storage word per block and nothing
    else. An in-block range query is answered by replaying the
    signature: walking the bits while tracking the size of the stack
    restricted to elements ≥ l, whose bottom element after processing r
    is exactly the leftmost maximum of [l, r] (pops are saturating
    because the restricted elements always form a suffix of the
    construction stack). No value access, no shared lookup tables, no
    per-block argmax array — the block argmax is itself decoded from
    the signature on demand.

    Across blocks, per-block maxima are indexed by a recursive instance
    (so the directory above n/31 blocks costs another factor-31 less),
    falling back to a sparse table once small. The value oracle is
    consulted only to merge the ≤ 3 candidate positions of a query and
    for the recursive levels' block maxima. *)

module S = Pti_storage

let max_block = 31 (* 2·31 − 1 signature bits fit one 63-bit word *)

type top = Sparse of Rmq_sparse.t | Recurse of t

and t = {
  value : int -> float;
  len : int;
  block : int;
  sigs : S.ints; (* per block: push/pop signature, LSB first *)
  top : top; (* RMQ over per-block maxima *)
}

(* Push/pop encoding of the max-Cartesian tree of [value base .. value
   (base+len-1)]: strictly smaller stack tops are popped, so equal
   values keep the leftmost element as ancestor, matching the
   leftmost-max rule. Bit k of the result is the k-th event: 1 = push,
   0 = pop. *)
let signature value base len =
  let stack = Array.make (Stdlib.max 1 len) 0.0 in
  let sp = ref 0 in
  let bits = ref 0 in
  let nbits = ref 0 in
  for i = 0 to len - 1 do
    let v = value (base + i) in
    while !sp > 0 && stack.(!sp - 1) < v do
      decr sp;
      incr nbits (* emit 0 *)
    done;
    stack.(!sp) <- v;
    incr sp;
    bits := !bits lor (1 lsl !nbits);
    incr nbits
  done;
  !bits

(* Leftmost argmax of in-block range [l, r] (local offsets), replayed
   from the signature: simulate the construction stack restricted to
   elements >= l — element e pops min(pops_e, restricted size) entries
   (deeper pops hit pre-l elements); whenever the restricted stack
   empties, e becomes its new bottom. The bottom after processing r is
   the leftmost maximum. O(2·block) bit steps, no value access. *)
let decode_bottom sg ~l ~r =
  let sg = ref sg in
  let e = ref (-1) in
  let pops = ref 0 in
  let s = ref 0 in
  let bottom = ref l in
  let steps = ref 0 in
  while !e < r && !steps <= 2 * max_block do
    (if !sg land 1 = 1 then begin
       incr e;
       (if !e = l then s := 1
        else if !e > l then begin
          let q = if !pops < !s then !pops else !s in
          s := !s - q;
          if !s = 0 then bottom := !e;
          incr s
        end);
       pops := 0
     end
     else incr pops);
    sg := !sg lsr 1;
    incr steps
  done;
  if !e < r then invalid_arg "Rmq_block: malformed signature";
  !bottom

let in_block t b ~l ~r = (b * t.block) + decode_bottom (S.Ints.get t.sigs b) ~l ~r

let block_len t b = Stdlib.min t.block (t.len - (b * t.block))

(* Global position of block [b]'s leftmost maximum. *)
let block_argmax t b = in_block t b ~l:0 ~r:(block_len t b - 1)

let sparse_cutoff = 2048

let rec build_oracle ~block ~value ~len =
  if block < 2 || block > max_block then
    invalid_arg
      (Printf.sprintf "Rmq_block: block size %d not in [2,%d]" block max_block);
  let nblocks = if len = 0 then 0 else (len + block - 1) / block in
  let sigs = S.Ints.create nblocks in
  for b = 0 to nblocks - 1 do
    let base = b * block in
    let blen = Stdlib.min block (len - base) in
    S.Ints.set sigs b (signature value base blen)
  done;
  (* bottom layer first; [block_argmax] only touches sigs/block/len, so
     a placeholder top is fine while computing the real one *)
  let t =
    {
      value;
      len;
      block;
      sigs;
      top = Sparse (Rmq_sparse.build_oracle ~value:(fun _ -> 0.0) ~len:0);
    }
  in
  let top_value b = value (block_argmax t b) in
  let top =
    if nblocks <= sparse_cutoff then
      Sparse (Rmq_sparse.build_oracle ~value:top_value ~len:nblocks)
    else Recurse (build_oracle ~block ~value:top_value ~len:nblocks)
  in
  { t with top }

let build ?(block = max_block) a =
  let a = Array.copy a in
  build_oracle ~block ~value:(fun i -> a.(i)) ~len:(Array.length a)

(* Same recursion through [top] as [open_parts]; [block_argmax] reads
   only the signatures, so the old oracle never runs. *)
let rec rebind t ~value =
  let top_value b = value (block_argmax t b) in
  let top =
    match t.top with
    | Sparse s -> Sparse (Rmq_sparse.rebind s ~value:top_value)
    | Recurse s -> Recurse (rebind s ~value:top_value)
  in
  { t with value; top }

let length t = t.len
let block_size t = t.block

let rec query t ~l ~r =
  if l < 0 || r >= t.len || l > r then
    invalid_arg
      (Printf.sprintf "Rmq_block.query: [%d,%d] not in [0,%d)" l r t.len);
  let bl = l / t.block and br = r / t.block in
  if bl = br then in_block t bl ~l:(l mod t.block) ~r:(r mod t.block)
  else begin
    let left = in_block t bl ~l:(l mod t.block) ~r:(t.block - 1) in
    let right = in_block t br ~l:0 ~r:(r mod t.block) in
    let pick a b =
      let va = t.value a and vb = t.value b in
      if vb > va then b else if va > vb then a else Stdlib.min a b
    in
    let best = pick left right in
    if br - bl >= 2 then begin
      let mid_block =
        match t.top with
        | Sparse s -> Rmq_sparse.query s ~l:(bl + 1) ~r:(br - 1)
        | Recurse s -> query s ~l:(bl + 1) ~r:(br - 1)
      in
      pick best (block_argmax t mid_block)
    end
    else best
  end

let rec size_words t =
  let top_words =
    match t.top with
    | Sparse s -> Rmq_sparse.size_words s
    | Recurse s -> size_words s
  in
  S.Ints.length t.sigs + top_words + 4

let rec size_bytes t =
  let top_bytes =
    match t.top with
    | Sparse s -> Rmq_sparse.size_bytes s
    | Recurse s -> size_bytes s
  in
  S.Ints.byte_size t.sigs + top_bytes + 32

(* Sections under [prefix]: ".meta" = [block; top tag], ".sig" the
   per-block signatures, and the top structure under [prefix ^ ".top"]. *)
let rec save_parts w ~prefix t =
  let top_tag = match t.top with Sparse _ -> 0 | Recurse _ -> 1 in
  S.Writer.add_ints w (prefix ^ ".meta") [| t.block; top_tag |];
  S.Writer.add_ints_ba w (prefix ^ ".sig") t.sigs;
  match t.top with
  | Sparse s -> Rmq_sparse.save_parts w ~prefix:(prefix ^ ".top") s
  | Recurse s -> save_parts w ~prefix:(prefix ^ ".top") s

let rec open_parts r ~prefix ~value ~len =
  let fail reason = raise (S.Corrupt { section = prefix ^ ".meta"; reason }) in
  let meta = S.Reader.ints r (prefix ^ ".meta") in
  if S.Ints.length meta <> 2 then fail "block RMQ meta has wrong arity";
  let block = S.Ints.get meta 0 in
  let top_tag = S.Ints.get meta 1 in
  if block < 2 || block > max_block then fail "block RMQ block size out of range";
  let sigs = S.Reader.ints r (prefix ^ ".sig") in
  let nblocks = if len = 0 then 0 else (len + block - 1) / block in
  if S.Ints.length sigs <> nblocks then
    fail
      (Printf.sprintf "block RMQ has %d signatures, expected %d for len %d"
         (S.Ints.length sigs) nblocks len);
  let t =
    {
      value;
      len;
      block;
      sigs;
      top = Sparse (Rmq_sparse.build_oracle ~value:(fun _ -> 0.0) ~len:0);
    }
  in
  let top_value b = value (block_argmax t b) in
  let top =
    match top_tag with
    | 0 ->
        Sparse
          (Rmq_sparse.open_parts r ~prefix:(prefix ^ ".top") ~value:top_value
             ~len:nblocks)
    | 1 ->
        Recurse
          (open_parts r ~prefix:(prefix ^ ".top") ~value:top_value ~len:nblocks)
    | k -> fail (Printf.sprintf "unknown top structure tag %d" k)
  in
  { t with top }
