(** Fischer–Heun style block-decomposition RMQ (the practical form of the
    2n + o(n) bit structure of Lemma 1 in the paper).

    The array is cut into blocks of ~(log n)/2 elements. Each block is
    summarised by the push/pop signature of its (max-)Cartesian tree; all
    blocks sharing a signature share one in-block argmax lookup table, so
    in-block queries never touch the values. Across blocks, the per-block
    argmax positions are themselves indexed by a recursive instance
    (falling back to a sparse table once small enough), so total space is
    O(n) words with tiny constants. The value oracle is consulted only to
    merge the at most three candidate positions of a query.

    Everything except the value oracle lives in storage arrays: the
    shared in-block tables are concatenated (each is exactly
    [block * block] bytes) and addressed by each block's stored table
    offset, so the whole structure persists into container sections and
    is served from the mapped file without rebuilding anything — the
    signature→table hashtable exists only during construction, for
    dedup. *)

module S = Pti_storage

type top = Sparse of Rmq_sparse.t | Recurse of t

and t = {
  value : int -> float;
  len : int;
  block : int; (* block size *)
  tbl_data : S.bytes_view;
  (* concatenated block*block byte matrices, one per distinct
     Cartesian-tree shape; entry l*block+r = in-block argmax of [l, r] *)
  tbl_off : S.ints; (* per block: offset of its shape's matrix in tbl_data *)
  n_tables : int; (* distinct shapes, for space accounting *)
  top : top; (* RMQ over per-block argmax positions *)
  block_argmax : S.ints; (* global position of each block's leftmost max *)
}

let floor_log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Push/pop encoding of the max-Cartesian tree of [value base .. value
   (base+len-1)]: strictly smaller stack tops are popped, so equal values
   keep the leftmost element as ancestor, matching the leftmost-max rule. *)
let signature value base len =
  let stack = Array.make len 0.0 in
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

(* In-block argmax table computed once per distinct (len, signature) from
   a witness block; valid for every block with the same signature because
   argmax positions depend only on the Cartesian tree shape. *)
let append_table buf value base len block =
  (* always a full block*block matrix so tables are addressed by
     constant stride; rows/columns beyond [len] are never read *)
  let tbl = Bytes.make (block * block) '\000' in
  for l = 0 to len - 1 do
    let best = ref l in
    let best_v = ref (value (base + l)) in
    Bytes.set tbl ((l * block) + l) (Char.chr l);
    for r = l + 1 to len - 1 do
      let v = value (base + r) in
      if v > !best_v then begin
        best := r;
        best_v := v
      end;
      Bytes.set tbl ((l * block) + r) (Char.chr !best)
    done
  done;
  Buffer.add_bytes buf tbl

let sparse_cutoff = 4096

let rec build_oracle ~value ~len =
  let block =
    Stdlib.max 4 (Stdlib.min 15 ((floor_log2 (Stdlib.max 2 len) + 1) / 2 + 2))
  in
  let nblocks = if len = 0 then 0 else (len + block - 1) / block in
  let tbl_off = S.Ints.create nblocks in
  let block_argmax = S.Ints.create nblocks in
  let tbl_index = Hashtbl.create 64 in
  let tbl_buf = Buffer.create 4096 in
  let n_tables = ref 0 in
  for b = 0 to nblocks - 1 do
    let base = b * block in
    let blen = Stdlib.min block (len - base) in
    let s = signature value base blen in
    let key = (blen, s) in
    let off =
      match Hashtbl.find_opt tbl_index key with
      | Some off -> off
      | None ->
          let off = Buffer.length tbl_buf in
          append_table tbl_buf value base blen block;
          Hashtbl.replace tbl_index key off;
          incr n_tables;
          off
    in
    S.Ints.set tbl_off b off;
    let local = Char.code (Buffer.nth tbl_buf (off + blen - 1)) in
    S.Ints.set block_argmax b (base + local)
  done;
  let tbl_data = S.Bits.of_bytes (Buffer.to_bytes tbl_buf) in
  let top_value b = value (S.Ints.get block_argmax b) in
  let top =
    if nblocks <= sparse_cutoff then
      Sparse (Rmq_sparse.build_oracle ~value:top_value ~len:nblocks)
    else Recurse (build_oracle ~value:top_value ~len:nblocks)
  in
  {
    value;
    len;
    block;
    tbl_data;
    tbl_off;
    n_tables = !n_tables;
    top;
    block_argmax;
  }

let build a =
  let a = Array.copy a in
  build_oracle ~value:(fun i -> a.(i)) ~len:(Array.length a)

(* Same recursion through [top] as [open_parts]. *)
let rec rebind t ~value =
  let top_value b = value (S.Ints.get t.block_argmax b) in
  let top =
    match t.top with
    | Sparse s -> Sparse (Rmq_sparse.rebind s ~value:top_value)
    | Recurse s -> Recurse (rebind s ~value:top_value)
  in
  { t with value; top }

let length t = t.len

let in_block t b l r =
  (* l, r are in-block offsets within block b; returns global argmax pos *)
  let base = b * t.block in
  let off = S.Ints.get t.tbl_off b in
  base + Bigarray.Array1.get t.tbl_data (off + (l * t.block) + r)

let rec query t ~l ~r =
  if l < 0 || r >= t.len || l > r then
    invalid_arg
      (Printf.sprintf "Rmq_succinct.query: [%d,%d] not in [0,%d)" l r t.len);
  let bl = l / t.block and br = r / t.block in
  if bl = br then in_block t bl (l mod t.block) (r mod t.block)
  else begin
    let left = in_block t bl (l mod t.block) (t.block - 1) in
    let right = in_block t br 0 (r mod t.block) in
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
      pick best (S.Ints.get t.block_argmax mid_block)
    end
    else best
  end

let rec size_words t =
  let table_words = Bigarray.Array1.dim t.tbl_data / 8 in
  let top_words =
    match t.top with
    | Sparse s -> Rmq_sparse.size_words s
    | Recurse s -> size_words s
  in
  S.Ints.length t.tbl_off
  + S.Ints.length t.block_argmax
  + top_words + table_words + 4

let rec size_bytes t =
  let top_bytes =
    match t.top with
    | Sparse s -> Rmq_sparse.size_bytes s
    | Recurse s -> size_bytes s
  in
  S.Ints.byte_size t.tbl_off
  + S.Ints.byte_size t.block_argmax
  + Bigarray.Array1.dim t.tbl_data + top_bytes + 32

(* Sections under [prefix]: ".meta" = [block; n_tables; top tag],
   ".off" and ".bam" int arrays, ".tbl" the concatenated in-block
   matrices, and the top structure under [prefix ^ ".top"]. *)
let rec save_parts w ~prefix t =
  let top_tag = match t.top with Sparse _ -> 0 | Recurse _ -> 1 in
  S.Writer.add_ints w (prefix ^ ".meta") [| t.block; t.n_tables; top_tag |];
  S.Writer.add_ints_ba w (prefix ^ ".off") t.tbl_off;
  S.Writer.add_ints_ba w (prefix ^ ".bam") t.block_argmax;
  S.Writer.add_bits w (prefix ^ ".tbl") t.tbl_data;
  match t.top with
  | Sparse s -> Rmq_sparse.save_parts w ~prefix:(prefix ^ ".top") s
  | Recurse s -> save_parts w ~prefix:(prefix ^ ".top") s

(* O(1) apart from the section lookups: block offsets are read straight
   from the mapped file; a malformed offset can only land inside the
   (bounds-checked) table view and is caught by the section checksums
   anyway. *)
let rec open_parts r ~prefix ~value ~len =
  let fail reason = raise (S.Corrupt { section = prefix ^ ".meta"; reason }) in
  let meta = S.Reader.ints r (prefix ^ ".meta") in
  if S.Ints.length meta <> 3 then fail "succinct RMQ meta has wrong arity";
  let block = S.Ints.get meta 0 in
  let n_tables = S.Ints.get meta 1 in
  let top_tag = S.Ints.get meta 2 in
  if block < 1 || n_tables < 0 then fail "succinct RMQ meta out of range";
  let tbl_off = S.Reader.ints r (prefix ^ ".off") in
  let block_argmax = S.Reader.ints r (prefix ^ ".bam") in
  let tbl_data = S.Reader.bits r (prefix ^ ".tbl") in
  let nblocks = if len = 0 then 0 else (len + block - 1) / block in
  if S.Ints.length tbl_off <> nblocks || S.Ints.length block_argmax <> nblocks
  then fail "succinct RMQ block count mismatch";
  if Bigarray.Array1.dim tbl_data < n_tables * block * block then
    fail "succinct RMQ shared tables truncated";
  let top_value b = value (S.Ints.get block_argmax b) in
  let top =
    match top_tag with
    | 0 ->
        Sparse
          (Rmq_sparse.open_parts r ~prefix:(prefix ^ ".top") ~value:top_value
             ~len:nblocks)
    | 1 -> Recurse (open_parts r ~prefix:(prefix ^ ".top") ~value:top_value ~len:nblocks)
    | k -> fail (Printf.sprintf "unknown top structure tag %d" k)
  in
  { value; len; block; tbl_data; tbl_off; n_tables; top; block_argmax }
