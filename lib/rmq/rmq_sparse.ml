(** Sparse-table RMQ: O(n log n) words, O(1) query. The table stores
    argmax indices; the value oracle is consulted once per query to merge
    the two overlapping windows (and O(n log n) times at build).

    The table rows are concatenated into one flat storage array so a
    built structure can be persisted as a single section and an opened
    one reads straight out of the mapped file; the row offsets are a
    tiny heap array recomputed from [len]. *)

module S = Pti_storage

type t = {
  flat : S.ints; (* rows concatenated; row k entry i = leftmost argmax of [i, i + 2^k) *)
  offsets : int array; (* levels + 1 entries; row k starts at offsets.(k) *)
  value : int -> float;
  len : int;
}

let floor_log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Row k has max (len - 2^k + 1) 0 entries; levels = floor_log2 len + 1. *)
let row_offsets len =
  if len = 0 then [| 0 |]
  else begin
    let levels = floor_log2 len + 1 in
    let offsets = Array.make (levels + 1) 0 in
    for k = 0 to levels - 1 do
      let m = Stdlib.max (len - (1 lsl k) + 1) 0 in
      offsets.(k + 1) <- offsets.(k) + m
    done;
    offsets
  end

let build_oracle ~value ~len =
  let offsets = row_offsets len in
  let levels = Array.length offsets - 1 in
  let flat = S.Ints.create offsets.(levels) in
  if len > 0 then begin
    for i = 0 to len - 1 do
      S.Ints.set flat i i
    done;
    for k = 1 to levels - 1 do
      let width = 1 lsl k in
      let m = len - width + 1 in
      let prev = offsets.(k - 1) and cur = offsets.(k) in
      for i = 0 to m - 1 do
        let a = S.Ints.get flat (prev + i)
        and b = S.Ints.get flat (prev + i + (width lsr 1)) in
        (* strict [>] keeps the leftmost argmax on ties *)
        S.Ints.set flat (cur + i) (if value b > value a then b else a)
      done
    done
  end;
  { flat; offsets; value; len }

let rebind t ~value = { t with value }

let build a =
  let a = Array.copy a in
  build_oracle ~value:(fun i -> a.(i)) ~len:(Array.length a)

let length t = t.len

let query t ~l ~r =
  if l < 0 || r >= t.len || l > r then
    invalid_arg
      (Printf.sprintf "Rmq_sparse.query: [%d,%d] not in [0,%d)" l r t.len);
  let k = floor_log2 (r - l + 1) in
  let row = t.offsets.(k) in
  let a = S.Ints.get t.flat (row + l)
  and b = S.Ints.get t.flat (row + r - (1 lsl k) + 1) in
  if a = b then a
  else begin
    let va = t.value a and vb = t.value b in
    if vb > va then b else if va > vb then a else Stdlib.min a b
  end

let size_words t = S.Ints.length t.flat + Array.length t.offsets + 3
let size_bytes t = S.Ints.byte_size t.flat + (8 * Array.length t.offsets) + 24

let save_parts w ~prefix t = S.Writer.add_ints_ba w (prefix ^ ".flat") t.flat

let open_parts r ~prefix ~value ~len =
  let flat = S.Reader.ints r (prefix ^ ".flat") in
  let offsets = row_offsets len in
  if S.Ints.length flat <> offsets.(Array.length offsets - 1) then
    raise
      (S.Corrupt
         {
           section = prefix ^ ".flat";
           reason =
             Printf.sprintf "sparse table has %d entries, expected %d for len %d"
               (S.Ints.length flat)
               offsets.(Array.length offsets - 1)
               len;
         });
  { flat; offsets; value; len }
