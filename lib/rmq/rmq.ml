type kind = Naive | Sparse | Succinct | Block of int

let kind_of_string s =
  match s with
  | "naive" -> Some Naive
  | "sparse" -> Some Sparse
  | "succinct" -> Some Succinct
  | "block" -> Some (Block Rmq_block.max_block)
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "block" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some b when b >= 2 && b <= Rmq_block.max_block -> Some (Block b)
          | _ -> None)
      | _ -> None)

let kind_to_string = function
  | Naive -> "naive"
  | Sparse -> "sparse"
  | Succinct -> "succinct"
  | Block b -> Printf.sprintf "block:%d" b

let all_kinds = [ Naive; Sparse; Succinct; Block Rmq_block.max_block ]

type t =
  | N of Rmq_naive.t
  | Sp of Rmq_sparse.t
  | Su of Rmq_succinct.t
  | B of Rmq_block.t

let build kind a =
  match kind with
  | Naive -> N (Rmq_naive.build a)
  | Sparse -> Sp (Rmq_sparse.build a)
  | Succinct -> Su (Rmq_succinct.build a)
  | Block block -> B (Rmq_block.build ~block a)

let build_oracle kind ~value ~len =
  match kind with
  | Naive -> N (Rmq_naive.build_oracle ~value ~len)
  | Sparse -> Sp (Rmq_sparse.build_oracle ~value ~len)
  | Succinct -> Su (Rmq_succinct.build_oracle ~value ~len)
  | Block block -> B (Rmq_block.build_oracle ~block ~value ~len)

let rebind t ~value =
  match t with
  | N t -> N (Rmq_naive.rebind t ~value)
  | Sp t -> Sp (Rmq_sparse.rebind t ~value)
  | Su t -> Su (Rmq_succinct.rebind t ~value)
  | B t -> B (Rmq_block.rebind t ~value)

let length = function
  | N t -> Rmq_naive.length t
  | Sp t -> Rmq_sparse.length t
  | Su t -> Rmq_succinct.length t
  | B t -> Rmq_block.length t

let query t ~l ~r =
  match t with
  | N t -> Rmq_naive.query t ~l ~r
  | Sp t -> Rmq_sparse.query t ~l ~r
  | Su t -> Rmq_succinct.query t ~l ~r
  | B t -> Rmq_block.query t ~l ~r

let size_words = function
  | N t -> Rmq_naive.size_words t
  | Sp t -> Rmq_sparse.size_words t
  | Su t -> Rmq_succinct.size_words t
  | B t -> Rmq_block.size_words t

let size_bytes = function
  | N t -> Rmq_naive.size_bytes t
  | Sp t -> Rmq_sparse.size_bytes t
  | Su t -> Rmq_succinct.size_bytes t
  | B t -> Rmq_block.size_bytes t

(* Persistence: the index arrays go into container sections under
   [prefix]; the value oracle is a closure and is re-attached by the
   caller at open time. [prefix ^ ".kind"] = [kind tag; len]
   (".meta" belongs to the implementations). *)

let save_parts w ~prefix t =
  let tag = match t with N _ -> 0 | Sp _ -> 1 | Su _ -> 2 | B _ -> 3 in
  Pti_storage.Writer.add_ints w (prefix ^ ".kind") [| tag; length t |];
  match t with
  | N n -> Rmq_naive.save_parts w ~prefix n
  | Sp s -> Rmq_sparse.save_parts w ~prefix s
  | Su s -> Rmq_succinct.save_parts w ~prefix s
  | B b -> Rmq_block.save_parts w ~prefix b

let open_parts r ~prefix ~value =
  let module S = Pti_storage in
  let fail reason = raise (S.Corrupt { section = prefix ^ ".kind"; reason }) in
  let meta = S.Reader.ints r (prefix ^ ".kind") in
  if S.Ints.length meta <> 2 then fail "RMQ meta has wrong arity";
  let tag = S.Ints.get meta 0 and len = S.Ints.get meta 1 in
  if len < 0 then fail "negative RMQ length";
  match tag with
  | 0 -> N (Rmq_naive.open_parts r ~prefix ~value ~len)
  | 1 -> Sp (Rmq_sparse.open_parts r ~prefix ~value ~len)
  | 2 -> Su (Rmq_succinct.open_parts r ~prefix ~value ~len)
  | 3 -> B (Rmq_block.open_parts r ~prefix ~value ~len)
  | k -> fail (Printf.sprintf "unknown RMQ kind tag %d" k)

module Naive_impl = Rmq_naive
module Sparse_impl = Rmq_sparse
module Succinct_impl = Rmq_succinct
module Block_impl = Rmq_block
