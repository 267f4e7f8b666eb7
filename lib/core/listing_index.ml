module Logp = Pti_prob.Logp
module Ustring = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Transform = Pti_transform.Transform
module S = Pti_storage

type relevance = Rel_max | Rel_or

type t = {
  engine : Engine.t;
  docs : Ustring.t array Lazy.t;
      (* lazy so opening a mapped index does not deserialize the
         document blobs until a caller actually asks for one *)
  n_docs : int;
  relevance : relevance;
}

(* The engine's key function maps original (concatenated) positions to
   document ids; [save] persists it as "listing.doc_of". *)
let doc_map docs =
  let total =
    Array.fold_left (fun acc d -> acc + Ustring.length d) 0 docs
    + Stdlib.max 0 (Array.length docs - 1)
  in
  let doc_of = Array.make total (-1) in
  let off = ref 0 in
  Array.iteri
    (fun k d ->
      if k > 0 then incr off (* separator *);
      for _ = 1 to Ustring.length d do
        doc_of.(!off) <- k;
        incr off
      done)
    docs;
  doc_of

let build ?(rmq_kind = Pti_rmq.Rmq.Succinct) ?(ladder = Engine.Ladder_geometric)
    ?(relevance = Rel_max) ?backend ?domains ?max_text_len ~tau_min docs =
  if docs = [] then invalid_arg "Listing_index.build: empty collection";
  List.iteri
    (fun k d ->
      if Ustring.length d = 0 then
        invalid_arg (Printf.sprintf "Listing_index.build: empty document %d" k))
    docs;
  let concatenated, _ = Ustring.concat ~sep:(Some Sym.separator) docs in
  let docs = Array.of_list docs in
  let doc_of = doc_map docs in
  let tr = Transform.build ?max_text_len ~tau_min concatenated in
  let metric =
    match relevance with Rel_max -> Engine.Max | Rel_or -> Engine.Or_metric
  in
  let config = { Engine.default_config with rmq_kind; ladder; metric } in
  let engine =
    Engine.build ~config ?backend ?domains ~key_of_pos:(fun p -> doc_of.(p)) tr
  in
  { engine; docs = Lazy.from_val docs; n_docs = Array.length docs; relevance }

let n_docs t = t.n_docs
let doc t k = (Lazy.force t.docs).(k)
let query t ~pattern ~tau = Engine.query t.engine ~pattern ~tau
let query_string t ~pattern ~tau = query t ~pattern:(Sym.of_string pattern) ~tau
let count t ~pattern ~tau = Engine.count t.engine ~pattern ~tau
let stream t ~pattern ~tau = Engine.stream t.engine ~pattern ~tau
let query_top_k t ~pattern ~tau ~k = Engine.query_top_k t.engine ~pattern ~tau ~k
let relevance t = t.relevance
let engine t = t.engine
let size_words t = Engine.size_words t.engine
let size_bytes t = Engine.size_bytes t.engine

(* Listing-owned sections of the engine container: the relevance metric
   and document count ("listing.meta"), the original-position → document
   map ("listing.doc_of", read zero-copy to rebuild [key_of_pos]), and
   the documents themselves as a lazily-deserialized blob
   ("listing.docs"). *)
let save ?(extra = fun (_ : S.Writer.t) -> ()) t path =
  let docs = Lazy.force t.docs in
  Engine.save t.engine path ~extra:(fun w ->
      S.Writer.add_bytes w "listing.meta"
        (Marshal.to_string (t.relevance, t.n_docs) []);
      S.Writer.add_ints w "listing.doc_of" (doc_map docs);
      S.Writer.add_bytes w "listing.docs" (Marshal.to_string docs []);
      extra w)

let open_reader r =
  let relevance, n_docs =
    (Marshal.from_string (S.Reader.blob r "listing.meta") 0 : relevance * int)
  in
  let doc_of = S.Reader.ints r "listing.doc_of" in
  let engine = Engine.open_reader ~key_of_pos:(S.Ints.get doc_of) r in
  let docs = lazy (Marshal.from_string (S.Reader.blob r "listing.docs") 0) in
  { engine; docs; n_docs; relevance }

let load ?verify path = open_reader (S.Reader.open_file ?verify path)
