(* Post-run verification of every reply the daemon sent.

   Static containers: each kept digest is compared with the digest of
   the reply body a direct call on the same container files produces
   (floats travel as raw bits, so equal answers are equal bytes).

   Corpus: the answer to a read depends on which inserts and deletes
   had landed, so each read is checked against a monolithic
   [Listing_index] over every document that was ever live, given which
   documents were surely or possibly live during the request. Answers
   across segment layouts are equal only to 1e-9, and a document within
   1e-9 of τ may fall on either side (DESIGN.md §15.3). *)

module P = Pti_server.Protocol
module G = Pti_core.General_index
module L = Pti_core.Listing_index
module Store = Pti_segment.Segment_store
module Logp = Pti_prob.Logp
module Sym = Pti_ustring.Sym

let eps = 1e-9

let hits_of l = List.map (fun (k, p) -> (k, Logp.to_log p)) l

let direct_static ~g ~l = function
  | P.Query { pattern; tau; _ } ->
      P.Hits (hits_of (G.query g ~pattern:(Sym.of_string pattern) ~tau))
  | P.Top_k { pattern; tau; k; _ } ->
      P.Hits (hits_of (G.query_top_k g ~pattern:(Sym.of_string pattern) ~tau ~k))
  | P.Listing { pattern; tau; _ } ->
      P.Hits (hits_of (L.query l ~pattern:(Sym.of_string pattern) ~tau))
  | _ -> invalid_arg "direct_static"

let direct_corpus s = function
  | P.Query { pattern; tau; _ } | P.Listing { pattern; tau; _ } ->
      P.Hits (hits_of (Store.query s ~pattern:(Sym.of_string pattern) ~tau))
  | P.Top_k { pattern; tau; k; _ } ->
      P.Hits (hits_of (Store.query_top_k s ~pattern:(Sym.of_string pattern) ~tau ~k))
  | _ -> invalid_arg "direct_corpus"

(* Number of answered reads whose digest differs from the direct
   answer's. *)
let static_digests ~g ~l (runs : Client.run array) =
  let memo = Hashtbl.create 4096 in
  let bad = ref 0 in
  Array.iter
    (fun (r : Client.run) ->
      Array.iteri
        (fun i op ->
          if r.ok.(i) then begin
            let key = Option.get (Pti_server.Result_cache.key op) in
            let want =
              match Hashtbl.find_opt memo key with
              | Some d -> d
              | None ->
                  let d = Digest.string (P.encode_reply_body (direct_static ~g ~l op)) in
                  Hashtbl.add memo key d;
                  d
            in
            if want <> r.digest.(i) then incr bad
          end)
        r.ops)
    runs;
  !bad

(* ---- corpus ---- *)

type life = {
  ins_sent : int;
  ins_acked : int;
  mutable del_sent : int;  (* max_int when never deleted *)
  mutable del_acked : int;
}

(* Insert and delete acks, with each inserted document's life span.
   Preloaded documents have ids [0, preload); an insert must get an id
   past them that no other insert got, and a delete of the client's own
   live document must ack 1. Returns (lives by id, text index by id,
   bad acks). *)
let corpus_writes ~preload (streams : Spec.step array array)
    (runs : Client.run array) =
  let lives = Hashtbl.create 1024 in
  let text_of = Hashtbl.create 1024 in
  let bad = ref 0 in
  Array.iteri
    (fun c (r : Client.run) ->
      Array.iteri
        (fun i step ->
          match (step, r.ops.(i)) with
          | Spec.Insert j, P.Insert _ when r.ok.(i) ->
              let id = r.ack.(i) in
              if id < preload || Hashtbl.mem lives id then incr bad
              else begin
                Hashtbl.replace lives id
                  { ins_sent = r.t_start.(i); ins_acked = r.t_end.(i);
                    del_sent = max_int; del_acked = max_int };
                Hashtbl.replace text_of id j
              end
          | Spec.Delete_own, P.Delete { doc_id; _ } when r.ok.(i) -> (
              match Hashtbl.find_opt lives doc_id with
              | Some lf when r.ack.(i) = 1 ->
                  lf.del_sent <- r.t_start.(i);
                  lf.del_acked <- r.t_end.(i)
              | _ -> incr bad)
          | _ -> ())
        streams.(c))
    runs;
  (lives, text_of, !bad)

(* Decoded hits of a kept payload, [None] if it does not decode. *)
let hits_of_payload payload =
  match P.decode_reply payload with
  | _, P.Hits hs -> Some hs
  | _ -> None
  | exception _ -> None

let prob lp = exp lp

(* One read: [hs] the daemon's answer, [mono] the monolithic answer as
   (corpus id -> probability), [surely]/[possibly] liveness during the
   request. *)
let read_ok ~tau ~k ~mono ~surely ~possibly hs =
  let sorted =
    let rec go = function
      | (_, a) :: ((_, b) :: _ as tl) -> a >= b && go tl
      | _ -> true
    in
    go hs
  in
  let near_tau p = Float.abs (p -. tau) <= eps in
  let hit_ok (d, lp) =
    possibly d
    &&
    match Hashtbl.find_opt mono d with
    | Some mp -> Float.abs (prob lp -. mp) <= eps
    | None -> near_tau (prob lp)
  in
  let in_h = Hashtbl.create 16 in
  List.iter (fun (d, _) -> Hashtbl.replace in_h d ()) hs;
  let n = List.length hs in
  let min_p = List.fold_left (fun m (_, lp) -> Float.min m (prob lp)) 1.0 hs in
  let missing_ok d mp =
    Hashtbl.mem in_h d || (not (surely d)) || near_tau mp
    || (match k with Some k -> n >= k && mp <= min_p +. eps | None -> false)
  in
  sorted
  && (match k with Some k -> n <= k | None -> true)
  && List.for_all hit_ok hs
  && Hashtbl.fold (fun d mp acc -> acc && missing_ok d mp) mono true

let mono_answer mono ~ids pattern tau =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (i, p) -> Hashtbl.replace t ids.(i) (Logp.to_prob p))
    (L.query mono ~pattern:(Sym.of_string pattern) ~tau);
  t

let corpus_reads ~preload ~lives ~mono ~ids (runs : Client.run array) =
  let bad = ref 0 in
  Array.iter
    (fun (r : Client.run) ->
      Array.iteri
        (fun i op ->
          let check pattern tau k =
            if r.ok.(i) then begin
              let a = r.t_start.(i) and b = r.t_end.(i) in
              let surely d =
                d < preload
                ||
                match Hashtbl.find_opt lives d with
                | Some lf -> lf.ins_acked < a && lf.del_sent > b
                | None -> false
              in
              let possibly d =
                d < preload
                ||
                match Hashtbl.find_opt lives d with
                | Some lf -> lf.ins_sent < b && lf.del_acked >= a
                | None -> false
              in
              let ok =
                match hits_of_payload r.kept.(i) with
                | None -> false
                | Some hs ->
                    read_ok ~tau ~k ~mono:(mono_answer mono ~ids pattern tau)
                      ~surely ~possibly hs
              in
              if not ok then incr bad
            end
          in
          match op with
          | P.Listing { pattern; tau; _ } | P.Query { pattern; tau; _ } ->
              check pattern tau None
          | P.Top_k { pattern; tau; k; _ } -> check pattern tau (Some k)
          | _ -> ())
        r.ops)
    runs;
  !bad

(* Final probes: each wire answer must be byte-identical to a
   read-only open of the directory, and match the monolithic index
   over the live documents within the §15.3 rule. Returns the number
   of failing probes. *)
let corpus_probes ~dir ~mono ~ids ~live_end (probes : (P.op * string) list) =
  let s = Store.open_dir ~read_only:true dir in
  let live = Hashtbl.create 1024 in
  List.iter (fun d -> Hashtbl.replace live d ()) live_end;
  List.fold_left
    (fun bad (op, body) ->
      let direct = P.encode_reply_body (direct_corpus s op) in
      let ok =
        direct = body
        &&
        let payload = String.make 1 (Char.chr Client.tag_hits) ^ "\000\000\000\000" ^ body in
        match (op, hits_of_payload payload) with
        | P.Listing { pattern; tau; _ }, Some hs ->
            let m = mono_answer mono ~ids pattern tau in
            Hashtbl.filter_map_inplace
              (fun d p -> if Hashtbl.mem live d then Some p else None) m;
            read_ok ~tau ~k:None ~mono:m ~surely:(Hashtbl.mem live)
              ~possibly:(Hashtbl.mem live) hs
        | _ -> false
      in
      if ok then bad else bad + 1)
    0 probes
