(* Workloads, their seeded inputs and their seeded request streams.

   Everything here is a pure function of (workload, seed, size): the
   daemon run and the traced replay both draw from [streams], so they
   see the same requests. *)

module P = Pti_server.Protocol
module U = Pti_ustring.Ustring
module Sym = Pti_ustring.Sym
module Q = Pti_workload.Querygen
module D = Pti_workload.Dataset

type kind = Static_fresh | Static_hot | Corpus_churn

type workload = {
  name : string;
  kind : kind;
  n : int;  (** Positions generated (the paper's n). *)
  tau : float;  (** Query threshold. *)
  nominal_rps : float;
      (** Sizes the fixed request count: a run sends
          [seconds * nominal_rps] requests whatever the speed, so cache
          fill, seals and RSS do not depend on how fast the code is. *)
}

let theta = 0.3
let tau_min = 0.1
let clients = 2
let top_k = 10
let memtable_max = 64

(* pti serve's default, passed explicitly: the daemon cannot report it,
   so the recorded value is the one in force. *)
let compact_interval_ms = 50
let hot_pool = 64

(* Every request before this share of a client's stream is warm-up:
   sent, checked and counted in attempted/failed, but left out of
   latency and throughput. *)
let warmup_share = 0.1

let workloads =
  [
    { name = "static-fresh"; kind = Static_fresh; n = 50_000; tau = 0.2;
      nominal_rps = 27_000. };
    { name = "static-hot"; kind = Static_hot; n = 50_000; tau = 0.15;
      nominal_rps = 33_000. };
    { name = "corpus-churn"; kind = Corpus_churn; n = 100_000; tau = 0.2;
      nominal_rps = 300. };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type inputs = {
  single : U.t;  (** The collection concatenated: general-index input
                     and the source patterns are drawn from. *)
  docs : U.t array;
  texts : string array;  (** [U.to_text] of each document. *)
}

(* The collection is the same for every run (the generator and seed
   [pti gen] defaults to); --seed drives the request streams. A
   seed-dependent collection only adds data-to-data variance to the
   run-to-run spread the bounds must cover. *)
let dataset_seed = 42

let make_inputs ~n =
  let params = { (D.default ~total:n ~theta) with seed = dataset_seed } in
  let coll = D.collection params in
  {
    single = fst (U.concat ~sep:None coll);
    docs = Array.of_list coll;
    texts = Array.of_list (List.map U.to_text coll);
  }

(* The corpus is bulk-loaded with the first half of the collection;
   the second half is held back for [Insert] requests. *)
let preload_count inp = Array.length inp.docs / 2

type step =
  | Read of P.op
  | Insert of int  (** Index of a held-back document in [inputs.docs]. *)
  | Delete_own  (** Delete this client's oldest live inserted document. *)

type cls = Search | Listing | Write

let cls_of_step kind = function
  | Insert _ | Delete_own -> Write
  | Read (P.Query _ | P.Top_k _) when kind <> Corpus_churn -> Search
  | Read _ -> Listing

let cls_name = function
  | Search -> "search" | Listing -> "listing" | Write -> "write"

let requests_per_client w ~seconds =
  max 20 (int_of_float (Float.round (float_of_int seconds *. w.nominal_rps
                                     /. float_of_int clients)))

let draw rng src m = Sym.to_string (Q.pattern rng src ~m)

(* Query 8 : top-k 1 : listing 1 on the static pair (general index 0,
   listing index 1). *)
let static_op w rng pattern =
  match Random.State.int rng 10 with
  | 8 -> P.Top_k { index = 0; pattern; tau = w.tau; k = top_k }
  | 9 -> P.Listing { index = 1; pattern; tau = w.tau }
  | _ -> P.Query { index = 0; pattern; tau = w.tau }

let streams w inp ~seed ~per_client =
  let src = inp.single in
  let pool =
    lazy
      (let rng = Q.state ~seed ~stream:clients () in
       Array.init hot_pool (fun i -> draw rng src (if i mod 2 = 0 then 3 else 6)))
  in
  Array.init clients (fun c ->
      let rng = Q.state ~seed ~stream:c () in
      match w.kind with
      | Static_fresh ->
          Array.init per_client (fun _ ->
              (* lengths 4 and 8, plus a minority of 24 > ceil(log2 N)
                 so the blocking-ladder path runs *)
              let m =
                match Random.State.int rng 20 with
                | r when r < 9 -> 4
                | r when r < 18 -> 8
                | _ -> 24
              in
              Read (static_op w rng (draw rng src m)))
      | Static_hot ->
          let pool = Lazy.force pool in
          Array.init per_client (fun _ ->
              Read (static_op w rng pool.(Random.State.int rng hot_pool)))
      | Corpus_churn ->
          (* every tenth request writes, four inserts then one delete,
             so every seed makes the same number of each (with a random
             count the memtable rebuilds they cause dominate the
             run-to-run spread) and the memtable fills and seals several
             times a run. Inserts take this client's share of the
             held-back documents; deletes remove its own oldest live
             one, sealed or not. *)
          let next = ref (preload_count inp + c) in
          let read () =
            let pattern = draw rng src (if Random.State.bool rng then 4 else 8) in
            if Random.State.int rng 9 = 0 then
              Read (P.Top_k { index = 0; pattern; tau = w.tau; k = top_k })
            else Read (P.Listing { index = 0; pattern; tau = w.tau })
          in
          Array.init per_client (fun i ->
              let r = read () in
              if i mod 10 <> 9 then r
              else if i / 10 mod 5 = 4 then Delete_own
              else if !next < Array.length inp.docs then begin
                let j = !next in
                next := j + clients;
                Insert j
              end
              else r))

(* Seeded probe patterns for the post-run corpus check. *)
let probes w inp ~seed =
  let rng = Q.state ~seed ~stream:(clients + 1) () in
  List.init 200 (fun i ->
      let pattern = draw rng inp.single (if i mod 2 = 0 then 4 else 8) in
      P.Listing { index = 0; pattern; tau = w.tau })
