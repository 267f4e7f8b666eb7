module Logp = Pti_prob.Logp
module Par = Pti_parallel
module Rmq = Pti_rmq.Rmq
module Sais = Pti_suffix.Sais
module Lcp = Pti_suffix.Lcp
module Sa_search = Pti_suffix.Sa_search
module Transform = Pti_transform.Transform
module Sym = Pti_ustring.Sym
module S = Pti_storage

type ladder = Ladder_geometric | Ladder_full | Ladder_none
type metric = Max | Or_metric
type range_search = Rs_binary | Rs_fm | Rs_tree

type config = {
  rmq_kind : Rmq.kind;
  ladder : ladder;
  metric : metric;
  range_search : range_search;
}

let default_config =
  {
    rmq_kind = Rmq.Succinct;
    ladder = Ladder_geometric;
    metric = Max;
    range_search = Rs_binary;
  }

(* Which persisted layout the engine targets. [Packed] keeps every
   construction artefact; [Succinct] trades a little query latency for
   space — signature-only block RMQs, FM-index range search, and the
   redundant lcp / raw-log sections dropped from the container. *)
type backend = Packed | Succinct

let backend_to_string = function Packed -> "packed" | Succinct -> "succinct"

let backend_of_string = function
  | "packed" -> Some Packed
  | "succinct" -> Some Succinct
  | _ -> None

(* Config overrides implied by a backend; metric/ladder choices are
   orthogonal and kept. *)
let backend_config backend cfg =
  match backend with
  | Packed -> cfg
  | Succinct ->
      { cfg with rmq_kind = Rmq.Block Pti_rmq.Rmq_block.max_block; range_search = Rs_fm }

(* Max-heap of (priority, a, b, c) used for reporting in non-increasing
   probability order. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable payload : (int * int * int) array;
    mutable len : int;
  }

  let create () = { keys = Array.make 64 0.0; payload = Array.make 64 (0, 0, 0); len = 0 }

  let swap h i j =
    let k = h.keys.(i) in
    h.keys.(i) <- h.keys.(j);
    h.keys.(j) <- k;
    let p = h.payload.(i) in
    h.payload.(i) <- h.payload.(j);
    h.payload.(j) <- p

  let push h key payload =
    if h.len = Array.length h.keys then begin
      let nk = Array.make (2 * h.len) 0.0 in
      let np = Array.make (2 * h.len) (0, 0, 0) in
      Array.blit h.keys 0 nk 0 h.len;
      Array.blit h.payload 0 np 0 h.len;
      h.keys <- nk;
      h.payload <- np
    end;
    h.keys.(h.len) <- key;
    h.payload.(h.len) <- payload;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.keys.((!i - 1) / 2) < h.keys.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let key = h.keys.(0) and payload = h.payload.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.keys.(0) <- h.keys.(h.len);
        h.payload.(0) <- h.payload.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let best = ref !i in
          if l < h.len && h.keys.(l) > h.keys.(!best) then best := l;
          if r < h.len && h.keys.(r) > h.keys.(!best) then best := r;
          if !best = !i then continue := false
          else begin
            swap h !i !best;
            i := !best
          end
        done
      end;
      Some (key, payload)
    end
end

(* Every array the query path reads is a storage view: heap-backed right
   after [build], a section of the mapped index file after [load]. One
   code path, zero per-access allocation either way, and a mapped engine
   shares its pages with every domain and OS process serving the same
   file. *)
type t = {
  tr : Transform.t;
  cfg : config;
  backend : backend;
  key_of_pos : int -> int;
  text : S.ints;
  pos : S.ints;
  sa : S.ints;
  lcp : S.ints;
  n : int;
  max_short : int;
  dead : S.Bits.t array; (* Max metric: per level, bit set = suppressed slot *)
  stored : S.floats array; (* Or metric: per level, metric value per slot *)
  level_rmq : Rmq.t array;
  ladder_sizes : int array;
  ladder_rmq : Rmq.t array;
  ladder_max : S.floats array;
  fm : Pti_succinct.Fm_index.t option;
  st : Pti_suffix.Suffix_tree.t option;
}

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

(* Exact (correlation-corrected) log probability of the length-[len]
   window at suffix-array slot [j]; -inf when the window leaves the
   factor (crosses a separator or the text end). *)
let slot_value_raw ~tr ~pos ~sa ~n j len =
  let a = S.Ints.get sa j in
  if a + len > n then neg_infinity
  else begin
    let p = S.Ints.get pos a in
    if p < 0 || S.Ints.get pos (a + len - 1) <> p + len - 1 then neg_infinity
    else Logp.to_log (Transform.window_logp_corrected tr ~pos:a ~len)
  end

let bit_set b j =
  Bytes.set b (j lsr 3)
    (Char.chr (Char.code (Bytes.get b (j lsr 3)) lor (1 lsl (j land 7))))

(* OR metric over a key's distinct positions: sum - product, clamped to
   [0, 1] (§6; see Oracle.relevance_or). Input: list of (pos, log p).
   Summed in ascending position order: the callers collect entries in
   hash tables whose iteration order follows global text positions, so
   any other order would make a document's relevance depend on which
   documents share its container. *)
let or_value entries =
  let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  let sum = ref 0.0 and prod = ref 1.0 in
  List.iter
    (fun (_, l) ->
      let p = exp l in
      sum := !sum +. p;
      prod := !prod *. p)
    entries;
  let v = Float.max 0.0 (Float.min 1.0 (!sum -. !prod)) in
  if v <= 0.0 then neg_infinity else Float.min 0.0 (log v)

(* Record position [p]'s value for the OR metric. Overlapping factors
   can hold the same window at several slots, whose factor-local sums
   may differ in the last bit; keeping the maximum makes the entry
   independent of the slots' suffix-array order. *)
let or_entry h p v =
  match Hashtbl.find_opt h p with
  | Some u when u >= v -> ()
  | _ -> Hashtbl.replace h p v

(* The level-[level] metric value of suffix-array slot [j]: what the
   per-level RMQs index. Shared between construction and mmap reopen so
   both paths attach the same oracle. *)
let make_level_value ~metric ~dead ~stored ~slot_value level j =
  match metric with
  | Max ->
      if S.Bits.get dead.(level - 1) j then neg_infinity else slot_value j level
  | Or_metric -> S.Floats.get stored.(level - 1) j

(* [w.{a}] <- the log probability of the length-[len] window at text
   position [a], for every [a]: bit for bit [slot_value_raw] of the slot
   whose suffix starts at [a] (same factor predicate; without
   correlations, [Parray.window]'s arithmetic on [cum]/[zeros]), but
   read in text order instead of through the suffix array. *)
let fill_windows ~tr ~pos ~cum ~zeros len w =
  let n = Array.length pos in
  let corr = Transform.has_correlations tr in
  for a = 0 to n - 1 do
    w.{a} <-
      (if a + len > n then neg_infinity
       else begin
         let p = pos.(a) in
         if p < 0 || pos.(a + len - 1) <> p + len - 1 then neg_infinity
         else if corr then
           Logp.to_log (Transform.window_logp_corrected tr ~pos:a ~len)
         else if S.Ints.unsafe_get zeros (a + len) - S.Ints.unsafe_get zeros a > 0
         then neg_infinity
         else
           Float.min 0.0
             (S.Floats.unsafe_get cum (a + len) -. S.Floats.unsafe_get cum a)
       end)
  done

(* Per-domain construction scratch, reused across levels: window values
   by text position and by slot (outside the OCaml heap, so they do not
   scale the GC's heap growth and the build's peak RSS), and per-key
   dedup state indexed by key. [stamp.(key) = group] marks [best.(key)]
   as belonging to the current lcp-group, so nothing is cleared between
   groups; an OR key's [occ] table is reset when the key is first seen
   in a group. *)
type scratch = {
  w : S.floats;
  vs : S.floats;
  stamp : int array;
  best : int array;
  mutable group : int;
  occ : (int, float) Hashtbl.t array; (* OR: key's positions -> log p *)
}

let build ?(config = default_config) ?(backend = Packed) ?domains ~key_of_pos
    tr =
  let config = backend_config backend config in
  let text = Transform.text tr in
  let pos = Transform.pos tr in
  let n = Array.length text in
  let sa = Sais.suffix_array text in
  let lcp = Lcp.kasai ~text ~sa in
  let fm =
    match config.range_search with
    | Rs_fm -> Some (Pti_succinct.Fm_index.create ~sa text)
    | Rs_binary | Rs_tree -> None
  in
  let st =
    match config.range_search with
    | Rs_tree -> Some (Pti_suffix.Suffix_tree.build ~sa ~lcp ~text_len:n)
    | Rs_binary | Rs_fm -> None
  in
  (* From here on [sa] and [lcp] are read from their storage views, so
     the heap copies (and [text]) are garbage before the level tasks
     allocate their scratch. *)
  let sa = Bigarray.(Array1.of_array int c_layout sa) in
  let lcp = Bigarray.(Array1.of_array int c_layout lcp) in
  let max_short = Stdlib.max 1 (ceil_log2 (Stdlib.max 2 n)) in
  let sa_s = S.I64 sa in
  let pos_s = Transform.pos_storage tr in
  let cum, zeros, _ = Pti_prob.Parray.raw (Transform.parray tr) in
  let slot_value j len = slot_value_raw ~tr ~pos:pos_s ~sa:sa_s ~n j len in
  let n_keys =
    Array.fold_left
      (fun m p -> if p < 0 then m else Stdlib.max m (key_of_pos p + 1))
      0 pos
  in
  let n_levels = max_short in
  (* Blocking ladder for long patterns. *)
  let ladder_sizes =
    match config.ladder with
    | Ladder_none -> [||]
    | Ladder_geometric ->
        let rec go acc s = if s > n then List.rev acc else go (s :: acc) (2 * s) in
        Array.of_list (go [] (max_short + 1))
    | Ladder_full ->
        if n > 1 lsl 14 then
          invalid_arg
            "Engine.build: Ladder_full is quadratic; refusing n > 16384";
        Array.init (Stdlib.max 0 (n - max_short)) (fun k -> max_short + 1 + k)
  in
  let n_ladder = Array.length ladder_sizes in
  let is_or = match config.metric with Or_metric -> true | Max -> false in
  let dead = Array.make n_levels (S.Bits.of_bytes Bytes.empty) in
  let stored =
    match config.metric with
    | Max -> [||]
    | Or_metric -> Array.make n_levels (S.Floats.of_array [||])
  in
  let level_value =
    make_level_value ~metric:config.metric ~dead ~stored ~slot_value
  in
  let level_rmq = Array.make n_levels None in
  let ladder_max = Array.make n_ladder (S.Floats.of_array [||]) in
  let ladder_rmq = Array.make n_ladder None in
  (* Level [level]: one position-order pass fills the window values;
     one sweep over each depth-[level] lcp-group keeps one
     representative slot per key (Algorithm 3's duplicate elimination
     in C_i: the leftmost slot of maximal value); the level RMQ is built
     over the surviving values by slot, then rebound to [level_value],
     the oracle queries read. *)
  let build_level sc level =
    let { w; vs; stamp; best; occ; _ } = sc in
    fill_windows ~tr ~pos ~cum ~zeros level w;
    let dl = Bytes.make ((n + 7) / 8) '\000' in
    if is_or then begin
      let st = Bigarray.(Array1.create float64 c_layout n) in
      Bigarray.Array1.fill st neg_infinity;
      stored.(level - 1) <- st
    end;
    let j = ref 0 in
    while !j < n do
      let g0 = !j in
      let g1 = ref (g0 + 1) in
      while !g1 < n && lcp.{!g1} >= level do
        incr g1
      done;
      sc.group <- sc.group + 1;
      let g = sc.group in
      for s = g0 to !g1 - 1 do
        let a = sa.{s} in
        let v = w.{a} in
        vs.{s} <- v;
        if v = neg_infinity then bit_set dl s
        else begin
          let key = key_of_pos pos.(a) in
          if stamp.(key) <> g then begin
            stamp.(key) <- g;
            best.(key) <- s;
            if is_or then Hashtbl.reset occ.(key)
          end
          else begin
            let b = best.(key) in
            let keep_new = v > vs.{b} in
            if keep_new then best.(key) <- s;
            if not is_or then begin
              let loser = if keep_new then b else s in
              bit_set dl loser;
              vs.{loser} <- neg_infinity
            end
          end;
          if is_or then or_entry occ.(key) pos.(a) v
        end
      done;
      (* OR: per key, combine over the key's distinct positions and
         store the result at the representative slot *)
      if is_or then
        for s = g0 to !g1 - 1 do
          let key = if vs.{s} = neg_infinity then -1 else key_of_pos pos.(sa.{s}) in
          if key >= 0 && best.(key) = s then
            stored.(level - 1).{s} <-
              or_value (Hashtbl.fold (fun p l acc -> (p, l) :: acc) occ.(key) [])
        done;
      j := !g1
    done;
    dead.(level - 1) <- S.Bits.of_bytes dl;
    let value = S.Floats.get (if is_or then stored.(level - 1) else vs) in
    let rmq = Rmq.build_oracle config.rmq_kind ~value ~len:n in
    level_rmq.(level - 1) <- Some (Rmq.rebind rmq ~value:(level_value level))
  in
  (* Ladder size [s]: the maximum window value of each block of [s]
     consecutive slots, and an RMQ over those maxima. *)
  let build_ladder sc i =
    let s = ladder_sizes.(i) in
    fill_windows ~tr ~pos ~cum ~zeros s sc.w;
    let pb =
      S.Floats.of_array
        (Array.init ((n + s - 1) / s) (fun k ->
             let mx = ref neg_infinity in
             for j = k * s to Stdlib.min n ((k + 1) * s) - 1 do
               let v = sc.w.{sa.{j}} in
               if v > !mx then mx := v
             done;
             !mx))
    in
    ladder_max.(i) <- pb;
    ladder_rmq.(i) <-
      Some
        (Rmq.build_oracle config.rmq_kind ~value:(S.Floats.get pb)
           ~len:(S.Floats.length pb))
  in
  (* Levels and ladder sizes are mutually independent — each reads only
     shared immutable data (sa, lcp, pos, the transform) and writes only
     its own slots of the result arrays — so they are sharded across the
     domain pool, one task each, on per-domain scratch. *)
  Par.parallel_for_init ?domains ~chunk:1 ~start:1 ~finish:(n_levels + n_ladder)
    ~init:(fun () ->
      {
        w = Bigarray.(Array1.create float64 c_layout n);
        vs = Bigarray.(Array1.create float64 c_layout n);
        stamp = Array.make n_keys (-1);
        best = Array.make n_keys 0;
        group = -1;
        occ = Array.init (if is_or then n_keys else 0) (fun _ -> Hashtbl.create 1);
      })
    (fun sc task ->
      if task <= n_levels then build_level sc task
      else build_ladder sc (task - n_levels - 1));
  let level_rmq = Array.map Option.get level_rmq in
  let ladder_rmq = Array.map Option.get ladder_rmq in
  {
    tr;
    cfg = config;
    backend;
    key_of_pos;
    text = Transform.text_storage tr;
    pos = pos_s;
    sa = sa_s;
    lcp = S.I64 lcp;
    n;
    max_short;
    dead;
    stored;
    level_rmq;
    ladder_sizes;
    ladder_rmq;
    ladder_max;
    fm;
    st;
  }

let transform t = t.tr
let config t = t.cfg
let backend t = t.backend
let max_short t = t.max_short

let slot_value t j len = slot_value_raw ~tr:t.tr ~pos:t.pos ~sa:t.sa ~n:t.n j len

let level_value t level j =
  make_level_value ~metric:t.cfg.metric ~dead:t.dead ~stored:t.stored
    ~slot_value:(slot_value t) level j

let validate_pattern pattern =
  if Array.length pattern = 0 then invalid_arg "Engine.query: empty pattern";
  Array.iter
    (fun s ->
      if s = Sym.separator then
        invalid_arg "Engine.query: pattern contains the separator symbol")
    pattern

let raw_range t pattern =
  match (t.fm, t.st) with
  | Some fm, _ -> Pti_succinct.Fm_index.range fm ~pattern
  | _, Some st -> Pti_suffix.Suffix_tree.locus_storage st ~text:t.text ~pattern
  | None, None -> Sa_search.Ba.range ~text:t.text ~sa:t.sa ~pattern

let suffix_range t ~pattern =
  validate_pattern pattern;
  raw_range t pattern

(* Report every live slot of the single depth-m group [l, r] whose level
   value exceeds ltau, in non-increasing value order, via iterative
   range-maximum extraction (Algorithm 2 / Algorithm 4). Produced as a
   lazy sequence so top-k consumption stops after k extractions. *)
let short_stream t ~level ~l ~r ~ltau =
  let rmq = t.level_rmq.(level - 1) in
  let heap = Heap.create () in
  let seed l r =
    if l <= r then begin
      let mx = Rmq.query rmq ~l ~r in
      let v = level_value t level mx in
      if v > ltau then Heap.push heap v (mx, l, r)
    end
  in
  seed l r;
  let rec next () =
    match Heap.pop heap with
    | None -> Seq.Nil
    | Some (v, (mx, l, r)) ->
        let key = t.key_of_pos (S.Ints.get t.pos (S.Ints.get t.sa mx)) in
        seed l (mx - 1);
        seed (mx + 1) r;
        Seq.Cons ((key, Logp.of_log (Float.min 0.0 v)), next)
  in
  next

let short_query t ~level ~l ~r ~ltau =
  List.of_seq (short_stream t ~level ~l ~r ~ltau)

(* Long patterns, Max metric: block filtering with the largest ladder
   size <= m (upper-bound filter since window probability is
   non-increasing in length), then exact per-slot verification and
   per-key aggregation. *)
let long_query_blocks t ~m ~l ~r ~ltau =
  let li =
    let best = ref (-1) in
    Array.iteri (fun i s -> if s <= m then best := i) t.ladder_sizes;
    !best
  in
  let candidates = Hashtbl.create 64 in
  let add_candidate j =
    let v = slot_value t j m in
    if v > ltau then begin
      let key = t.key_of_pos (S.Ints.get t.pos (S.Ints.get t.sa j)) in
      match Hashtbl.find_opt candidates key with
      | Some bv when bv >= v -> ()
      | _ -> Hashtbl.replace candidates key v
    end
  in
  if li < 0 then
    (* No usable ladder entry: scan the whole range. *)
    for j = l to r do
      add_candidate j
    done
  else begin
    let s = t.ladder_sizes.(li) in
    let rmq = t.ladder_rmq.(li) and pb = t.ladder_max.(li) in
    let bl = l / s and br = r / s in
    let rec go bl br =
      if bl <= br then begin
        let k = Rmq.query rmq ~l:bl ~r:br in
        if S.Floats.get pb k > ltau then begin
          let lo = Stdlib.max l (k * s) and hi = Stdlib.min r (((k + 1) * s) - 1) in
          for j = lo to hi do
            add_candidate j
          done;
          go bl (k - 1);
          go (k + 1) br
        end
      end
    in
    go bl br
  end;
  Hashtbl.fold (fun key v acc -> (key, Logp.of_log (Float.min 0.0 v)) :: acc)
    candidates []
  |> List.sort (fun (_, a) (_, b) -> Logp.compare b a)

(* Long patterns, OR metric: the block filter is unsound for OR (a
   document can clear τ only in combination), so scan the range and
   aggregate per key over distinct positions — the paper's complex-
   metric caveat. *)
let long_query_or t ~m ~l ~r ~ltau =
  let per_key = Hashtbl.create 64 in
  for j = l to r do
    let v = slot_value t j m in
    if v > neg_infinity then begin
      let p = S.Ints.get t.pos (S.Ints.get t.sa j) in
      let key = t.key_of_pos p in
      let positions =
        match Hashtbl.find_opt per_key key with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 8 in
            Hashtbl.replace per_key key h;
            h
      in
      or_entry positions p v
    end
  done;
  Hashtbl.fold
    (fun key positions acc ->
      let entries = Hashtbl.fold (fun p l acc -> (p, l) :: acc) positions [] in
      let v = or_value entries in
      if v > ltau then (key, Logp.of_log (Float.min 0.0 v)) :: acc else acc)
    per_key []
  |> List.sort (fun (_, a) (_, b) -> Logp.compare b a)

let validate_query t ~pattern ~tau =
  validate_pattern pattern;
  let tau_min = Transform.tau_min t.tr in
  if tau < tau_min -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.query: tau=%g below construction tau_min=%g" tau
         tau_min);
  if tau > 1.0 then invalid_arg "Engine.query: tau > 1"

let query t ~pattern ~tau =
  validate_query t ~pattern ~tau;
  match raw_range t pattern with
  | None -> []
  | Some (l, r) ->
      let m = Array.length pattern in
      let ltau = Logp.to_log (Logp.of_prob tau) in
      if m <= t.max_short then short_query t ~level:m ~l ~r ~ltau
      else begin
        match t.cfg.metric with
        | Max -> long_query_blocks t ~m ~l ~r ~ltau
        | Or_metric -> long_query_or t ~m ~l ~r ~ltau
      end

let count t ~pattern ~tau = List.length (query t ~pattern ~tau)

let stream t ~pattern ~tau =
  validate_query t ~pattern ~tau;
  match raw_range t pattern with
  | None -> Seq.empty
  | Some (l, r) ->
      let m = Array.length pattern in
      let ltau = Logp.to_log (Logp.of_prob tau) in
      if m <= t.max_short then short_stream t ~level:m ~l ~r ~ltau
      else begin
        let answers =
          match t.cfg.metric with
          | Max -> long_query_blocks t ~m ~l ~r ~ltau
          | Or_metric -> long_query_or t ~m ~l ~r ~ltau
        in
        List.to_seq answers
      end

let query_top_k t ~pattern ~tau ~k =
  if k < 0 then invalid_arg "Engine.query_top_k: negative k";
  List.of_seq (Seq.take k (stream t ~pattern ~tau))

let size_words t =
  let rmq_words =
    Array.fold_left (fun acc r -> acc + Rmq.size_words r) 0 t.level_rmq
    + Array.fold_left (fun acc r -> acc + Rmq.size_words r) 0 t.ladder_rmq
  in
  (* each dead bitmap is (n+7)/8 bytes, i.e. ceil(bytes/8) words *)
  let dead_words = Array.length t.dead * ((((t.n + 7) / 8) + 7) / 8) in
  let stored_words =
    Array.fold_left (fun acc a -> acc + S.Floats.length a) 0 t.stored
  in
  let ladder_words =
    Array.fold_left (fun acc a -> acc + S.Floats.length a) 0 t.ladder_max
  in
  let fm_words =
    match t.fm with
    | None -> 0
    | Some fm -> Pti_succinct.Fm_index.size_words fm
  in
  let st_words =
    match t.st with
    | None -> 0
    | Some st -> Pti_suffix.Suffix_tree.size_words st
  in
  (2 * t.n) (* sa + lcp *) + rmq_words + dead_words + stored_words
  + ladder_words + fm_words + st_words
  + Transform.size_words t.tr

(* Byte-accurate accounting: packed views count at their packed width.
   The suffix tree remains a heap structure persisted as a Marshal blob;
   its word estimate times 8 stands in for bytes. *)
let size_bytes t =
  let rmq_bytes =
    Array.fold_left (fun acc r -> acc + Rmq.size_bytes r) 0 t.level_rmq
    + Array.fold_left (fun acc r -> acc + Rmq.size_bytes r) 0 t.ladder_rmq
  in
  let dead_bytes =
    Array.fold_left (fun acc b -> acc + S.Bits.byte_length b) 0 t.dead
  in
  let stored_bytes =
    Array.fold_left (fun acc a -> acc + S.Floats.byte_size a) 0 t.stored
  in
  let ladder_bytes =
    Array.fold_left (fun acc a -> acc + S.Floats.byte_size a) 0 t.ladder_max
  in
  let fm_bytes =
    match t.fm with
    | None -> 0
    | Some fm -> Pti_succinct.Fm_index.size_bytes fm
  in
  let st_bytes =
    match t.st with
    | None -> 0
    | Some st -> 8 * Pti_suffix.Suffix_tree.size_words st
  in
  S.Ints.byte_size t.sa + S.Ints.byte_size t.lcp + rmq_bytes + dead_bytes
  + stored_bytes + ladder_bytes + fm_bytes + st_bytes
  + Transform.size_bytes t.tr

let stats t =
  Printf.sprintf
    "engine: N=%d backend=%s levels=%d ladder=[%s] metric=%s rmq=%s size=%d \
     words | %s"
    t.n
    (backend_to_string t.backend)
    t.max_short
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.ladder_sizes)))
    (match t.cfg.metric with Max -> "max" | Or_metric -> "or")
    (Rmq.kind_to_string t.cfg.rmq_kind
    ^
    match t.cfg.range_search with
    | Rs_binary -> ""
    | Rs_fm -> "+fm"
    | Rs_tree -> "+tree")
    (size_words t) (Transform.stats t.tr)

(* ------------------------------------------------------------------ *)
(* Persistence: the PTI-ENGINE-4 container format (minimal-width
   packed sections).

   Every engine array becomes a named section of a {!Pti_storage}
   container; the RMQ index arrays are persisted too, so [load] is a
   page mapping plus oracle re-attachment — no SA-IS, no duplicate
   elimination, no RMQ rebuild. Section order is fixed, so saving the
   same engine always produces byte-identical files (the parallel test
   suite relies on this across domain counts). *)

let backend_tag = function Packed -> 0 | Succinct -> 1

let save_to_writer t w =
  S.Writer.add_bytes w "cfg" (Marshal.to_string t.cfg []);
  S.Writer.add_ints w "meta" [| t.n; t.max_short; backend_tag t.backend |];
  (* the succinct backend drops sections that are pure construction
     artefacts: the LCP array and the raw per-position logs are never
     read on the query path *)
  Transform.save_parts ~with_logs:(t.backend = Packed) w t.tr;
  S.Writer.add_ints_ba w "sa" t.sa;
  (match t.backend with
  | Packed -> S.Writer.add_ints_ba w "lcp" t.lcp
  | Succinct -> ());
  (match t.cfg.metric with
  | Max ->
      Array.iteri
        (fun i b -> S.Writer.add_bits w (Printf.sprintf "dead.%d" (i + 1)) b)
        t.dead
  | Or_metric ->
      Array.iteri
        (fun i a ->
          S.Writer.add_floats_ba w (Printf.sprintf "stored.%d" (i + 1)) a)
        t.stored);
  S.Writer.add_ints w "ladder.sizes" t.ladder_sizes;
  Array.iteri
    (fun i a -> S.Writer.add_floats_ba w (Printf.sprintf "ladder.max.%d" (i + 1)) a)
    t.ladder_max;
  Array.iteri
    (fun i r -> Rmq.save_parts w ~prefix:(Printf.sprintf "rmq.level.%d" (i + 1)) r)
    t.level_rmq;
  Array.iteri
    (fun i r -> Rmq.save_parts w ~prefix:(Printf.sprintf "rmq.ladder.%d" (i + 1)) r)
    t.ladder_rmq;
  (match t.fm with
  | None -> ()
  | Some fm -> Pti_succinct.Fm_index.save_parts w ~prefix:"fm" fm);
  match t.st with
  | None -> ()
  | Some st -> S.Writer.add_bytes w "st" (Marshal.to_string st [])

let save ?extra t path =
  let w = S.Writer.create path in
  save_to_writer t w;
  (match extra with None -> () | Some f -> f w);
  S.Writer.close w

let open_reader ~key_of_pos r =
  let cfg : config = Marshal.from_string (S.Reader.blob r "cfg") 0 in
  let meta = S.Reader.ints r "meta" in
  if S.Ints.length meta <> 3 then
    raise (S.Corrupt { section = "meta"; reason = "engine meta has wrong arity" });
  let n = S.Ints.get meta 0 and max_short = S.Ints.get meta 1 in
  let backend =
    match S.Ints.get meta 2 with
    | 0 -> Packed
    | 1 -> Succinct
    | k ->
        raise
          (S.Corrupt
             { section = "meta"; reason = Printf.sprintf "unknown backend tag %d" k })
  in
  let tr = Transform.open_parts r in
  let text = Transform.text_storage tr in
  let pos = Transform.pos_storage tr in
  if S.Ints.length text <> n then
    raise
      (S.Corrupt
         {
           section = "meta";
           reason =
             Printf.sprintf "text length %d does not match declared N=%d"
               (S.Ints.length text) n;
         });
  let sa = S.Reader.ints r "sa" in
  (* lcp is a construction artefact; succinct containers omit it *)
  let lcp =
    if S.Reader.has r "lcp" then S.Reader.ints r "lcp"
    else S.Ints.of_array [||]
  in
  if S.Ints.length sa <> n || (S.Reader.has r "lcp" && S.Ints.length lcp <> n)
  then
    raise
      (S.Corrupt
         { section = "sa"; reason = "suffix/LCP array length mismatch with N" });
  let dead, stored =
    match cfg.metric with
    | Max ->
        ( Array.init max_short (fun i ->
              S.Reader.bits r (Printf.sprintf "dead.%d" (i + 1))),
          [||] )
    | Or_metric ->
        ( [||],
          Array.init max_short (fun i ->
              S.Reader.floats r (Printf.sprintf "stored.%d" (i + 1))) )
  in
  let ladder_sizes = S.Ints.to_array (S.Reader.ints r "ladder.sizes") in
  let ladder_max =
    Array.init (Array.length ladder_sizes) (fun i ->
        S.Reader.floats r (Printf.sprintf "ladder.max.%d" (i + 1)))
  in
  let slot_value j len = slot_value_raw ~tr ~pos ~sa ~n j len in
  let level_value =
    make_level_value ~metric:cfg.metric ~dead ~stored ~slot_value
  in
  let level_rmq =
    Array.init max_short (fun i ->
        Rmq.open_parts r
          ~prefix:(Printf.sprintf "rmq.level.%d" (i + 1))
          ~value:(level_value (i + 1)))
  in
  let ladder_rmq =
    Array.init (Array.length ladder_sizes) (fun i ->
        Rmq.open_parts r
          ~prefix:(Printf.sprintf "rmq.ladder.%d" (i + 1))
          ~value:(S.Floats.get ladder_max.(i)))
  in
  (* the configured range search owns its sections: a missing one is
     corruption, not a silent fallback to binary search *)
  let fm =
    match cfg.range_search with
    | Rs_fm -> Some (Pti_succinct.Fm_index.open_parts r ~prefix:"fm")
    | Rs_binary | Rs_tree -> None
  in
  let st =
    match cfg.range_search with
    | Rs_tree -> Some (Marshal.from_string (S.Reader.blob r "st") 0)
    | Rs_binary | Rs_fm -> None
  in
  {
    tr;
    cfg;
    backend;
    key_of_pos;
    text;
    pos;
    sa;
    lcp;
    n;
    max_short;
    dead;
    stored;
    level_rmq;
    ladder_sizes;
    ladder_rmq;
    ladder_max;
    fm;
    st;
  }

let load ?verify ~key_of_pos path =
  open_reader ~key_of_pos (S.Reader.open_file ?verify path)
