(* Tests for Pti_rmq: the three RMQ implementations must agree with a
   reference scan, return the leftmost maximum, and behave identically
   through the oracle-based constructor. *)

module Rmq = Pti_rmq.Rmq

let reference a l r =
  let best = ref l in
  for i = l + 1 to r do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let all_ranges_agree name kind a =
  let t = Rmq.build kind a in
  let n = Array.length a in
  Alcotest.(check int) (name ^ " length") n (Rmq.length t);
  for l = 0 to n - 1 do
    for r = l to n - 1 do
      let got = Rmq.query t ~l ~r in
      let want = reference a l r in
      if got <> want then
        Alcotest.failf "%s: range [%d,%d] got %d want %d" name l r got want
    done
  done

let test_kind kind () =
  let name = Rmq.kind_to_string kind in
  all_ranges_agree name kind [| 1.0 |];
  all_ranges_agree name kind [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 |];
  all_ranges_agree name kind (Array.init 40 (fun i -> float_of_int (i mod 7)));
  all_ranges_agree name kind (Array.make 33 1.0);
  (* ties everywhere *)
  all_ranges_agree name kind [| 2.0; 2.0; 2.0; 1.0; 2.0; 2.0 |];
  (* strictly decreasing / increasing *)
  all_ranges_agree name kind (Array.init 50 (fun i -> float_of_int (-i)));
  all_ranges_agree name kind (Array.init 50 float_of_int);
  (* with -infinity (dead slots, as used by the index) *)
  all_ranges_agree name kind
    [| neg_infinity; 0.5; neg_infinity; neg_infinity; 0.7; neg_infinity |]

let test_random kind () =
  let name = Rmq.kind_to_string kind in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 60 do
    let n = 1 + Random.State.int rng 200 in
    (* small value universe to exercise ties *)
    let a = Array.init n (fun _ -> float_of_int (Random.State.int rng 8)) in
    let t = Rmq.build kind a in
    for _ = 1 to 100 do
      let l = Random.State.int rng n in
      let r = l + Random.State.int rng (n - l) in
      let got = Rmq.query t ~l ~r in
      let want = reference a l r in
      if got <> want then
        Alcotest.failf "%s random: range [%d,%d] got %d want %d" name l r got
          want
    done
  done

let test_oracle_constructor kind () =
  let a = Array.init 777 (fun i -> sin (float_of_int i)) in
  let t = Rmq.build_oracle kind ~value:(fun i -> a.(i)) ~len:777 in
  let rng = Random.State.make [| 4 |] in
  for _ = 1 to 300 do
    let l = Random.State.int rng 777 in
    let r = l + Random.State.int rng (777 - l) in
    Alcotest.(check int) "oracle query" (reference a l r) (Rmq.query t ~l ~r)
  done

let test_bounds kind () =
  let t = Rmq.build kind [| 1.0; 2.0 |] in
  List.iter
    (fun (l, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "invalid [%d,%d]" l r)
        true
        (try
           ignore (Rmq.query t ~l ~r);
           false
         with Invalid_argument _ -> true))
    [ (-1, 0); (0, 2); (1, 0) ]

let test_kind_strings () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        "roundtrip" true
        (Rmq.kind_of_string (Rmq.kind_to_string k) = Some k))
    Rmq.all_kinds;
  Alcotest.(check bool) "unknown" true (Rmq.kind_of_string "bogus" = None)

let test_size_words () =
  let a = Array.init 4096 (fun i -> float_of_int (i mod 13)) in
  let sparse = Rmq.build Sparse a in
  let succinct = Rmq.build Succinct a in
  let block = Rmq.build (Block 31) a in
  let naive = Rmq.build Naive a in
  Alcotest.(check bool) "naive tiny" true (Rmq.size_words naive < 8);
  Alcotest.(check bool) "succinct smaller than sparse" true
    (Rmq.size_words succinct < Rmq.size_words sparse);
  Alcotest.(check bool) "block smaller than succinct" true
    (Rmq.size_words block < Rmq.size_words succinct)

(* Large instance exercising the succinct structure's recursive top
   level (cutoff 4096 blocks). *)
let test_succinct_large () =
  let n = 300_000 in
  let rng = Random.State.make [| 5 |] in
  let a = Array.init n (fun _ -> Random.State.float rng 1.0) in
  let t = Rmq.build Succinct a in
  for _ = 1 to 500 do
    let l = Random.State.int rng n in
    let r = l + Random.State.int rng (n - l) in
    Alcotest.(check int)
      "succinct large" (reference a l r)
      (Rmq.query t ~l ~r)
  done

(* Large instance exercising the block structure's recursive top level
   (cutoff 2048 blocks): 300k / 31 ≈ 9.7k blocks → one recursion. *)
let test_block_large () =
  let n = 300_000 in
  let rng = Random.State.make [| 6 |] in
  let a = Array.init n (fun _ -> Random.State.float rng 1.0) in
  let t = Rmq.build (Block 31) a in
  for _ = 1 to 500 do
    let l = Random.State.int rng n in
    let r = l + Random.State.int rng (n - l) in
    Alcotest.(check int) "block large" (reference a l r) (Rmq.query t ~l ~r)
  done

let test_block_strings () =
  Alcotest.(check bool)
    "block defaults to 31" true
    (Rmq.kind_of_string "block" = Some (Rmq.Block 31));
  Alcotest.(check bool)
    "block:4 parses" true
    (Rmq.kind_of_string "block:4" = Some (Rmq.Block 4));
  Alcotest.(check bool) "block:1 rejected" true (Rmq.kind_of_string "block:1" = None);
  Alcotest.(check bool)
    "block:32 rejected" true
    (Rmq.kind_of_string "block:32" = None);
  Alcotest.(check bool) "block:x rejected" true (Rmq.kind_of_string "block:x" = None)

(* The bytes [save_parts] writes for [t], through a real container. *)
let saved_bytes t =
  let path = Filename.temp_file "pti_rmq" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Pti_storage.Writer.create path in
      Rmq.save_parts w ~prefix:"r" t;
      Pti_storage.Writer.close w;
      In_channel.with_open_bin path In_channel.input_all)

(* An RMQ built over a scratch array and rebound onto an oracle over an
   equal copy must answer like [build_oracle] over that oracle and
   persist the same bytes, without probing the oracle until queried.
   The scratch array is overwritten after the rebind, as the engine
   reuses it, so any part still reading the old oracle answers wrongly.
   70 000 elements recurse past each top-level cutoff: 7 000 blocks of
   10 for Succinct (cutoff 4096), 2 259 blocks of 31 and 17 500 blocks
   of 4 for Block (cutoff 2048; Block 4 recurses twice). *)
let test_rebind () =
  let rng = Random.State.make [| 8 |] in
  List.iter
    (fun kind ->
      List.iter
        (fun len ->
          let name = Printf.sprintf "%s len %d" (Rmq.kind_to_string kind) len in
          let a = Array.init len (fun _ -> float_of_int (Random.State.int rng 50)) in
          let copy = Array.copy a in
          let probes = ref 0 in
          let value i =
            incr probes;
            copy.(i)
          in
          let built = Rmq.build_oracle kind ~value:(fun i -> a.(i)) ~len in
          let rebound = Rmq.rebind built ~value in
          Alcotest.(check int) (name ^ ": rebind probes nothing") 0 !probes;
          Array.fill a 0 len Float.nan;
          let fresh = Rmq.build_oracle kind ~value:(fun i -> copy.(i)) ~len in
          for _ = 1 to 300 do
            let l = Random.State.int rng len in
            let r = l + Random.State.int rng (len - l) in
            let want = Rmq.query fresh ~l ~r in
            Alcotest.(check int) (name ^ ": query") want (Rmq.query rebound ~l ~r);
            Alcotest.(check int) (name ^ ": leftmost max") (reference copy l r) want
          done;
          if len > 1000 then
            Alcotest.(check bool) (name ^ ": queries probe the new oracle") true
              (!probes > 0);
          Alcotest.(check bool) (name ^ ": same bytes") true
            (String.equal (saved_bytes fresh) (saved_bytes rebound)))
        [ 1; 5; 777; 70_000 ])
    [ Rmq.Naive; Rmq.Sparse; Rmq.Succinct; Rmq.Block 31; Rmq.Block 4 ]

let prop_agree kind =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s agrees with scan" (Rmq.kind_to_string kind))
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 120 in
      let* a = array_repeat n (int_range 0 10) in
      let* l = int_range 0 (n - 1) in
      let* r = int_range l (n - 1) in
      return (Array.map float_of_int a, l, r))
    (fun (a, l, r) ->
      let t = Rmq.build kind a in
      Rmq.query t ~l ~r = reference a l r)

let cases kind =
  let n = Rmq.kind_to_string kind in
  [
    Alcotest.test_case (n ^ " exhaustive") `Quick (test_kind kind);
    Alcotest.test_case (n ^ " random") `Quick (test_random kind);
    Alcotest.test_case (n ^ " oracle ctor") `Quick (test_oracle_constructor kind);
    Alcotest.test_case (n ^ " bounds") `Quick (test_bounds kind);
    QCheck_alcotest.to_alcotest (prop_agree kind);
  ]

let () =
  Alcotest.run "pti_rmq"
    [
      ("naive", cases Rmq.Naive);
      ("sparse", cases Rmq.Sparse);
      ("succinct", cases Rmq.Succinct);
      ("block", cases (Rmq.Block 31));
      ("block-small", cases (Rmq.Block 4));
      ( "misc",
        [
          Alcotest.test_case "kind strings" `Quick test_kind_strings;
          Alcotest.test_case "block kind strings" `Quick test_block_strings;
          Alcotest.test_case "size accounting" `Quick test_size_words;
          Alcotest.test_case "succinct large (recursive top)" `Slow
            test_succinct_large;
          Alcotest.test_case "block large (recursive top)" `Slow
            test_block_large;
          Alcotest.test_case "rebind onto an equal oracle" `Quick test_rebind;
        ] );
    ]
