(* Tests for Pti_prob: log-domain probabilities and prefix-product
   arrays. *)

module Logp = Pti_prob.Logp
module Parray = Pti_prob.Parray
module H = Pti_test_helpers

let check_float = Alcotest.(check (float 1e-12))

let test_zero_one () =
  check_float "to_prob zero" 0.0 (Logp.to_prob Logp.zero);
  check_float "to_prob one" 1.0 (Logp.to_prob Logp.one);
  Alcotest.(check bool) "is_zero zero" true (Logp.is_zero Logp.zero);
  Alcotest.(check bool) "is_zero one" false (Logp.is_zero Logp.one);
  Alcotest.(check bool) "zero < one" true Logp.(zero < one)

let test_roundtrip () =
  List.iter
    (fun p -> check_float "roundtrip" p (Logp.to_prob (Logp.of_prob p)))
    [ 0.0; 1e-300; 0.001; 0.1; 0.25; 0.5; 0.75; 0.999; 1.0 ]

let test_of_prob_range () =
  Alcotest.check_raises "negative" (Invalid_argument "Logp.of_prob: -0.1 not in [0, 1]")
    (fun () -> ignore (Logp.of_prob (-0.1)));
  (* tiny slack above 1 clamps to one *)
  check_float "slack clamps" 1.0 (Logp.to_prob (Logp.of_prob (1.0 +. 1e-10)));
  Alcotest.(check bool) "far above 1 raises" true
    (try
       ignore (Logp.of_prob 1.5);
       false
     with Invalid_argument _ -> true)

let test_mul_div () =
  let a = Logp.of_prob 0.5 and b = Logp.of_prob 0.25 in
  check_float "mul" 0.125 (Logp.to_prob (Logp.mul a b));
  check_float "div" 0.5 (Logp.to_prob (Logp.div (Logp.mul a b) b));
  check_float "mul zero" 0.0 (Logp.to_prob (Logp.mul a Logp.zero));
  check_float "div zero num" 0.0 (Logp.to_prob (Logp.div Logp.zero b));
  Alcotest.(check bool) "div by zero raises" true
    (try
       ignore (Logp.div a Logp.zero);
       false
     with Invalid_argument _ -> true)

let test_order () =
  let ps = [ 0.0; 0.1; 0.2; 0.5; 0.9; 1.0 ] in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          Alcotest.(check int)
            (Printf.sprintf "compare %g %g" p q)
            (compare p q)
            (Logp.compare (Logp.of_prob p) (Logp.of_prob q)))
        ps)
    ps

let test_max_min_sub () =
  let a = Logp.of_prob 0.3 and b = Logp.of_prob 0.6 in
  check_float "max" 0.6 (Logp.to_prob (Logp.max a b));
  check_float "min" 0.3 (Logp.to_prob (Logp.min a b));
  check_float "sub_prob" 0.2 (Logp.to_prob (Logp.sub_prob a 0.1));
  check_float "sub_prob floor" 0.0 (Logp.to_prob (Logp.sub_prob a 0.5))

let test_pp () =
  Alcotest.(check string) "pp" "0.25" (Logp.to_string (Logp.of_prob 0.25));
  Alcotest.(check string) "pp zero" "0" (Logp.to_string Logp.zero)

(* Parray *)

let naive_window probs pos len =
  let acc = ref 1.0 in
  for i = pos to pos + len - 1 do
    acc := !acc *. probs.(i)
  done;
  !acc

let test_parray_basic () =
  let probs = [| 0.4; 0.7; 0.5; 0.8; 0.9; 0.6 |] in
  let pa = Parray.of_probs probs in
  Alcotest.(check int) "length" 6 (Parray.length pa);
  for pos = 0 to 5 do
    for len = 1 to 6 - pos do
      check_float
        (Printf.sprintf "window %d %d" pos len)
        (naive_window probs pos len)
        (Logp.to_prob (Parray.window pa ~pos ~len))
    done
  done

let test_parray_banana () =
  (* The worked example of Figure 5: X = (b,.4)(a,.7)(n,.5)(a,.8)(n,.9)(a,.6) *)
  let pa = Parray.of_probs [| 0.4; 0.7; 0.5; 0.8; 0.9; 0.6 |] in
  (* "ana" at position 1: .7 * .5 * .8 = .28; at position 3: .8*.9*.6=.432 *)
  check_float "ana@1" 0.28 (Logp.to_prob (Parray.window pa ~pos:1 ~len:3));
  check_float "ana@3" 0.432 (Logp.to_prob (Parray.window pa ~pos:3 ~len:3))

let test_parray_zeros () =
  let pa =
    Parray.of_logps
      [| Logp.of_prob 0.5; Logp.zero; Logp.of_prob 0.8; Logp.of_prob 0.9 |]
  in
  check_float "window over zero" 0.0 (Logp.to_prob (Parray.window pa ~pos:0 ~len:2));
  check_float "window avoiding zero" 0.72
    (Logp.to_prob (Parray.window pa ~pos:2 ~len:2));
  check_float "prefix with zero" 0.0 (Logp.to_prob (Parray.prefix pa 3));
  check_float "prefix before zero" 0.5 (Logp.to_prob (Parray.prefix pa 1))

let test_parray_bounds () =
  let pa = Parray.of_probs [| 0.5; 0.5 |] in
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "invalid %d %d" pos len)
        true
        (try
           ignore (Parray.window pa ~pos ~len);
           false
         with Invalid_argument _ -> true))
    [ (-1, 1); (0, 0); (0, 3); (2, 1); (1, 2) ]

let prop_window_matches_naive =
  QCheck2.Test.make ~name:"parray window = naive product" ~count:500
    QCheck2.Gen.(
      let* n = int_range 1 50 in
      let* probs = array_repeat n (float_range 0.01 1.0) in
      let* pos = int_range 0 (n - 1) in
      let* len = int_range 1 (n - pos) in
      return (probs, pos, len))
    (fun (probs, pos, len) ->
      let pa = Parray.of_probs probs in
      let got = Logp.to_prob (Parray.window pa ~pos ~len) in
      Float.abs (got -. naive_window probs pos len) < 1e-9)

let prop_no_underflow =
  QCheck2.Test.make ~name:"long products do not underflow to 0" ~count:20
    QCheck2.Gen.(int_range 500 2000)
    (fun n ->
      (* 0.5^n underflows a double for n > ~1074; log-space must not. *)
      let pa = Parray.of_probs (Array.make n 0.5) in
      let w = Parray.window pa ~pos:0 ~len:n in
      (not (Logp.is_zero w))
      && Float.abs (Logp.to_log w -. (float_of_int n *. log 0.5)) < 1e-6)

(* Factor-local sums: blocks of random log probabilities (some zero)
   joined by probability-1 separators, restarted after each separator. *)
let restart_blocks seed =
  let rng = H.rng_of_seed seed in
  List.init 12 (fun _ ->
      Array.init
        (1 + Random.State.int rng 30)
        (fun _ ->
          if Random.State.int rng 25 = 0 then Logp.zero
          else Logp.of_prob (0.05 +. Random.State.float rng 0.95)))

let restarted blocks =
  let logs = Array.concat (List.concat_map (fun b -> [ b; [| Logp.one |] ]) blocks) in
  let seps = Array.make (Array.length logs) false in
  ignore
    (List.fold_left
       (fun off b ->
         let s = off + Array.length b in
         seps.(s) <- true;
         s + 1)
       0 blocks
      : int);
  (logs, seps, Parray.of_logps ~restart_after:(fun i -> seps.(i)) logs)

let log_bits l = Int64.bits_of_float (Logp.to_log l)

let test_parray_restart_local () =
  let blocks = restart_blocks 17 in
  let _, _, pa = restarted blocks in
  ignore
    (List.fold_left
       (fun off b ->
         let alone = Parray.of_logps b in
         let n = Array.length b in
         for pos = 0 to n - 1 do
           for len = 1 to n - pos do
             if
               log_bits (Parray.window pa ~pos:(off + pos) ~len)
               <> log_bits (Parray.window alone ~pos ~len)
             then
               Alcotest.failf "window (%d,%d) of a block at %d differs in bits"
                 pos len off
           done
         done;
         off + n + 1)
       0 blocks
      : int)

let test_parray_restart_vs_global () =
  let blocks = restart_blocks 23 in
  let logs, seps, pa = restarted blocks in
  let global = Parray.of_logps logs in
  let n = Array.length logs in
  for pos = 0 to n - 1 do
    (* every window inside one block *)
    let len = ref 1 in
    while pos + !len <= n && not seps.(pos + !len - 1) do
      check_float
        (Printf.sprintf "window (%d,%d)" pos !len)
        (Logp.to_prob (Parray.window global ~pos ~len:!len))
        (Logp.to_prob (Parray.window pa ~pos ~len:!len));
      incr len
    done
  done

let test_parray_restart_get () =
  let blocks = restart_blocks 29 in
  let logs, seps, pa = restarted blocks in
  let cum, zeros, _ = Parray.raw pa in
  let lean = Parray.of_storage ~cum ~zeros ~logs:None in
  Array.iteri
    (fun i l ->
      if seps.(i) then
        Alcotest.(check bool)
          (Printf.sprintf "restart %d has probability 1" i)
          true
          (Logp.to_log (Parray.get lean i) = 0.0)
      else
        check_float
          (Printf.sprintf "get %d" i)
          (Logp.to_prob l)
          (Logp.to_prob (Parray.get lean i)))
    logs

let () =
  Alcotest.run "pti_prob"
    [
      ( "logp",
        [
          Alcotest.test_case "zero/one" `Quick test_zero_one;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "of_prob range" `Quick test_of_prob_range;
          Alcotest.test_case "mul/div" `Quick test_mul_div;
          Alcotest.test_case "order" `Quick test_order;
          Alcotest.test_case "max/min/sub_prob" `Quick test_max_min_sub;
          Alcotest.test_case "pretty printing" `Quick test_pp;
        ] );
      ( "parray",
        [
          Alcotest.test_case "windows vs naive" `Quick test_parray_basic;
          Alcotest.test_case "figure 5 example" `Quick test_parray_banana;
          Alcotest.test_case "zero probabilities" `Quick test_parray_zeros;
          Alcotest.test_case "bounds checking" `Quick test_parray_bounds;
          QCheck_alcotest.to_alcotest prop_window_matches_naive;
          QCheck_alcotest.to_alcotest prop_no_underflow;
          Alcotest.test_case "restart windows are block-local" `Quick
            test_parray_restart_local;
          Alcotest.test_case "restart agrees with global sums" `Quick
            test_parray_restart_vs_global;
          Alcotest.test_case "get at a restart without logs" `Quick
            test_parray_restart_get;
        ] );
    ]

