(* In-memory span recorder for the traced replay.

   A span is (name, start, end, parent, request id), timestamps from
   the monotonic clock. Spans live in growable int arrays, so recording
   one costs two clock reads and a few stores; nothing is written until
   [write_tsv] at the end. A disabled recorder ([create ~enabled:false])
   makes [enter]/[leave] no-ops — the untraced replay pass that
   [trace.overhead_ratio] compares against. *)

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable current : int;  (* innermost open span, -1 at top level *)
}

let create ~enabled =
  let cap = if enabled then 4096 else 0 in
  {
    enabled;
    names = Hashtbl.create 32;
    name_of = [||];
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    current = -1;
  }

(* Intern a span name; call once per name, outside the timed path. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.replace t.names s i;
      t.name_of <- Array.append t.name_of [| s |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.req <- g t.req

let enter t nm ~req =
  if not t.enabled then -1
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- nm;
    t.parent.(i) <- t.current;
    t.req.(i) <- req;
    t.current <- i;
    t.start.(i) <- Clock.now_ns ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- Clock.now_ns ();
    t.current <- t.parent.(i)
  end

(* Duration of a closed span, 0 for the disabled recorder's -1. *)
let duration t i = if i >= 0 then t.stop.(i) - t.start.(i) else 0

let span t nm ~req f =
  let i = enter t nm ~req in
  match f () with
  | v -> leave t i; v
  | exception e -> leave t i; raise e

(* Per-name aggregates: calls, summed duration and summed self time
   (duration minus the part its child spans cover; children never
   overlap each other since the replay is single-threaded). *)
type agg = { calls : int; total_ns : int; self_ns : int }

let aggregate t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) - t.start.(i) in
    let a =
      Option.value ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
        (Hashtbl.find_opt tbl t.name.(i))
    in
    Hashtbl.replace tbl t.name.(i)
      { calls = a.calls + 1; total_ns = a.total_ns + d;
        self_ns = a.self_ns + d - child.(i) }
  done;
  Hashtbl.fold (fun k v acc -> (t.name_of.(k), v) :: acc) tbl []
  |> List.sort compare

let mean_ns t nm =
  match List.assoc_opt nm (aggregate t) with
  | Some a when a.calls > 0 -> float_of_int a.total_ns /. float_of_int a.calls
  | _ -> 0.0

(* Durations (ns) of every span with this name, in recording order. *)
let durations t nm =
  match Hashtbl.find_opt t.names nm with
  | None -> [||]
  | Some id ->
      let out = ref [] in
      for i = t.n - 1 downto 0 do
        if t.name.(i) = id then out := (t.stop.(i) - t.start.(i)) :: !out
      done;
      Array.of_list !out

let write_tsv t path =
  let oc = open_out path in
  output_string oc "span\tname\tstart_ns\tend_ns\tparent\trequest\n";
  let base = if t.n > 0 then t.start.(0) else 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.name_of.(t.name.(i))
      (t.start.(i) - base) (t.stop.(i) - base) t.parent.(i) t.req.(i)
  done;
  close_out oc

let table t =
  let aggs = aggregate t in
  let total_self = List.fold_left (fun s (_, a) -> s + a.self_ns) 0 aggs in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-26s %9s %12s %12s %12s %7s\n" "span" "calls" "mean_ns"
    "self_mean_ns" "self_ms" "self_%";
  List.iter
    (fun (nm, a) ->
      Printf.bprintf b "%-26s %9d %12.0f %12.0f %12.2f %6.1f%%\n" nm a.calls
        (float_of_int a.total_ns /. float_of_int a.calls)
        (float_of_int a.self_ns /. float_of_int a.calls)
        (float_of_int a.self_ns /. 1e6)
        (100.0 *. float_of_int a.self_ns /. float_of_int (max 1 total_self)))
    aggs;
  Buffer.contents b
