(* CLOCK_MONOTONIC in nanoseconds; never steps under NTP and never
   allocates. *)
external now_ns : unit -> int = "pbench_now_ns" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
