let now_ns () = Int64.to_float (Monotonic_clock.now ())
let elapsed_ms t0 = (now_ns () -. t0) /. 1e6
