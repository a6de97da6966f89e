(* Monotonic wall clock in nanoseconds. Untagged and [noalloc], so timing a
   call adds two vDSO reads and nothing to the minor heap. *)
external now_ns : unit -> (int[@untagged]) = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

(* Cost of one [now_ns] pair, measured: subtracted from each timed segment
   of the wheel replay, whose segments are single queue operations. *)
let pair_overhead_ns =
  lazy
    (let reps = 200_000 in
     let best = ref max_int in
     for _ = 1 to 5 do
       let acc = ref 0 in
       for _ = 1 to reps do
         let a = now_ns () in
         let b = now_ns () in
         acc := !acc + (b - a)
       done;
       if !acc < !best then best := !acc
     done;
     float_of_int !best /. float_of_int reps)
