(* Machine-speed probe: a fixed open-addressing hash workload over a 1 MB
   table held outside the OCaml heap — random, branchy, cache-resident
   accesses like the simulator's own. It runs no simulator code and
   allocates nothing, so a change to the simulator cannot move it, while
   the phases in which neighbouring tenants load the shared core and
   caches slow it along with a simulation. *)

open Bigarray

(* Three rounds of 50 000 operations on 2^17 slots: the load factor stays
   under 0.4, so every probe sequence ends quickly. *)
let bits = 17
let rounds = 3
let ops = 50_000
let table = lazy (Array1.create int c_layout (1 lsl bits))

let workload () =
  let t = Lazy.force table in
  let mask = (1 lsl bits) - 1 in
  let x = ref 7 and hits = ref 0 in
  for _ = 1 to rounds do
    Array1.fill t 0;
    for _ = 1 to ops do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let key = ((!x lsr 3) land (4 * mask)) lor 1 in
      let j = ref ((key * 0x9E3779B1) land mask) in
      while
        let v = Array1.unsafe_get t !j in
        v <> 0 && v <> key
      do
        j := (!j + 1) land mask
      done;
      if Array1.unsafe_get t !j = key then incr hits
      else Array1.unsafe_set t !j key
    done
  done;
  !hits

let run_ns () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (workload ()));
  Clock.now_ns () - t0
