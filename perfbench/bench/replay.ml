(* Replays a traced run's engine schedule through [Dstruct.Wheel], with
   [Dstruct.Pqueue] as the reference order: the timing wheel's push and pop
   cost at the key shapes the simulator really produces.

   The trace gives each pop's canonical key but only each push's time
   ([Sched] carries no rank), so a push at µs [t] takes the rank of the
   next not-yet-assigned pop at [t]: the replayed key multiset per instant
   is the run's. Consecutive pushes between two pops replay as one staged
   fan-out ([stage] ... [commit]), single pushes as [push]. *)

let rank_bits = Sim.Engine.rank_bits

(* Turns recorded ops into replayable ones (pushes carry full keys) and
   computes the reference pop sequence on the binary heap. A push key is
   clamped to the last reference pop: the wheel is monotone. *)
let prepare (b : Traced.ibuf) =
  let ops = Array.sub b.Traced.a 0 b.Traced.len in
  let ranks : (int, int Queue.t) Hashtbl.t = Hashtbl.create 65_536 in
  Array.iter
    (fun op ->
      if op land 1 = 1 then begin
        let key = op asr 1 in
        let time = key asr rank_bits in
        let q =
          match Hashtbl.find_opt ranks time with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add ranks time q;
              q
        in
        Queue.push (key land ((1 lsl rank_bits) - 1)) q
      end)
    ops;
  let heap =
    Dstruct.Pqueue.create ~compare:(fun (k1, t1) (k2, t2) ->
        let c = Int.compare k1 k2 in
        if c <> 0 then c else Int.compare t1 t2)
  in
  let ticket = ref 0 and last = ref 0 in
  let pops = ref [] in
  let out =
    Array.map
      (fun op ->
        if op land 1 = 0 then begin
          let time = op asr 1 in
          let rank =
            match Hashtbl.find_opt ranks time with
            | Some q when not (Queue.is_empty q) -> Queue.pop q
            | Some _ | None -> 0
          in
          let key = max !last ((time lsl rank_bits) lor rank) in
          incr ticket;
          Dstruct.Pqueue.push heap (key, !ticket);
          key lsl 1
        end
        else begin
          (match Dstruct.Pqueue.pop heap with
          | Some (k, _) ->
              last := k;
              pops := k :: !pops
          | None -> ());
          op
        end)
      ops
  in
  (out, Array.of_list (List.rev !pops))

type result = {
  pushes : int;
  pops : int;
  push_ns : float;  (** per pushed element *)
  pop_ns : float;  (** per pop *)
  order_ok : bool;  (** the wheel popped the heap's sequence *)
}

(* One timed pass. Each push group and each pop is one timed segment; the
   clock pair's own cost is subtracted per segment. *)
let pass ops ref_pops =
  let w = Dstruct.Wheel.create ~dummy:0 () in
  let n = Array.length ops in
  let push_ns = ref 0 and push_segs = ref 0 and pushes = ref 0 in
  let pop_ns = ref 0 and pops = ref 0 and ok = ref true in
  let i = ref 0 in
  while !i < n do
    if ops.(!i) land 1 = 0 then begin
      let j = ref !i in
      while !j < n && ops.(!j) land 1 = 0 do incr j done;
      let lo = !i and hi = !j in
      let a = Clock.now_ns () in
      if hi - lo = 1 then
        Dstruct.Wheel.push w ~key:(ops.(lo) asr 1) (ops.(lo) asr 1)
      else begin
        for k = lo to hi - 1 do
          Dstruct.Wheel.stage w ~key:(ops.(k) asr 1) (ops.(k) asr 1)
        done;
        Dstruct.Wheel.commit w
      end;
      push_ns := !push_ns + (Clock.now_ns () - a);
      incr push_segs;
      pushes := !pushes + (hi - lo);
      i := hi
    end
    else begin
      if not (Dstruct.Wheel.is_empty w) then begin
        let a = Clock.now_ns () in
        let v = Dstruct.Wheel.pop_exn w in
        pop_ns := !pop_ns + (Clock.now_ns () - a);
        if !pops >= Array.length ref_pops || v <> ref_pops.(!pops) then
          ok := false;
        incr pops
      end;
      incr i
    end
  done;
  let ovh = Lazy.force Clock.pair_overhead_ns in
  let per total segs count =
    if count = 0 then 0.
    else
      Float.max 0.
        ((float_of_int total -. (float_of_int segs *. ovh))
        /. float_of_int count)
  in
  {
    pushes = !pushes;
    pops = !pops;
    push_ns = per !push_ns !push_segs !pushes;
    pop_ns = per !pop_ns !pops !pops;
    order_ok = !ok && !pops = Array.length ref_pops;
  }

(* Median of three passes, per metric. *)
let run (b : Traced.ibuf) =
  let ops, ref_pops = prepare b in
  let rs = List.init 3 (fun _ -> pass ops ref_pops) in
  let med f =
    match List.sort Float.compare (List.map f rs) with
    | [ _; m; _ ] -> m
    | _ -> assert false
  in
  let r = List.hd rs in
  {
    r with
    push_ns = med (fun r -> r.push_ns);
    pop_ns = med (fun r -> r.pop_ns);
    order_ok = List.for_all (fun r -> r.order_ok) rs;
  }
