(* [live] counts scheduled, not-yet-fired, not-cancelled events. The
   handle's fired state guards the idempotence cases: cancel after the
   event ran (or after a prior cancel) must not decrement again.

   Events are packed [(fn, arg)] pairs rather than closures: a closure
   capturing k variables costs k+2 words per schedule, while [call_after]
   with a static [fn] and a pre-existing [arg] costs only the event cell
   itself. The cell stores the pair type-erased ([Obj.t] payload applied to
   an [Obj.t -> unit] function — safe because the two are only ever written
   together by [enqueue], which takes them at a common type). Erasure
   rather than an existential GADT because it makes the cell mutable and
   monomorphic, so the wheel backend recycles cells through a freelist and
   steady-state scheduling allocates nothing; the heap backend deliberately
   keeps the allocate-per-event profile (fresh cell each [enqueue], never
   recycled) as the A/B reference the pooling win is measured against.
   Fire-and-forget events all share the engine's [anon] handle (never
   exposed, never cancelled), so only cancellable schedules allocate a
   handle. *)

(* [hstate]: 0 = live, 1 = fired, 2 = cancelled — one word instead of two
   bools, because a handle is allocated per cancellable schedule (every
   {!Timer} re-arm) and [hcidx] below already costs the word back. *)
type handle = {
  mutable hstate : int;
  (* The event's creation index, mirrored here so the cell's [cx] word can
     hold the handle alone (see [cell]). Handles are per-schedule, so the
     field is written once, by [enqueue]. *)
  mutable hcidx : int;
}

(* Canonical event order (DESIGN.md §18): every event is keyed by
   [(time_us << rank_bits) | rank], with a per-rank creation index [ccidx]
   as the residual tie-break. The rank is the {e creator}'s identity —
   process pid + 1 for events created while that process's code runs
   ([set_rank]), 0 for setup/system chains, [harness_rank] (the top of the
   rank space, reserved — no pid maps to it) for post-start harness work
   such as the sampler — so the total order [(ckey, ccidx)] is a pure
   function of the simulated computation, never of scheduler internals or
   (in the intra-run parallel mode) of which domain executed what. Same-µs
   ties order by rank, then by per-creator creation order: setup chains at
   a timestamp run before process events at the same timestamp, harness
   chains after them, in both modes. The reservation also keeps every
   rank's counter owned by exactly one replica when a run is sharded —
   pids draw on their owning shard, ranks 0 and [harness_rank] only on
   the control replica. The rank occupies exactly the wheel's tie bits:
   the wheel buckets on the µs and keeps each µs slot rank-sorted. *)
let rank_bits = Dstruct.Wheel.tie_bits
let rank_mask = (1 lsl rank_bits) - 1
let harness_rank = rank_mask
let max_pid = rank_mask - 2

type cell = {
  mutable ckey : int;  (* (time_us << rank_bits) | creator rank *)
  mutable cfn : Obj.t -> unit;
  mutable carg : Obj.t;
  (* The creation index and the cancellation handle share one word: an
     immediate int — the per-creator creation index — for the
     fire-and-forget majority (which can never be cancelled), or the
     [handle], which then carries the index in [hcidx], for cancellable
     schedules. Fusing them keeps the cell at its historical five words:
     the fresh-cell cost of a run is peak-concurrency × cell size (the
     freelist only flattens the steady state), so a sixth word here is a
     measurable per-run allocation regression at scale. *)
  mutable cx : Obj.t;
}

(* [cx] decoding. [cell_cidx] is only on heap-compare and latch paths —
   everything is an immediate, so the function boundary boxes nothing. *)
let cell_cidx c =
  let r = c.cx in
  if Obj.is_int r then (Obj.obj r : int) else (Obj.obj r : handle).hcidx

(* Two interchangeable scheduler backends. The wheel keys on the packed
   [ckey] (µs times rank: no two distinct (time, creator) pairs share a
   key) and is monotone — pushes below the last popped key are clamped to
   it (see [enqueue]). Both backends order by nondecreasing [ckey] with
   [ccidx] (= creation order) breaking residual ties: test_wheel checks
   them against each other, and the pinned digests check the wheel against
   the heap-era event streams. *)
type queue =
  | Heap of cell Dstruct.Pqueue.t
  | Wheel of cell Dstruct.Wheel.t

type t = {
  queue : queue;
  rng : Dstruct.Rng.t;
  mutable now : Time.t;
  mutable executed : int;
  mutable live : int;  (* scheduled, not fired and not cancelled *)
  mutable sink : Obs.Sink.t;
  anon : handle;  (* shared by all fire-and-forget events *)
  (* Creation context: [cur_rank] is the rank stamped on events scheduled
     right now (0 = harness; pid + 1 while that process's code runs), and
     [counters.(r)] is rank r's next creation index. [last_key] is the key
     of the last executed event — the floor future keys are clamped to, so
     the wheel's monotonicity holds by construction. *)
  mutable cur_rank : int;
  mutable last_key : int;
  mutable counters : int array;
  (* Execution context, latched by [exec] from the popped cell: the
     canonical identity of the event currently running. Intra-run shard
     buffers tag emissions with it so a barrier merge can re-fold the
     global stream in canonical order (DESIGN.md §18). *)
  mutable exec_key : int;
  mutable exec_cidx : int;
  (* Cell freelist (wheel backend only): [exec] latches a popped cell's
     fields, clears it and releases it here before running the event, so
     the event's own schedules draw recycled cells. *)
  mutable cpool : cell array;
  mutable cpool_n : int;
}

let ignore_obj (_ : Obj.t) = ()
let unit_obj = Obj.repr ()

let compare_cell a b =
  let c = Int.compare a.ckey b.ckey in
  if c <> 0 then c else Int.compare (cell_cidx a) (cell_cidx b)

let create ?(queue = `Wheel) ~seed () =
  let anon = { hstate = 0; hcidx = 0 } in
  let queue =
    match queue with
    | `Heap -> Heap (Dstruct.Pqueue.create ~compare:compare_cell)
    | `Wheel ->
        let dummy =
          { ckey = 0; cfn = ignore_obj; carg = unit_obj; cx = Obj.repr 0 }
        in
        Wheel (Dstruct.Wheel.create ~dummy ())
  in
  {
    queue;
    rng = Dstruct.Rng.create seed;
    now = Time.zero;
    executed = 0;
    live = 0;
    sink = Obs.Sink.null;
    anon;
    cur_rank = 0;
    last_key = 0;
    counters = Array.make 8 0;
    exec_key = 0;
    exec_cidx = 0;
    cpool = [||];
    cpool_n = 0;
  }

let now t = t.now
let rng t = t.rng
let sink t = t.sink
let set_sink t sink = t.sink <- sink

(* [set_rank t pid] declares that subsequently scheduled events are created
   by process [pid] — called at every entry point into process code whose
   executing event does not already carry the process's rank (message
   delivery at the receiver, hop forwarding at the relay, start/recover).
   Events executed from the queue re-establish their own creator's rank
   automatically ([exec]). *)
let set_rank t pid =
  if pid < 0 || pid > max_pid then
    invalid_arg "Engine.set_rank: pid out of range";
  let r = pid + 1 in
  if r >= Array.length t.counters then begin
    let a = Array.make (2 * (r + 1)) 0 in
    Array.blit t.counters 0 a 0 (Array.length t.counters);
    t.counters <- a
  end;
  t.cur_rank <- r

(* Switch to the reserved harness rank: called by the run driver after
   node start-up, before scheduling harness-side chains (the sampler), so
   those chains never share a creation counter with the last pid. *)
let set_harness_rank t =
  let r = harness_rank in
  if r >= Array.length t.counters then begin
    let a = Array.make (r + 1) 0 in
    Array.blit t.counters 0 a 0 (Array.length t.counters);
    t.counters <- a
  end;
  t.cur_rank <- r

(* Like the network's flight pool: grow with the released cell itself as
   the [Array.make] filler. The released cell is cleared first so the pool
   never keeps an event's payload (or its handle) reachable. *)
let release_cell t c =
  c.cfn <- ignore_obj;
  c.carg <- unit_obj;
  c.cx <- Obj.repr 0;
  let k = t.cpool_n in
  if k = Array.length t.cpool then begin
    let a = Array.make (if k = 0 then 64 else 2 * k) c in
    Array.blit t.cpool 0 a 0 k;
    t.cpool <- a
  end;
  t.cpool.(k) <- c;
  t.cpool_n <- k + 1

(* Key/index assignment, shared by both scheduling paths. The clamp to
   [last_key] covers one legal corner: scheduling at the current µs from a
   context whose rank is below the executing event's (e.g. a test
   scheduling at [now] between runs) — the event then sorts right after
   the current one, which is exactly the old FIFO behaviour. The clamp
   never changes the µs part (times in the past are rejected first). *)
(* Two separate int-returning helpers rather than one returning a pair:
   the hot path is allocation-free by contract and without flambda a
   tuple return boxes three minor words per scheduled event. *)
let next_key t time =
  let us = Time.to_us time in
  let key = (us lsl rank_bits) lor t.cur_rank in
  if key < t.last_key then t.last_key else key

let next_cidx t =
  let r = t.cur_rank in
  let cidx = t.counters.(r) in
  t.counters.(r) <- cidx + 1;
  cidx

let enqueue : type a. t -> Time.t -> (a -> unit) -> a -> handle -> unit =
 fun t time fn arg h ->
  if Time.(time < t.now) then
    invalid_arg
      (Format.asprintf "Engine.schedule: %a is before now (%a)" Time.pp time
         Time.pp t.now);
  let key = next_key t time in
  let cidx = next_cidx t in
  (* The only erasure point: [fn] and [arg] arrive at a common type [a], so
     applying the erased function to the erased payload is well-typed by
     construction. *)
  let fn : Obj.t -> unit = Obj.magic fn in
  let arg = Obj.repr arg in
  let cx =
    if h == t.anon then Obj.repr cidx
    else begin
      h.hcidx <- cidx;
      Obj.repr h
    end
  in
  (match t.queue with
  | Heap q -> Dstruct.Pqueue.push q { ckey = key; cfn = fn; carg = arg; cx }
  | Wheel w ->
      let c =
        if t.cpool_n = 0 then { ckey = key; cfn = fn; carg = arg; cx }
        else begin
          let k = t.cpool_n - 1 in
          t.cpool_n <- k;
          let c = t.cpool.(k) in
          c.ckey <- key;
          c.cfn <- fn;
          c.carg <- arg;
          c.cx <- cx;
          c
        end
      in
      Dstruct.Wheel.push w ~key c);
  t.live <- t.live + 1;
  if Obs.Sink.wants t.sink Obs.Event.c_engine then
    Obs.Sink.emit t.sink
      (Obs.Event.Sched { now = Time.to_us t.now; at = Time.to_us time })

(* Static trampoline for the closure API: the closure is the [arg]. *)
let call_thunk (f : unit -> unit) = f ()

let schedule_at t time action =
  let h = { hstate = 0; hcidx = 0 } in
  enqueue t time call_thunk action h;
  h

let schedule_after t delay action =
  schedule_at t (Time.add t.now delay) action

let call_at t time fn arg = enqueue t time fn arg t.anon
let call_after t delay fn arg = enqueue t (Time.add t.now delay) fn arg t.anon

let schedule_call_after t delay fn arg =
  let h = { hstate = 0; hcidx = 0 } in
  enqueue t (Time.add t.now delay) fn arg h;
  h

(* Batched fire-and-forget scheduling: a broadcast fan-out stages its n-1
   events and splices them into the wheel in one [batch_commit]
   ({!Dstruct.Wheel.stage} / [commit]). Everything observable — live count,
   Sched emission, canonical order among equal keys — happens exactly as
   the equivalent [call_after] sequence would produce it; only the bucket
   bookkeeping is amortized. The heap backend has no batch path (it is the
   allocate-per-event A/B reference), so it degrades to [call_after] and
   [batch_commit] is a no-op — the two backends still produce identical
   event streams. Batches must be committed before control returns to the
   event loop; staging happens inside a single handler, so no pop can
   intervene and the wheel's cursor cannot move mid-batch. *)
let batch_call_after : type a. t -> Time.t -> (a -> unit) -> a -> unit =
 fun t delay fn arg ->
  match t.queue with
  | Heap _ -> enqueue t (Time.add t.now delay) fn arg t.anon
  | Wheel w ->
      let time = Time.add t.now delay in
      if Time.(time < t.now) then
        invalid_arg
          (Format.asprintf "Engine.schedule: %a is before now (%a)" Time.pp
             time Time.pp t.now);
      let key = next_key t time in
      let cidx = next_cidx t in
      let fn : Obj.t -> unit = Obj.magic fn in
      let arg = Obj.repr arg in
      let c =
        if t.cpool_n = 0 then
          { ckey = key; cfn = fn; carg = arg; cx = Obj.repr cidx }
        else begin
          let k = t.cpool_n - 1 in
          t.cpool_n <- k;
          let c = t.cpool.(k) in
          c.ckey <- key;
          c.cfn <- fn;
          c.carg <- arg;
          c.cx <- Obj.repr cidx;
          c
        end
      in
      Dstruct.Wheel.stage w ~key c;
      t.live <- t.live + 1;
      if Obs.Sink.wants t.sink Obs.Event.c_engine then
        Obs.Sink.emit t.sink
          (Obs.Event.Sched { now = Time.to_us t.now; at = Time.to_us time })

let batch_commit t =
  match t.queue with
  | Heap _ -> ()
  | Wheel w -> Dstruct.Wheel.commit w

(* ---- Intra-run sharded execution support (DESIGN.md §18) ----
   A cross-shard event creation splits [call_after] in two: the creating
   shard [stamp]s the event — drawing the exact canonical (key, cidx) and
   emitting the Sched that the local path would have emitted — and ships
   the pair with the payload; at the window barrier the owning shard
   [enqueue_committed]s it silently (no second Sched, no counter bump).
   The union of both shards' observable actions is bit-identical to the
   sequential [call_after]. *)

let stamp t time =
  if Time.(time < t.now) then
    invalid_arg
      (Format.asprintf "Engine.stamp: %a is before now (%a)" Time.pp time
         Time.pp t.now);
  let key = next_key t time in
  let cidx = next_cidx t in
  if Obs.Sink.wants t.sink Obs.Event.c_engine then
    Obs.Sink.emit t.sink
      (Obs.Event.Sched { now = Time.to_us t.now; at = Time.to_us time });
  (key, cidx)

let enqueue_committed : type a. t -> key:int -> cidx:int -> (a -> unit) -> a -> unit
    =
 fun t ~key ~cidx fn arg ->
  let fn : Obj.t -> unit = Obj.magic fn in
  let arg = Obj.repr arg in
  (match t.queue with
  | Heap q ->
      Dstruct.Pqueue.push q
        { ckey = key; cfn = fn; carg = arg; cx = Obj.repr cidx }
  | Wheel w ->
      let c =
        if t.cpool_n = 0 then
          { ckey = key; cfn = fn; carg = arg; cx = Obj.repr cidx }
        else begin
          let k = t.cpool_n - 1 in
          t.cpool_n <- k;
          let c = t.cpool.(k) in
          c.ckey <- key;
          c.cfn <- fn;
          c.carg <- arg;
          c.cx <- Obj.repr cidx;
          c
        end
      in
      Dstruct.Wheel.push w ~key c);
  t.live <- t.live + 1

let executing_key t = t.exec_key
let executing_cidx t = t.exec_cidx

(* Earliest pending event's µs, or -1 when the queue is empty. Peeks only:
   the wheel's cursor must not advance (the engine may legally decide not
   to pop at a window horizon). *)
let next_pending_us t =
  match t.queue with
  | Heap q ->
      if Dstruct.Pqueue.is_empty q then -1
      else (Dstruct.Pqueue.peek_exn q).ckey asr rank_bits
  | Wheel w ->
      if Dstruct.Wheel.is_empty w then -1
      else Dstruct.Wheel.min_key_exn w asr rank_bits

(* Earliest pending event's full canonical key (µs and creator rank), or
   -1 when the queue is empty — the intra-run driver interleaves the
   control replica's events with shard events by key, not just by µs. *)
let next_pending_key t =
  match t.queue with
  | Heap q ->
      if Dstruct.Pqueue.is_empty q then -1
      else (Dstruct.Pqueue.peek_exn q).ckey
  | Wheel w ->
      if Dstruct.Wheel.is_empty w then -1 else Dstruct.Wheel.min_key_exn w

(* Advance the clock over an idle gap without running anything: barrier
   code (recovery, resync, fault application) computes relative delays
   from [now], which must read the barrier instant, not the last executed
   event's time. *)
let fast_forward t time = t.now <- Time.max t.now time

let cancel t h =
  if h.hstate = 0 then begin
    h.hstate <- 2;
    t.live <- t.live - 1;
    if Obs.Sink.wants t.sink Obs.Event.c_engine then
      Obs.Sink.emit t.sink (Obs.Event.Cancel { now = Time.to_us t.now })
  end

let is_cancelled h = h.hstate = 2
let pending t = t.live
let executed t = t.executed

let wheel_count f t = match t.queue with Heap _ -> 0 | Wheel w -> f w
let wheel_placements t = wheel_count Dstruct.Wheel.placements t
let wheel_walk_steps t = wheel_count Dstruct.Wheel.walk_steps t
let wheel_pops t = wheel_count Dstruct.Wheel.pops t

(* [exec t c ~recycle] latches every field, optionally releases the cell
   (wheel backend — the heap's cells are garbage once popped), then fires.
   Latch-then-release, so the event's own schedules may reuse the cell.
   The executing event's creator rank becomes the creation context for
   whatever it schedules; deliver/forward override it to the receiving
   process's rank ([set_rank]) before running process code. *)
let fire t key cidx fn arg =
  t.live <- t.live - 1;
  let time = Time.of_us (key asr rank_bits) in
  assert (Time.(time >= t.now));
  t.now <- time;
  t.cur_rank <- key land rank_mask;
  t.last_key <- key;
  t.exec_key <- key;
  t.exec_cidx <- cidx;
  t.executed <- t.executed + 1;
  if Obs.Sink.wants t.sink Obs.Event.c_engine then
    Obs.Sink.emit t.sink (Obs.Event.Fire { now = Time.to_us t.now });
  fn arg

let exec t c ~recycle =
  let key = c.ckey in
  let fn = c.cfn and arg = c.carg and cx = c.cx in
  if recycle then release_cell t c;
  if Obj.is_int cx then
    (* Fire-and-forget: [cx] is the creation index and the event cannot
       have been cancelled. *)
    fire t key (Obj.obj cx : int) fn arg
  else begin
    let h : handle = Obj.obj cx in
    if h.hstate = 0 then begin
      h.hstate <- 1;
      fire t key h.hcidx fn arg
    end
  end

(* The run loops are specialized per backend so the per-event dispatch is
   hoisted out of the loop. The wheel loop decides from [min_key_exn]
   (memoized, non-mutating) before popping: peeking must not advance the
   wheel's cursor past [limit], or a later legal schedule below the cursor
   would be rejected. A time limit translates to the largest key at that
   µs — every rank at time [limit] is included, matching the old
   time-inclusive contract. *)
let limit_key limit = ((Time.to_us limit + 1) lsl rank_bits) - 1

let run_until t limit =
  (match t.queue with
  | Heap q ->
      let lim = limit_key limit in
      let rec loop () =
        if not (Dstruct.Pqueue.is_empty q) then begin
          let c = Dstruct.Pqueue.peek_exn q in
          if c.ckey <= lim then begin
            Dstruct.Pqueue.drop_exn q;
            exec t c ~recycle:false;
            loop ()
          end
        end
      in
      loop ()
  | Wheel w ->
      let lim = limit_key limit in
      let rec loop () =
        if not (Dstruct.Wheel.is_empty w) then
          if Dstruct.Wheel.min_key_exn w <= lim then begin
            exec t (Dstruct.Wheel.pop_exn w) ~recycle:true;
            loop ()
          end
      in
      loop ());
  t.now <- Time.max t.now limit

(* One conservative window (DESIGN.md §18): execute every event with
   canonical key STRICTLY below [limit_key] — key-exclusive, unlike
   [run_until]'s inclusive time limit, because a window boundary can fall
   {e inside} an instant: the driver cuts a window at the control
   replica's next pending key, so shard events at the barrier µs whose
   rank sorts below the barrier event's still run first, exactly as the
   one-queue sequential order has it. The clock is left at the last
   executed event, not advanced to the limit: the driver [fast_forward]s
   explicitly when barrier-time code needs [now] at the barrier
   instant. *)
let run_window_key t ~limit_key =
  let lim = limit_key in
  match t.queue with
  | Heap q ->
      let rec loop () =
        if not (Dstruct.Pqueue.is_empty q) then begin
          let c = Dstruct.Pqueue.peek_exn q in
          if c.ckey < lim then begin
            Dstruct.Pqueue.drop_exn q;
            exec t c ~recycle:false;
            loop ()
          end
        end
      in
      loop ()
  | Wheel w ->
      let rec loop () =
        if not (Dstruct.Wheel.is_empty w) then
          if Dstruct.Wheel.min_key_exn w < lim then begin
            exec t (Dstruct.Wheel.pop_exn w) ~recycle:true;
            loop ()
          end
      in
      loop ()

(* µs-exclusive window: every event strictly before [limit_us], any rank. *)
let run_window t ~limit_us = run_window_key t ~limit_key:(limit_us lsl rank_bits)

(* ---------------------------------------------------- snapshot / restore *)

let () =
  Checkpoint.register ~id:0 ignore_obj;
  Checkpoint.register ~id:1 call_thunk

(* Swizzle a cell's packed function to its registry id (an immediate int),
   and back. The walks below can visit the same cell several times (pool
   slots alias, heap stale slots alias live cells, wheel freelist cells
   share [dummy]), so both directions are idempotent: a swizzled [cfn] is
   an int and is skipped by [swizzle_cell]; an unswizzled one is a block
   and is skipped by [unswizzle_cell]. *)
let swizzle_cell c =
  if not (Obj.is_int (Obj.repr c.cfn)) then begin
    let id = Checkpoint.id_of c.cfn in
    if id < 0 then
      invalid_arg
        "Engine.snapshot: a pending event's function is not registered \
         (Sim.Checkpoint.register)";
    c.cfn <- Obj.magic id
  end

let unswizzle_cell c =
  let r = Obj.repr c.cfn in
  if Obj.is_int r then c.cfn <- Checkpoint.fn_of (Obj.magic r : int)

(* Every event cell reachable through the engine's marshalled graph: the
   queue's committed cells (plus the wheel's shared dummy, which recycled
   freelist cells alias), and the engine's own cell pool — whose stale
   slots may alias cells that are simultaneously live in the queue. *)
let iter_cells t f =
  (match t.queue with
  | Heap q -> Dstruct.Pqueue.iter_slots q f
  | Wheel w -> Dstruct.Wheel.iter_values w f);
  for i = 0 to Array.length t.cpool - 1 do
    f t.cpool.(i)
  done

let snapshot : type a. t -> a -> Bytes.t =
 fun t root ->
  (match t.queue with
  | Wheel w when Dstruct.Wheel.staged_count w <> 0 ->
      invalid_arg "Engine.snapshot: staged batch pending commit"
  | Wheel _ | Heap _ -> ());
  iter_cells t swizzle_cell;
  (* Unswizzle under protect: the live engine must come back runnable even
     if an unregistered function aborts the walk or marshalling fails
     (e.g. an out-channel-holding sink). One [to_bytes] call, so every
     physical sharing — the [anon] handle, interned ALIVE payloads, the
     SoA store — survives the round trip. *)
  Fun.protect
    ~finally:(fun () -> iter_cells t unswizzle_cell)
    (fun () -> Marshal.to_bytes (t, root) [ Marshal.Closures ])

let restore : type a. Bytes.t -> t * a =
 fun bytes ->
  let ((t, _) as pair) = (Marshal.from_bytes bytes 0 : t * a) in
  iter_cells t unswizzle_cell;
  pair

let run_until_idle ?limit t =
  match t.queue with
  | Heap q ->
      let lim = match limit with Some l -> limit_key l | None -> max_int in
      let rec loop () =
        if Dstruct.Pqueue.is_empty q then `Idle
        else begin
          let c = Dstruct.Pqueue.peek_exn q in
          if c.ckey > lim then begin
            (match limit with Some l -> t.now <- Time.max t.now l | None -> ());
            `Limit
          end
          else begin
            Dstruct.Pqueue.drop_exn q;
            exec t c ~recycle:false;
            loop ()
          end
        end
      in
      loop ()
  | Wheel w ->
      let lim = match limit with Some l -> limit_key l | None -> max_int in
      let rec loop () =
        if Dstruct.Wheel.is_empty w then `Idle
        else if Dstruct.Wheel.min_key_exn w > lim then begin
          (match limit with Some l -> t.now <- Time.max t.now l | None -> ());
          `Limit
        end
        else begin
          exec t (Dstruct.Wheel.pop_exn w) ~recycle:true;
          loop ()
        end
      in
      loop ()
