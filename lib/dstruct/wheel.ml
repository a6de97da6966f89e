(* Hierarchical timing wheel (Varghese & Lauck), radix 256, 7 levels over
   the key's bucketed part [key lsr tie_bits] — the levels' digit spans
   cover its whole 51-bit range, so there is no overflow structure and no
   revolution wrap to reason about.

   Keys split in two: the bucketed part (for the engine: the event's µs)
   and the low [tie_bits] tie bits (the creator rank). Placement looks at
   the bucketed part only, so a level-0 slot holds exactly one bucketed
   value, and inside that slot cells are kept sorted by the full key.

   Placement invariant: a cell with bucketed part [u] always lives at
   [level = highest digit of (u lxor (cursor lsr tie_bits))] in bucket
   [digit u level]. The invariant is canonical — a function of the key and
   the cursor only, not of insertion time — because the cursor's digit at
   level [l] changes to a new value exactly when the bucket at
   [(l, new digit)] is cascaded down (see [pop_exn]), so no cell whose
   digit matches the cursor's can remain at that level. Canonical
   placement is what makes the FIFO tie-break work: all cells with equal
   keys sit in the same bucket list at every moment, in insertion order.
   At levels >= 1 pushes and cascades append (cascades walk in order); at
   level 0 a cell is inserted after every cell whose key is <= its own
   (stable insertion, tail checked first), so the slot stays sorted by key
   and FIFO among equal keys, and its head is always the oldest minimum.

   Cells are pooled: [pop_exn] releases the popped cell onto an internal
   freelist that the next [push] reuses, so the steady state of a
   push/pop-balanced workload (a simulation's message traffic) allocates
   nothing. Released cells are reset to the [dummy] element so the wheel
   never keeps a popped element reachable (the Pqueue regression, designed
   out here). *)

type 'a cell = {
  mutable key : int;
  mutable v : 'a;
  mutable next : 'a cell;  (* bucket list / freelist link; [nil] terminates *)
}

type 'a t = {
  dummy : 'a;
  nil : 'a cell;  (* self-referential sentinel, never stores an element *)
  heads : 'a cell array;  (* levels * 256 bucket list heads *)
  tails : 'a cell array;
  occ : int array;  (* occupancy bitmap: 8 x 32-bit words per level *)
  mutable cursor : int;  (* key of the last popped cell (or [start]) *)
  mutable free : 'a cell;  (* freelist of released cells *)
  mutable size : int;
  (* Memo of the last [min_key_exn] scan, so the engine's peek-then-pop
     loop scans once per event. Any push invalidates it; a pop keeps it
     while the popped level-0 slot still holds cells. *)
  mutable cached : bool;
  mutable cached_key : int;
  mutable cached_level : int;
  mutable cached_bucket : int;
  (* Staged-insertion chain ([stage] / [commit]): cells linked through
     [next] in stage order, invisible to every query until committed. *)
  mutable staged_head : 'a cell;
  mutable staged_tail : 'a cell;
  mutable staged_n : int;
  (* Work counters: plain ints, so counting allocates nothing. *)
  mutable placements : int;
  mutable walk_steps : int;
  mutable pops : int;
}

let tie_bits = 11
let levels = 7
let buckets = levels * 256

let create ?(start = 0) ~dummy () =
  if start < 0 then invalid_arg "Wheel.create: negative start";
  let rec nil = { key = min_int; v = dummy; next = nil } in
  {
    dummy;
    nil;
    heads = Array.make buckets nil;
    tails = Array.make buckets nil;
    occ = Array.make (levels * 8) 0;
    cursor = start;
    free = nil;
    size = 0;
    cached = false;
    cached_key = 0;
    cached_level = 0;
    cached_bucket = 0;
    staged_head = nil;
    staged_tail = nil;
    staged_n = 0;
    placements = 0;
    walk_steps = 0;
    pops = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let cursor t = t.cursor
let placements t = t.placements
let walk_steps t = t.walk_steps
let pops t = t.pops

(* Highest differing radix-256 digit of [x], the xor of two bucketed parts
   (so [x < 2^51]); 0 for [x < 256], including [x = 0]. *)
let level_of_xor x =
  if x >= 1 lsl 32 then
    if x >= 1 lsl 48 then 6 else if x >= 1 lsl 40 then 5 else 4
  else if x >= 1 lsl 16 then (if x >= 1 lsl 24 then 3 else 2)
  else if x >= 1 lsl 8 then 1
  else 0

let digit u l = (u lsr (8 * l)) land 0xff

(* Canonical slot index [(level lsl 8) lor bucket] of [key] against the
   cursor [cur]. One int rather than a pair: no tuple on the hot path. *)
let slot_of cur key =
  let u = key lsr tie_bits in
  let l = level_of_xor (u lxor (cur lsr tie_bits)) in
  (l lsl 8) lor digit u l

(* ctz of a 32-bit value via de Bruijn multiplication. *)
let debruijn_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 bits =
  debruijn_table.(((bits land -bits) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* The occupancy bit of slot [i] is bit [i land 31] of word [i lsr 5]:
   8 words of 32 bits per level. *)
let set_bit t i =
  let w = i lsr 5 in
  t.occ.(w) <- t.occ.(w) lor (1 lsl (i land 31))

let clear_bit t i =
  let w = i lsr 5 in
  t.occ.(w) <- t.occ.(w) land lnot (1 lsl (i land 31))

(* Smallest occupied bucket index [>= from] at level [l], or -1. All the
   recursive helpers below are top-level (not nested [let rec]) on
   purpose: a nested recursive function is a closure, and without flambda
   that is one allocation per call — on the per-event path. *)
let rec occ_scan occ l w0 from w =
  if w > 7 then -1
  else begin
    let bits = occ.((l lsl 3) lor w) in
    let bits = if w = w0 then bits land ((-1) lsl (from land 31)) else bits in
    if bits = 0 then occ_scan occ l w0 from (w + 1)
    else (w lsl 5) lor ctz32 bits
  end

let first_occupied t l ~from =
  if from > 255 then -1 else occ_scan t.occ l (from lsr 5) from (from lsr 5)

(* Append the segment [c .. last] (with [last.next = nil]) to slot [i]. *)
let append t i c last =
  if t.heads.(i) == t.nil then begin
    t.heads.(i) <- c;
    set_bit t i
  end
  else t.tails.(i).next <- c;
  t.tails.(i) <- last

(* Stable sorted insertion of [c] into a level-0 slot, walking from [p], a
   cell with [p.key <= c.key] whose successors include one with a larger
   key (the tail), so the walk stops before [nil]. *)
let rec insert_after t p c =
  t.walk_steps <- t.walk_steps + 1;
  let nx = p.next in
  if nx.key <= c.key then insert_after t nx c
  else begin
    c.next <- nx;
    p.next <- c
  end

(* Insert [c] (with [c.next = nil]) into level-0 slot [i], after every
   cell whose key is <= its own. The tail is checked first, so in-order
   and equal-key arrivals — the common case — append in O(1). *)
let insert0 t i c =
  let tl = t.tails.(i) in
  if tl == t.nil then begin
    t.heads.(i) <- c;
    t.tails.(i) <- c;
    set_bit t i
  end
  else if c.key >= tl.key then begin
    tl.next <- c;
    t.tails.(i) <- c
  end
  else begin
    let h = t.heads.(i) in
    if c.key < h.key then begin
      c.next <- h;
      t.heads.(i) <- c
    end
    else insert_after t h c
  end

(* Put [c] (with [c.next = nil]) into its canonical slot. *)
let place t c =
  t.placements <- t.placements + 1;
  let i = slot_of t.cursor c.key in
  if i < 256 then insert0 t i c else append t i c c

let alloc_cell t key v =
  if t.free == t.nil then { key; v; next = t.nil }
  else begin
    let c = t.free in
    t.free <- c.next;
    c.key <- key;
    c.v <- v;
    c.next <- t.nil;
    c
  end

let push t ~key v =
  if key < t.cursor then
    invalid_arg
      (Printf.sprintf "Wheel.push: key %d below cursor %d" key t.cursor);
  place t (alloc_cell t key v);
  t.size <- t.size + 1;
  t.cached <- false

(* Locate the minimum key without mutating bucket contents: lowest level
   first (cells at level [l] share all digits above [l] with the cursor,
   so every key there is smaller than any key at a higher level); level 0
   scans from the cursor's digit inclusively (keys at the cursor's own
   bucketed value are legal), higher levels exclusively (a bucket matching
   the cursor's digit would already have cascaded). A level-0 slot is
   sorted, so its head holds the minimum; at higher levels the bucket is
   in insertion order, so walk the list for the minimum. *)
let rec list_min_key t c acc =
  if c == t.nil then acc
  else begin
    t.walk_steps <- t.walk_steps + 1;
    list_min_key t c.next (if c.key < acc then c.key else acc)
  end

let rec find_min t l =
  if l >= levels then assert false
  else begin
    let d = digit (t.cursor lsr tie_bits) l in
    let from = if l = 0 then d else d + 1 in
    match first_occupied t l ~from with
    | -1 -> find_min t (l + 1)
    | b ->
        let head = t.heads.((l lsl 8) lor b) in
        t.cached <- true;
        t.cached_key <-
          (if l = 0 then head.key else list_min_key t head max_int);
        t.cached_level <- l;
        t.cached_bucket <- b
  end

let locate t =
  if t.staged_n <> 0 then invalid_arg "Wheel: staged cells pending commit";
  if t.size = 0 then invalid_arg "Wheel: empty wheel";
  if not t.cached then find_min t 0

let min_key_exn t =
  locate t;
  t.cached_key

(* First cell holding [key], in list (= insertion) order. *)
let rec first_with_key key c = if c.key = key then c.v else first_with_key key c.next

let peek_exn t =
  locate t;
  if t.cached_level = 0 then t.heads.(t.cached_bucket).v
  else
    first_with_key t.cached_key
      t.heads.((t.cached_level lsl 8) lor t.cached_bucket)

let rec redistribute t c =
  if c != t.nil then begin
    let nx = c.next in
    c.next <- t.nil;
    place t c;
    redistribute t nx
  end

let pop_exn t =
  locate t;
  let k = t.cached_key in
  (* Cascade the minimum's bucket down until the minimum sits at level 0.
     The new cursor is [k] itself: every cell of the cascaded bucket has
     key >= k and shares its digits at and above the bucket's level, so
     re-placement relative to [k] strictly descends. Walking the detached
     list in order preserves insertion order among equal keys, whether a
     cell appends (levels >= 1) or inserts stably (level 0). *)
  while t.cached_level > 0 do
    let i = (t.cached_level lsl 8) lor t.cached_bucket in
    let head = t.heads.(i) in
    t.heads.(i) <- t.nil;
    t.tails.(i) <- t.nil;
    clear_bit t i;
    t.cursor <- k;
    redistribute t head;
    (* Level 0 was empty before the cascade (the minimum was above it),
       so [k]'s slot now holds only cascaded cells, sorted, [k] first;
       other cells may have landed at intermediate levels, all above
       [k]. *)
    t.cached_level <- 0;
    t.cached_bucket <- (k lsr tie_bits) land 0xff
  done;
  t.cursor <- k;
  let b = t.cached_bucket in
  let c = t.heads.(b) in
  let nx = c.next in
  t.heads.(b) <- nx;
  if nx == t.nil then begin
    t.tails.(b) <- t.nil;
    clear_bit t b;
    t.cached <- false
  end
  else
    (* The slot is sorted and is the lowest occupied one: its next cell
       is the new minimum, and the memo stays valid for it. *)
    t.cached_key <- nx.key;
  t.size <- t.size - 1;
  t.pops <- t.pops + 1;
  let v = c.v in
  (* Release onto the freelist, cleared so the wheel never retains a
     reference to a popped element. *)
  c.v <- t.dummy;
  c.key <- 0;
  c.next <- t.free;
  t.free <- c;
  v

let drop_exn t = ignore (pop_exn t)

(* Batched insertion. [stage] buffers cells on a private chain in call
   order; [commit] splices the chain into the canonical buckets. At levels
   >= 1 the chain walk attaches each maximal run of consecutive cells
   sharing a slot as one pre-linked segment, so a broadcast whose flights
   land in the same bucket costs one bucket append instead of n-1; level-0
   cells are inserted one at a time, sorted, exactly as [push] would.
   Insertion order within the chain is preserved verbatim, which is the
   order individual [push]es would have produced — the FIFO tie-break and
   canonical placement invariants are untouched. *)

let stage t ~key v =
  if key < t.cursor then
    invalid_arg
      (Printf.sprintf "Wheel.stage: key %d below cursor %d" key t.cursor);
  let c = alloc_cell t key v in
  if t.staged_head == t.nil then t.staged_head <- c
  else t.staged_tail.next <- c;
  t.staged_tail <- c;
  t.staged_n <- t.staged_n + 1

(* Last cell of the maximal run starting at [last] whose canonical slot is
   [i] (a level >= 1 slot), counting each cell as one placement.
   Top-level, like the other per-event helpers: a nested [let rec] is a
   closure allocation per call without flambda. *)
let rec run_end t i last =
  t.placements <- t.placements + 1;
  let nx = last.next in
  if nx != t.nil && slot_of t.cursor nx.key = i then run_end t i nx else last

let rec commit_chain t c =
  if c != t.nil then begin
    let i = slot_of t.cursor c.key in
    if i < 256 then begin
      let after = c.next in
      c.next <- t.nil;
      t.placements <- t.placements + 1;
      insert0 t i c;
      commit_chain t after
    end
    else begin
      let last = run_end t i c in
      let after = last.next in
      last.next <- t.nil;
      append t i c last;
      commit_chain t after
    end
  end

let staged_count t = t.staged_n

(* Snapshot support: visit the dummy plus every committed cell's value.
   Freelist cells hold [dummy] (reset on release), so this covers every
   element value reachable through the wheel's marshalled graph. Staged
   cells are deliberately not visited — Engine.snapshot refuses to run
   while a batch is pending. *)
let rec iter_chain nil f c =
  if c != nil then begin
    f c.v;
    iter_chain nil f c.next
  end

let iter_values t f =
  f t.dummy;
  for i = 0 to buckets - 1 do
    iter_chain t.nil f t.heads.(i)
  done

let commit t =
  if t.staged_n > 0 then begin
    let head = t.staged_head in
    t.staged_head <- t.nil;
    t.staged_tail <- t.nil;
    t.size <- t.size + t.staged_n;
    t.staged_n <- 0;
    t.cached <- false;
    commit_chain t head
  end
