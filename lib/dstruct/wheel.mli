(** Hierarchical timing wheel: a priority queue over non-negative integer
    keys (simulation timestamps), radix 256, 7 levels.

    A key splits in two: the {e bucketed part} [key lsr tie_bits] (for the
    engine: the event's µs) and the low {!tie_bits} {e tie bits} (the
    creator rank). The levels bucket on the bucketed part only, so a
    level-0 slot holds one bucketed value, and the cells of a level-0 slot
    are kept sorted by the full key (stable insertion, tail checked first:
    in-order and equal-key arrivals append in O(1)). Placement among slots
    is canonical, a function of the key and the {!cursor} only.

    Key range: keys must be non-negative. The bucketed part of a
    non-negative OCaml int has at most 51 bits, which the seven radix-256
    levels (56 bits) cover, so there is no overflow level and every
    non-negative key is accepted.

    Contract (shared with {!Pqueue} + insertion tickets, and relied on by
    the discrete-event engine): {!pop_exn} returns elements in
    nondecreasing key order — the full key, tie bits included — and
    elements with {e equal} keys come out in insertion order (FIFO).
    [test/test_wheel.ml] checks both against the binary heap on identical
    workloads.

    Unlike {!Pqueue} the wheel is monotone: a pushed key must be [>=] the
    key of the last popped element (the cursor). The engine satisfies this
    by construction — events are never scheduled in the past.

    Costs: {!push} is O(1) above level 0 and O(1) at level 0 for in-order
    arrivals; an out-of-order level-0 arrival walks its slot, whose
    distinct keys are bounded by the [2^tie_bits] tie values. {!pop_exn} is
    O(bucket scan) with each element cascading down at most once per
    level, so amortized O(levels) worst case and O(1) for the dense
    schedules simulations produce. Popped cells go onto an internal
    freelist that the next push reuses, and a released cell is reset to
    [dummy], so a push/pop-balanced workload allocates nothing in the
    steady state and the wheel never keeps a popped element alive. *)

type 'a t

(** Number of low key bits the wheel orders by but does not bucket on
    (11). [Sim.Engine.rank_bits] is defined as this constant: the
    engine's creator rank lives in exactly these bits. *)
val tie_bits : int

(** [create ?start ~dummy ()] is an empty wheel whose cursor begins at
    [start] (default 0). [dummy] is stored in recycled cells; it is never
    returned. *)
val create : ?start:int -> dummy:'a -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Key of the last popped element ([start] if none yet): the floor for
    future pushes. *)
val cursor : 'a t -> int

(** [push t ~key v] inserts [v] at [key]. Raises [Invalid_argument] if
    [key < cursor t]. *)
val push : 'a t -> key:int -> 'a -> unit

(** Smallest key present. Scans but never reorders (safe before deciding
    not to pop); the scan is memoized until the next push, or the next
    pop that empties the minimum's slot. Raises [Invalid_argument] on an
    empty wheel. *)
val min_key_exn : 'a t -> int

(** Element {!pop_exn} would return, without removing it. Raises
    [Invalid_argument] on an empty wheel. *)
val peek_exn : 'a t -> 'a

(** Remove and return the minimum element (FIFO among equal keys), and
    advance the cursor to its key. Raises [Invalid_argument] on an empty
    wheel. *)
val pop_exn : 'a t -> 'a

(** [pop_exn] without the result. *)
val drop_exn : 'a t -> unit

(** {2 Batched insertion}

    A broadcast schedules n-1 deliveries from inside one event handler;
    staging lets the wheel splice them in bucket-sized runs instead of
    n-1 independent bucket appends. *)

(** [stage t ~key v] buffers an insertion on a private chain, invisible to
    every query until {!commit}. Staged cells reuse the freelist exactly
    like {!push}. Raises [Invalid_argument] if [key < cursor t]. *)
val stage : 'a t -> key:int -> 'a -> unit

(** [commit t] splices every staged cell into its canonical bucket, in
    stage order — the resulting wheel state is {e identical} to having
    {!push}ed each cell individually, including the FIFO tie-break among
    equal keys. Above level 0, consecutive staged cells sharing a bucket
    attach as one pre-linked segment; level-0 cells are inserted one at a
    time, sorted. No-op when nothing is staged.

    {!pop_exn} / {!peek_exn} / {!min_key_exn} raise [Invalid_argument]
    while cells are staged: commit before the next query (the engine
    commits before returning to its event loop, so the cursor cannot move
    between a stage and its commit). *)
val commit : 'a t -> unit

(** Number of staged, not-yet-committed cells. [Engine.snapshot] refuses
    to run while this is nonzero. *)
val staged_count : 'a t -> int

(** [iter_values t f] applies [f] to [dummy] and then to every committed
    element, in unspecified order. Snapshot support (DESIGN.md §16): the
    engine walks every element value reachable through the wheel's graph —
    including the [dummy] that recycled freelist cells alias — to swizzle
    packed event functions before marshalling. Staged cells are not
    visited. Not for general iteration. *)
val iter_values : 'a t -> ('a -> unit) -> unit

(** {2 Work counters}

    Deterministic counts of the wheel's work since {!create}, kept in
    plain int fields (counting allocates nothing). They depend only on the
    sequence of operations, never on the clock, so a test can bound them. *)

(** Cells put into a slot: one per {!push} or committed {!stage}, plus one
    per cascade re-placement. *)
val placements : 'a t -> int

(** List cells visited while locating a minimum above level 0 or while
    inserting out of order into a sorted level-0 slot. *)
val walk_steps : 'a t -> int

(** Elements removed by {!pop_exn} / {!drop_exn}. *)
val pops : 'a t -> int
