(* Benchmark executable: runs one workload for a wall-clock budget and
   prints its raw measurements as one JSON object on stdout. [run.py]
   builds this program, turns the samples into the named metrics and
   prints the result line.

     pb.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] the runs go through [Harness.Run] with the null sink,
   cut into 100-simulated-ms [Run.advance] slices. With [--trace 1] each
   seed runs four times — untraced, traced ({!Traced}), with the digest
   on, and untraced again — and the per-layer figures come from those runs
   and from replaying the traced schedule through the timing wheel
   ({!Replay}). Timed passes repeat a few groups of seeds and are
   bracketed by the machine-speed probe ({!Probe}). *)

module Run = Harness.Run
module W = Workloads

let slice_us = Traced.slice_us
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------------------------------------------------------------- JSON *)

let jfloat b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" x)
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let jstring b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let jlist b f xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    xs;
  Buffer.add_char b ']'

let jobj b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, f) ->
      if i > 0 then Buffer.add_char b ',';
      jstring b k;
      Buffer.add_char b ':';
      f b)
    fields;
  Buffer.add_char b '}'

let num x b = jfloat b x
let int x b = Buffer.add_string b (string_of_int x)
let str s b = jstring b s

(* ------------------------------------------------------------ failures *)

type failure = { f_run : string; f_check : string; f_detail : string }

let failures : failure list ref = ref []
let failures_lock = Mutex.create ()

let record_failure ~run (check, detail) =
  Mutex.lock failures_lock;
  failures := { f_run = run; f_check = check; f_detail = detail } :: !failures;
  Mutex.unlock failures_lock

(* ----------------------------------------------------------- one run *)

type run_rec = {
  r_name : string;
  r_env_ns : int;
  r_start_ns : int;
  r_advance_ns : int;
  r_finish_ns : int;
  r_wall_ns : int;  (** Env.make through the output checks *)
  r_sent : int;
  r_delivered : int;
  r_minor_words : float;
  r_slices_ns : int array;
  r_probes_ns : int list;  (** the machine-speed probes taken in the run *)
  r_result : Run.result option;
}

let failed_run =
  {
    r_name = "";
    r_env_ns = 0;
    r_start_ns = 0;
    r_advance_ns = 0;
    r_finish_ns = 0;
    r_wall_ns = 0;
    r_sent = 0;
    r_delivered = 0;
    r_minor_words = 0.;
    r_slices_ns = [||];
    r_probes_ns = [];
    r_result = None;
  }

let run_name (c : W.cell) seed = Printf.sprintf "%s#%Ld" c.W.label seed
let leader = Option.fold ~none:"-" ~some:string_of_int

(* With [probe], the machine-speed probe runs between two slices whenever
   this much wall time has passed since the last one, so that it samples
   the machine throughout a long run. *)
let probe_every_ns = 100_000_000

(* One untraced run, in 100-simulated-ms slices, with its output checks.
   Never raises: an exception is a failed run. *)
let run_cell ?(digest = false) ?(probe = false) (c : W.cell) ~seed =
  let name = run_name c seed in
  try
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let env = W.make_env c in
    let t1 = Clock.now_ns () in
    let live =
      Run.start ~spec:(Run.Spec.with_digest digest (W.spec c)) ~env ~seed ()
    in
    let t2 = Clock.now_ns () in
    let horizon_us = Sim.Time.to_us c.W.horizon in
    let nslices = (horizon_us + slice_us - 1) / slice_us in
    let slices = Array.make nslices 0 in
    let advance = ref 0 in
    let probes = ref [] and last_probe = ref t2 in
    for i = 0 to nslices - 1 do
      let until = Sim.Time.of_us (min horizon_us ((i + 1) * slice_us)) in
      let a = Clock.now_ns () in
      Run.advance live ~until;
      let b = Clock.now_ns () in
      slices.(i) <- b - a;
      advance := !advance + (b - a);
      if probe && b - !last_probe >= probe_every_ns then begin
        probes := Probe.run_ns () :: !probes;
        last_probe := Clock.now_ns ()
      end
    done;
    let t3 = Clock.now_ns () in
    let result = Run.finish live in
    let t4 = Clock.now_ns () in
    let fails = W.check c result in
    let t5 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    List.iter (record_failure ~run:name) fails;
    {
      r_env_ns = t1 - t0;
      r_start_ns = t2 - t1;
      r_advance_ns = !advance;
      r_finish_ns = t4 - t3;
      r_wall_ns = t5 - t0 - List.fold_left ( + ) 0 !probes;
      r_sent = result.Run.messages_sent;
      r_delivered = result.Run.messages_delivered;
      r_minor_words = w1 -. w0;
      r_slices_ns = slices;
      r_probes_ns = !probes;
      r_result = Some result;
      r_name = name;
    }
  with e ->
    record_failure ~run:name ("raised", Printexc.to_string e);
    { failed_run with r_name = name }

(* Run seeds are a function of the workload seed and the run's index. *)
let run_seed ~seed i = Int64.of_int ((seed * 100_003) + i)

(* ------------------------------------------------ timed (untraced) mode *)

(* A pass is one unit of repeated work: one run on a long workload, one
   whole sweep over the pool on [sweep-small]. Passes of the same [group]
   run the same seeds, so they repeat the same simulated work. *)
type pass = {
  p_group : int;
  p_jobs : int;  (** domains the pass's runs share *)
  p_wall_ns : int;
  p_runs : run_rec array;
  p_top_heap_words : int;  (** the process's peak major heap so far *)
}

let finish_pass ~group ~jobs ~wall_ns runs =
  {
    p_group = group;
    p_jobs = jobs;
    p_wall_ns = wall_ns;
    p_runs = runs;
    p_top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(* A measured pass with what brackets it: the set-up samples taken just
   before it and every machine-speed probe taken on either side of it and
   inside it. *)
type sample = { s_pass : pass; s_setup_ns : int list; s_probes_ns : int list }

let sample_json { s_pass = p; s_setup_ns; s_probes_ns } b =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 p.p_runs in
  jobj b
    [
      ("group", int p.p_group);
      ("jobs", int p.p_jobs);
      ("wall_s", num (s_of_ns p.p_wall_ns));
      ( "other_s",
        num (s_of_ns (sum (fun r -> r.r_wall_ns - r.r_advance_ns))) );
      ("runs", int (Array.length p.p_runs));
      ("advance_s", num (s_of_ns (sum (fun r -> r.r_advance_ns))));
      ("sent", int (sum (fun r -> r.r_sent)));
      ( "run_words",
        fun b ->
          jlist b (fun b r -> jfloat b r.r_minor_words) (Array.to_list p.p_runs)
      );
      ( "run_sent",
        fun b -> jlist b (fun b r -> int r.r_sent b) (Array.to_list p.p_runs) );
      ( "top_heap_mb",
        num
          (float_of_int (p.p_top_heap_words * (Sys.word_size / 8))
          /. (1024. *. 1024.)) );
      ( "slices_ms",
        fun b ->
          jlist b jfloat
            (Array.to_list p.p_runs
            |> List.concat_map (fun r ->
                   List.map ms_of_ns (Array.to_list r.r_slices_ns))) );
      ( "setup_s",
        fun b -> jlist b (fun b x -> jfloat b (s_of_ns x)) s_setup_ns );
      ( "probes_ms",
        fun b -> jlist b (fun b x -> jfloat b (ms_of_ns x)) s_probes_ns );
    ]

let sweep_jobs = 2
let setup_per_pass = 2

(* Set-up alone: [Env.make] + [Run.start] of every cell of the workload,
   plus the pool's creation on the sweep. *)
let setup_once workload ~seed ~rep =
  let cells =
    match workload with `Long c -> [ c ] | `Sweep -> W.sweep_cells
  in
  let t0 = Clock.now_ns () in
  let pool =
    match workload with
    | `Sweep -> Some (Parallel.Pool.create ~jobs:sweep_jobs ())
    | `Long _ -> None
  in
  List.iteri
    (fun k c ->
      let env = W.make_env c in
      let seed = run_seed ~seed (10_000 + (rep * 64) + k) in
      ignore (Sys.opaque_identity (Run.start ~spec:(W.spec c) ~env ~seed ())))
    cells;
  let dt = Clock.now_ns () - t0 in
  Option.iter Parallel.Pool.shutdown pool;
  dt

(* The sweep's cells with their indices, largest n and then longest horizon
   first. The pool takes them in this order, so a pass ends on the short
   n = 8 cells and its wall time does not hinge on when one of the n = 16
   cells, each several times longer, happens to start. *)
let sweep_order =
  List.mapi (fun k c -> (k, c)) W.sweep_cells
  |> List.stable_sort (fun (_, (a : W.cell)) (_, (b : W.cell)) ->
         compare (b.W.n, b.W.horizon) (a.W.n, a.W.horizon))
  |> Array.of_list

let sweep_pass ~seed ~group =
  let ncells = Array.length sweep_order in
  let t0 = Clock.now_ns () in
  let pool = Parallel.Pool.create ~jobs:sweep_jobs () in
  let runs =
    Parallel.Pool.run pool
      (Array.map
         (fun (k, c) () ->
           run_cell c ~seed:(run_seed ~seed ((group * ncells) + k)))
         sweep_order)
  in
  Parallel.Pool.shutdown pool;
  finish_pass ~group ~jobs:sweep_jobs ~wall_ns:(Clock.now_ns () - t0) runs

(* Warm-up before the clock starts: the probe's table, and one pass whose
   results are dropped (on a long workload, its first simulated second
   only). *)
let warm_up workload ~seed =
  ignore (Probe.run_ns ());
  match workload with
  | `Long c ->
      let c =
        {
          c with
          W.horizon = Sim.Time.min c.W.horizon (Sim.Time.of_sec 1);
          expect = W.Anything;
        }
      in
      ignore (run_cell c ~seed:(run_seed ~seed 20_000))
  | `Sweep -> ignore (sweep_pass ~seed ~group:1_000)

let long_pass (c : W.cell) ~seed ~group =
  let r = run_cell ~probe:true c ~seed:(run_seed ~seed group) in
  finish_pass ~group ~jobs:1 ~wall_ns:r.r_wall_ns [| r |]

(* An execution cycles through a few groups, each a pass over its own run
   seeds, so that every simulated slice is timed several times over the
   same work and pbstats.py can keep the time of its least disturbed
   repeats. More groups average out more seed-to-seed differences; fewer
   repeat each one more often in the budget. gossip-n64's passes take
   seconds and hold 50 slices each, so it takes the two groups that
   slice_ms_p90's 100 slices need. On the sweep about one seed in seven
   makes a partition cell allocate three times as much per message, so it
   takes four groups for minor_words_per_msg to keep a typical seed of
   each cell (see pbstats.py). *)
let groups = function
  | `Long c when c.W.label = "gossip-n64" -> 2
  | `Long _ | `Sweep -> 4

(* Every group repeats at least this often, whatever the deadline. *)
let min_repeats = 3

(* The repeats of a group must agree on every count: the simulation is
   deterministic, so a difference is a failed run. *)
let check_repeat seen (p : pass) =
  Array.iteri
    (fun k r ->
      match r.r_result with
      | None -> ()
      | Some res -> (
          let counts = (r.r_sent, r.r_delivered, res.Run.final_leader) in
          match Hashtbl.find_opt seen (p.p_group, k) with
          | None -> Hashtbl.add seen (p.p_group, k) counts
          | Some ((sent, delivered, first_leader) as first) ->
              if first <> counts then
                record_failure ~run:r.r_name
                  ( "repeat",
                    Printf.sprintf
                      "sent %d delivered %d leader %s; first run of the seed \
                       %d %d %s"
                      r.r_sent r.r_delivered
                      (leader res.Run.final_leader)
                      sent delivered (leader first_leader) )))
    p.p_runs

let timed workload ~seed ~seconds =
  warm_up workload ~seed;
  let pass =
    match workload with
    | `Long c -> long_pass c ~seed
    | `Sweep -> sweep_pass ~seed
  in
  let deadline = Clock.now_ns () + (seconds * 1_000_000_000) in
  let groups = groups workload in
  let seen = Hashtbl.create 64 in
  let measured index =
    let setup =
      List.init setup_per_pass (fun k ->
          (* From a settled heap: the previous pass's collection debt
             would otherwise land in whichever set-up triggers it. *)
          Gc.full_major ();
          setup_once workload ~seed ~rep:((index * setup_per_pass) + k))
    in
    let before = Probe.run_ns () in
    let p = pass ~group:(index mod groups) in
    let after = Probe.run_ns () in
    check_repeat seen p;
    let inside =
      Array.to_list p.p_runs |> List.concat_map (fun r -> r.r_probes_ns)
    in
    { s_pass = p; s_setup_ns = setup; s_probes_ns = before :: after :: inside }
  in
  (* Whole rounds of the groups only, so that each repeats as often. *)
  let rec loop index acc =
    if
      index mod groups = 0
      && index >= min_repeats * groups
      && Clock.now_ns () >= deadline
    then List.rev acc
    else loop (index + 1) (measured index :: acc)
  in
  let samples = loop 0 [] in
  [
    ( "attempted",
      int
        (List.fold_left
           (fun n s -> n + Array.length s.s_pass.p_runs)
           0 samples) );
    ("passes", fun b -> jlist b (fun b s -> sample_json s b) samples);
  ]

(* ------------------------------------------------------- traced mode *)

let tag_of ev = Obs.Event.tag ev

let tag_round_close =
  tag_of (Round_close { now = 0; pid = 0; rn = 0; suspected = 0 })

let tag_suspicion =
  tag_of (Suspicion { now = 0; pid = 0; target = 0; level = 0 })

let tag_leader = tag_of (Leader_change { now = 0; pid = 0; leader = 0 })
let tag_relay = tag_of (Relay_round { now = 0; pid = 0; rn = 0; stale = 0 })

let tag_accuse =
  tag_of (Accusation { now = 0; pid = 0; target = 0; level = 0 })

let fault_tags =
  List.map tag_of
    [
      Obs.Event.Partition { now = 0; groups = 0 };
      Recover { now = 0; pid = 0 };
      Adversary_move { now = 0; target = 0 };
      Edge_fault { now = 0; a = 0; b = 0; state = 0 };
      Rack_fault { now = 0; rack = 0; state = 0 };
    ]

(* Per-layer accumulators over every traced seed of the workload. *)
type acc = {
  mutable cells : int;
  mutable env_ns : int;
  mutable start_ns : int;
  mutable finish_ns : int;
  mutable samples : int;
  mutable sent : int;
  mutable delivered : int;
  mutable rounds : float;
  mutable advance_ns : int;
  mutable untraced_ns : int;
  mutable traced_ns : int;
  mutable digest_ns : int;
  mutable executed : int;
  mutable pending_peak : int;
  mutable oracle_calls : int;
  mutable oracle_ns : int;
  mutable handle_calls : int;
  mutable handle_ns : int;
  mutable gossip_sent : int;
  counts : int array;
  mutable faulted : int;
  mutable fault_actions : int;
  mutable pushes : int;
  mutable pops : int;
  mutable push_ns : float;
  mutable pop_ns : float;
  mutable minor_coll : int;
  mutable major_coll : int;
  mutable minor_words : float;
  mutable promoted : float;
}

let new_acc () =
  {
    cells = 0;
    env_ns = 0;
    start_ns = 0;
    finish_ns = 0;
    samples = 0;
    sent = 0;
    delivered = 0;
    rounds = 0.;
    advance_ns = 0;
    untraced_ns = 0;
    traced_ns = 0;
    digest_ns = 0;
    executed = 0;
    pending_peak = 0;
    oracle_calls = 0;
    oracle_ns = 0;
    handle_calls = 0;
    handle_ns = 0;
    gossip_sent = 0;
    counts = Array.make 32 0;
    faulted = 0;
    fault_actions = 0;
    pushes = 0;
    pops = 0;
    push_ns = 0.;
    pop_ns = 0.;
    minor_coll = 0;
    major_coll = 0;
    minor_words = 0.;
    promoted = 0.;
  }

(* The four runs of one seed and the schedule replay, folded into [acc]. *)
let trace_cell acc (c : W.cell) ~seed =
  let name = run_name c seed in
  let g0 = Gc.quick_stat () in
  let r0 = run_cell c ~seed in
  let g1 = Gc.quick_stat () in
  match r0.r_result with
  | None -> ()
  | Some res ->
      let tr = Traced.create () in
      let outcome =
        try Some (Traced.run tr c ~seed)
        with e ->
          record_failure ~run:name ("traced_raised", Printexc.to_string e);
          None
      in
      let rd = run_cell ~digest:true c ~seed in
      (* The untraced run again, last: same seed, so the same counts, and
         the mean of the two walls is the reference the overheads divide
         by, whatever drift the machine had in between. *)
      let r1 = run_cell c ~seed in
      if r1.r_sent <> r0.r_sent || r1.r_delivered <> r0.r_delivered then
        record_failure ~run:name
          ( "repeat_counts",
            Printf.sprintf "rerun sent/delivered %d/%d vs %d/%d" r1.r_sent
              r1.r_delivered r0.r_sent r0.r_delivered );
      acc.cells <- acc.cells + 1;
      acc.env_ns <- acc.env_ns + r0.r_env_ns;
      acc.start_ns <- acc.start_ns + r0.r_start_ns;
      acc.finish_ns <- acc.finish_ns + r0.r_finish_ns;
      acc.samples <- acc.samples + List.length res.Run.samples;
      acc.sent <- acc.sent + r0.r_sent;
      acc.delivered <- acc.delivered + r0.r_delivered;
      acc.rounds <-
        acc.rounds
        +. (Sim.Time.to_ms_float c.W.horizon
           /. Sim.Time.to_ms_float W.beta);
      acc.advance_ns <- acc.advance_ns + r0.r_advance_ns;
      acc.untraced_ns <- acc.untraced_ns + ((r0.r_wall_ns + r1.r_wall_ns) / 2);
      acc.digest_ns <- acc.digest_ns + rd.r_wall_ns;
      acc.minor_coll <-
        acc.minor_coll + (g1.Gc.minor_collections - g0.Gc.minor_collections);
      acc.major_coll <-
        acc.major_coll + (g1.Gc.major_collections - g0.Gc.major_collections);
      acc.minor_words <-
        acc.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      acc.promoted <-
        acc.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      Option.iter
        (fun (o : Traced.outcome) ->
          if
            o.Traced.sent <> res.Run.messages_sent
            || o.Traced.delivered <> res.Run.messages_delivered
            || o.Traced.final_leader <> res.Run.final_leader
          then
            record_failure ~run:name
              ( "traced_counts",
                Printf.sprintf
                  "traced sent/delivered/leader %d/%d/%s vs untraced %d/%d/%s"
                  o.Traced.sent o.Traced.delivered
                  (leader o.Traced.final_leader)
                  res.Run.messages_sent res.Run.messages_delivered
                  (leader res.Run.final_leader) );
          acc.traced_ns <- acc.traced_ns + o.Traced.wall_ns;
          acc.executed <- acc.executed + o.Traced.executed;
          acc.pending_peak <- max acc.pending_peak tr.Traced.pending_peak;
          acc.oracle_calls <- acc.oracle_calls + tr.Traced.oracle_calls;
          acc.oracle_ns <- acc.oracle_ns + tr.Traced.oracle_ns;
          acc.handle_calls <- acc.handle_calls + tr.Traced.handle_calls;
          acc.handle_ns <- acc.handle_ns + tr.Traced.handle_ns;
          if c.W.algo = `Gossip then
            acc.gossip_sent <- acc.gossip_sent + o.Traced.sent;
          Array.iteri
            (fun i k -> acc.counts.(i) <- acc.counts.(i) + k)
            tr.Traced.counts;
          if not (Fault.Plan.is_empty c.W.plan) then begin
            acc.faulted <- acc.faulted + 1;
            acc.fault_actions <-
              acc.fault_actions
              + List.fold_left (fun s t -> s + Traced.count tr t) 0 fault_tags
          end;
          match Replay.run tr.Traced.sched with
          | exception e ->
              record_failure ~run:name ("wheel_replay", Printexc.to_string e)
          | rp ->
              if not rp.Replay.order_ok then
                record_failure ~run:name
                  ("wheel_replay", "wheel and heap pop sequences differ");
              acc.pushes <- acc.pushes + rp.Replay.pushes;
              acc.pops <- acc.pops + rp.Replay.pops;
              acc.push_ns <-
                acc.push_ns
                +. (rp.Replay.push_ns *. float_of_int rp.Replay.pushes);
              acc.pop_ns <-
                acc.pop_ns +. (rp.Replay.pop_ns *. float_of_int rp.Replay.pops))
        outcome

(* Busy and idle time of one sweep pass over the pool, each task's wall
   time measured inside the task. *)
let pool_profile ~seed =
  let cells = Array.of_list W.sweep_cells in
  let t0 = Clock.now_ns () in
  let pool = Parallel.Pool.create ~jobs:sweep_jobs () in
  let busy =
    Parallel.Pool.run pool
      (Array.mapi
         (fun k c () ->
           let a = Clock.now_ns () in
           ignore (run_cell c ~seed:(run_seed ~seed k));
           Clock.now_ns () - a)
         cells)
  in
  Parallel.Pool.shutdown pool;
  let wall = Clock.now_ns () - t0 in
  let busy = Array.fold_left ( + ) 0 busy in
  let capacity = sweep_jobs * wall in
  (float_of_int busy /. float_of_int capacity, s_of_ns (capacity - busy))

let traced workload ~seed =
  let acc = new_acc () in
  let cells =
    match workload with `Long c -> [ c ] | `Sweep -> W.sweep_cells
  in
  let busy_frac, idle_s =
    match workload with
    | `Long _ -> (0., 0.)
    | `Sweep -> pool_profile ~seed
  in
  List.iteri (fun k c -> trace_cell acc c ~seed:(run_seed ~seed k)) cells;
  let ovh = Lazy.force Clock.pair_overhead_ns in
  let fi = float_of_int in
  let per a b = if b = 0 then 0. else fi a /. fi b in
  let cellsf = fi (max 1 acc.cells) in
  let timed_call total calls =
    if calls = 0 then 0. else Float.max 0. ((fi total /. fi calls) -. ovh)
  in
  let sent = max 1 acc.sent in
  let layers =
    [
      ("harness.start_ms", ms_of_ns acc.start_ns /. cellsf);
      ("harness.finish_ms", ms_of_ns acc.finish_ns /. cellsf);
      ("harness.samples_per_run", fi acc.samples /. cellsf);
      ("scenarios.env_make_ms", ms_of_ns acc.env_ns /. cellsf);
      ("scenarios.oracle_calls_per_msg", per acc.oracle_calls sent);
      ("scenarios.oracle_ns", timed_call acc.oracle_ns acc.oracle_calls);
      ("sim.events_per_msg", per acc.executed sent);
      ("sim.ns_per_event", per acc.advance_ns acc.executed);
      ("sim.pending_peak", fi acc.pending_peak);
      ( "dstruct.wheel_push_ns",
        if acc.pushes = 0 then 0. else acc.push_ns /. fi acc.pushes );
      ( "dstruct.wheel_pop_ns",
        if acc.pops = 0 then 0. else acc.pop_ns /. fi acc.pops );
      ("net.delivered_ratio", per acc.delivered sent);
      ("net.sends_per_round", fi acc.sent /. Float.max 1. acc.rounds);
      ("net.hops_per_msg", per acc.counts.(Obs.Event.tag_hop) sent);
      ( "net.link_drops_per_msg",
        per acc.counts.(Obs.Event.tag_link_drop) sent );
      ("omega.handle_ns", timed_call acc.handle_ns acc.handle_calls);
      ( "omega.handle_calls_per_msg",
        per acc.handle_calls (max 1 acc.gossip_sent) );
      ("omega.rounds_closed", fi acc.counts.(tag_round_close) /. cellsf);
      ("omega.suspicion_raises", fi acc.counts.(tag_suspicion) /. cellsf);
      ("omega.leader_changes", fi acc.counts.(tag_leader) /. cellsf);
      ("omega.relay_rounds", fi acc.counts.(tag_relay) /. cellsf);
      ("omega.accusations", fi acc.counts.(tag_accuse) /. cellsf);
      ("obs.digest_overhead", per acc.digest_ns acc.untraced_ns);
      ("obs.trace_overhead", per acc.traced_ns acc.untraced_ns);
      ("parallel.busy_frac", busy_frac);
      ("parallel.idle_s", idle_s);
      ( "fault.actions_per_run",
        if acc.faulted = 0 then 0.
        else fi acc.fault_actions /. fi acc.faulted );
      ("gc.minor_collections", fi acc.minor_coll /. cellsf);
      ("gc.major_collections", fi acc.major_coll /. cellsf);
      ( "gc.promoted_ratio",
        if acc.minor_words = 0. then 0. else acc.promoted /. acc.minor_words );
    ]
  in
  [
    ("attempted", int (List.length cells));
    ("layers", fun b -> jobj b (List.map (fun (k, v) -> (k, num v)) layers));
  ]

(* ---------------------------------------------------------------- main *)

let workloads =
  List.map (fun c -> (c.W.label, `Long c)) W.long_workloads
  @ [ ("sweep-small", `Sweep) ]

let usage () =
  prerr_endline
    "usage: pb.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: gossip-n64 relay-n256 routed-fattree-n16 sweep-small";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  let fields =
    if !trace = 1 then traced w ~seed:!seed
    else timed w ~seed:!seed ~seconds:!seconds
  in
  let fails = List.rev !failures in
  let b = Buffer.create 65_536 in
  jobj b
    ([
       ("workload", str !workload);
       ("seed", int !seed);
       ("trace", int !trace);
       ( "failures",
         fun b ->
           jlist b
             (fun b f ->
               jobj b
                 [
                   ("run", str f.f_run);
                   ("check", str f.f_check);
                   ("detail", str f.f_detail);
                 ])
             fails );
     ]
    @ fields);
  print_string (Buffer.contents b);
  print_newline ()
