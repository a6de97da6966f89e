(* The traced run: the same simulation stack [Harness.Run.start] builds,
   assembled from the public constructors so that the seams [Run] hides —
   the delay oracle and the receive handler — can be wrapped with timers
   and counters. Everything is kept in memory and reported when the run
   ends. The stack must reproduce the untraced run's message counts and
   leader exactly; the caller checks that. *)

module W = Workloads
module Stability = Harness.Stability

(* Growable int buffer: the recorded schedule. *)
type ibuf = { mutable a : int array; mutable len : int }

let ib_create () = { a = Array.make 4096 0; len = 0 }

let ib_push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* The schedule keeps at most this many operations (~24 MB). *)
let max_ops = 3_000_000

type t = {
  mutable oracle_calls : int;
  mutable oracle_ns : int;
  mutable in_handler : bool;
  mutable nested_oracle_ns : int;
  mutable handle_calls : int;
  mutable handle_ns : int;
  counts : int array;  (** sink events, indexed by {!Obs.Event.tag} *)
  sched : ibuf;
      (** engine schedule: a push is [at_us lsl 1], a pop is
          [key lsl 1 lor 1] with the popped event's canonical key *)
  mutable recording : bool;
  mutable pending_peak : int;
}

let create () =
  {
    oracle_calls = 0;
    oracle_ns = 0;
    in_handler = false;
    nested_oracle_ns = 0;
    handle_calls = 0;
    handle_ns = 0;
    counts = Array.make 32 0;
    sched = ib_create ();
    recording = true;
    pending_peak = 0;
  }

let count tr tag = tr.counts.(tag)

(* Counts every net, omega and fault event by tag; while [engine_too],
   also records the engine's pushes and pops. The scalar lane keeps the
   per-message events from being allocated. *)
let sink tr engine ~engine_too =
  let bump tag = tr.counts.(tag) <- tr.counts.(tag) + 1 in
  let scalar =
    {
      Obs.Sink.s_send =
        (fun ~now:_ ~seq:_ ~src:_ ~dst:_ _ -> bump Obs.Event.tag_send);
      s_deliver =
        (fun ~now:_ ~sent_at:_ ~seq:_ ~src:_ ~dst:_ _ ->
          bump Obs.Event.tag_deliver);
      s_drop = (fun ~now:_ ~seq:_ ~src:_ ~dst:_ _ -> bump Obs.Event.tag_drop);
      s_hop =
        (fun ~now:_ ~seq:_ ~src:_ ~dst:_ ~via:_ _ -> bump Obs.Event.tag_hop);
      s_link_drop =
        (fun ~now:_ ~seq:_ ~src:_ ~dst:_ ~hop_src:_ ~hop_dst:_ _ ->
          bump Obs.Event.tag_link_drop);
    }
  in
  let mask =
    Obs.Event.(c_net lor c_omega lor c_fault)
    lor if engine_too then Obs.Event.c_engine else 0
  in
  Obs.Sink.make ~scalar ~mask (fun ev ->
      match ev with
      | Obs.Event.Sched { at; _ } ->
          if tr.recording then ib_push tr.sched (at lsl 1)
      | Obs.Event.Fire _ ->
          if tr.recording then
            ib_push tr.sched ((Sim.Engine.executing_key engine lsl 1) lor 1)
      | ev -> bump (Obs.Event.tag ev))

(* [Scenarios.Env.build] for a lossless environment, with the unboxed
   oracle wrapped. Same classifier, same pool setting, same topology, no
   channel selector: the network draws exactly what the untraced one
   draws. *)
let build_net tr (c : W.cell) env engine =
  let module Scenario = Scenarios.Scenario in
  let scenario =
    Scenario.create (Scenarios.Env.params env) (Scenarios.Env.regime env)
      ~seed:(Scenarios.Env.scenario_seed env)
  in
  let oracle ~now ~seq ~src ~dst msg =
    Scenario.oracle_rn scenario ~round_of:Scenario.round_rn_of_omega ~now
      ~seq ~src ~dst msg
  in
  let oracle_us ~now ~seq ~at ~src ~dst msg =
    let a = Clock.now_ns () in
    let d =
      Scenario.oracle_us scenario ~round_of:Scenario.round_rn_of_omega ~now
        ~seq ~at ~src ~dst msg
    in
    let dt = Clock.now_ns () - a in
    tr.oracle_calls <- tr.oracle_calls + 1;
    tr.oracle_ns <- tr.oracle_ns + dt;
    if tr.in_handler then tr.nested_oracle_ns <- tr.nested_oracle_ns + dt;
    d
  in
  let spec =
    Net.Spec.default
    |> Net.Spec.with_classify Omega.Message.info
    |> Net.Spec.with_pool true
    |> Net.Spec.with_topology c.W.topology
    |> Net.Spec.with_oracle oracle
    |> Net.Spec.with_oracle_us oracle_us
  in
  (scenario, Net.Network.of_spec spec engine ~n:c.W.n)

(* Gossip nodes: re-install each receive handler as a timed call into
   [Omega.Node.handle]. The relay tier keeps its handlers private, so its
   handler time is not measured. *)
let wrap_handlers tr cluster net n =
  for p = 0 to n - 1 do
    let node = Omega.Cluster.node cluster p in
    Net.Network.set_handler net p (fun ~src msg ->
        let nested0 = tr.nested_oracle_ns in
        tr.in_handler <- true;
        let a = Clock.now_ns () in
        Omega.Node.handle node ~src msg;
        let dt = Clock.now_ns () - a in
        tr.in_handler <- false;
        tr.handle_calls <- tr.handle_calls + 1;
        tr.handle_ns <- tr.handle_ns + dt - (tr.nested_oracle_ns - nested0))
  done

(* The harness sampler, rebuilt: same period, same rank, same queries. *)
type sampler = {
  s_engine : Sim.Engine.t;
  s_iface : Omega.Iface.t;
  s_net : Omega.Message.t Net.Network.t;
  s_horizon : Sim.Time.t;
  s_every : Sim.Time.t;
  mutable s_samples : Stability.sample list;
  mutable s_lattice : int;
}

let rec sample_task st =
  let correct = Net.Network.correct st.s_net in
  let round =
    List.fold_left
      (fun acc p -> min acc (Omega.Iface.receiving_round st.s_iface p))
      max_int correct
  in
  ignore (Omega.Iface.leaders st.s_iface);
  st.s_samples <-
    {
      Stability.time = Sim.Engine.now st.s_engine;
      round;
      agreed = Omega.Iface.agreed_leader st.s_iface;
    }
    :: st.s_samples;
  List.iter
    (fun p ->
      if not (Omega.Iface.lattice_invariant_holds st.s_iface p) then
        st.s_lattice <- st.s_lattice + 1;
      ignore (Omega.Iface.round_state_cardinal st.s_iface p))
    correct;
  if Sim.Time.(Sim.Engine.now st.s_engine < st.s_horizon) then
    Sim.Engine.call_after st.s_engine st.s_every sample_task st

type outcome = {
  sent : int;
  delivered : int;
  final_leader : int option;
  stabilized : bool;
  lattice_violations : int;
  executed : int;
  wall_ns : int;
}

let slice_us = 100_000

(* One traced run of [c] under [seed], in the order [Run.start] builds and
   starts its stack. *)
let run tr (c : W.cell) ~seed =
  let t0 = Clock.now_ns () in
  let env = W.make_env c in
  let config = Scenarios.Env.config env in
  let engine = Sim.Engine.create ~queue:`Wheel ~seed () in
  let scenario, net = build_net tr c env engine in
  let iface =
    match c.W.algo with
    | `Gossip ->
        let cl = Omega.Cluster.create config net in
        wrap_handlers tr cl net c.W.n;
        Omega.Cluster.iface cl
    | `Relay -> Omega.Lean.iface (Omega.Lean.create config net)
  in
  let injector =
    if Fault.Plan.is_empty c.W.plan then None
    else Some (Fault.Injector.attach c.W.plan ~iface ~scenario)
  in
  let recording = sink tr engine ~engine_too:true in
  let counting = sink tr engine ~engine_too:false in
  let with_adaptive s =
    match injector with
    | Some inj when Fault.Injector.adaptive_in_plan c.W.plan ->
        Obs.Sink.tee [ s; Fault.Injector.sink inj ]
    | Some _ | None -> s
  in
  Sim.Engine.set_sink engine (with_adaptive recording);
  let st =
    {
      s_engine = engine;
      s_iface = iface;
      s_net = net;
      s_horizon = c.W.horizon;
      s_every = Sim.Time.of_ms 100;
      s_samples = [];
      s_lattice = 0;
    }
  in
  Omega.Iface.start iface;
  Sim.Engine.set_harness_rank engine;
  Sim.Engine.call_after engine st.s_every sample_task st;
  let horizon_us = Sim.Time.to_us c.W.horizon in
  let until = ref 0 in
  while !until < horizon_us do
    until := min horizon_us (!until + slice_us);
    Sim.Engine.run_until engine (Sim.Time.of_us !until);
    let p = Sim.Engine.pending engine in
    if p > tr.pending_peak then tr.pending_peak <- p;
    if tr.recording && tr.sched.len >= max_ops then begin
      (* Stop recording between slices: the counting sink alone builds no
         engine events. *)
      tr.recording <- false;
      Sim.Engine.set_sink engine (with_adaptive counting)
    end
  done;
  let verdict =
    Stability.judge ~horizon:c.W.horizon ~min_window:c.W.min_stable
      (List.rev st.s_samples)
  in
  let t1 = Clock.now_ns () in
  {
    sent = Net.Network.sent_count net;
    delivered = Net.Network.delivered_count net;
    final_leader = verdict.Stability.final_leader;
    stabilized = Option.is_some verdict.Stability.stabilized_at;
    lattice_violations = st.s_lattice;
    executed = Sim.Engine.executed engine;
    wall_ns = t1 - t0;
  }
