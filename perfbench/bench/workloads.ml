(* The benchmark's workloads: which simulated worlds run, and what each run
   must produce to count as correct. Every cell uses the tight config of
   the scaling experiments (initial timeout = beta, star from round 2, no
   victim-block growth) over the scenario's default delays. *)

module Run = Harness.Run
module Scenario = Scenarios.Scenario

let ms = Sim.Time.of_ms
let beta = ms 10

(* What a run must end with. [Leader p]: a stable, agreed leader [p] at the
   horizon. [Anything]: the run is sized for throughput only (or the paper
   predicts no particular leader), so only the safety checks apply. *)
type expect = Leader of int | Anything

type cell = {
  label : string;
  n : int;
  variant : Omega.Config.variant;
  algo : [ `Gossip | `Relay ];
  regime : Scenario.regime;
  block : int;  (** victim-block length in rounds *)
  topology : Net.Topology.kind;
  horizon : Sim.Time.t;
  min_stable : Sim.Time.t;
  plan : Fault.Plan.t;
  expect : expect;
}

let cell ?(variant = Omega.Config.Fig3) ?(algo = `Gossip)
    ?(topology = Net.Topology.Complete) ?(plan = Fault.Plan.empty)
    ?(min_stable = Sim.Time.of_sec 1) ~label ~n ~regime ~block ~horizon
    ~expect () =
  {
    label;
    n;
    variant;
    algo;
    regime;
    block;
    topology;
    horizon;
    min_stable;
    plan;
    expect;
  }

let config c =
  let t = (c.n - 1) / 2 in
  { (Omega.Config.default ~n:c.n ~t c.variant) with
    Omega.Config.initial_timeout = beta }

let make_env c =
  let t = (c.n - 1) / 2 in
  let params =
    {
      (Scenario.default_params ~n:c.n ~t ~beta) with
      Scenario.rn0 = 2;
      victim_block0 = c.block;
      victim_block_step = 0;
    }
  in
  Scenarios.Env.make ~params (config c) c.regime

(* No assumption checker: it costs as much as the simulation at large n
   and assumption compliance is the experiment suite's job. *)
let spec (c : cell) =
  let { horizon; min_stable; algo; topology; plan; _ } = c in
  Run.Spec.(
    default |> with_horizon horizon |> with_min_stable min_stable
    |> with_check false |> with_algo algo |> with_topology topology
    |> with_plan plan)

(* Lemma 8 is a property of the bounded-condition gossip node only. *)
let lattice_checked c =
  c.algo = `Gossip
  && Omega.Config.has_bounded_condition (config c).Omega.Config.variant

(* ---------------------------------------------------------- long runs *)

(* The stability judge wants the stable suffix to span a third of all
   rounds, so a run can only pass if it stabilizes within the first two
   thirds. Over 220 seeds stabilization came by 2.0 s on 95 % and by 3.0 s
   on all; 5 s allows 3.3 s. *)
let gossip_n64 =
  cell ~label:"gossip-n64" ~variant:Omega.Config.Fig1 ~n:64
    ~regime:(Scenario.Rotating_star { center = 62 })
    ~block:1 ~horizon:(ms 5_000) ~expect:(Leader 62) ()

let relay_n256 =
  cell ~label:"relay-n256" ~algo:`Relay ~n:256
    ~regime:(Scenario.Rotating_star { center = 254 })
    ~block:8 ~horizon:(ms 6_000) ~expect:Anything ()

(* Diameter 3: blocks of 10 + 4 (diam - 1) rounds, as the topology
   experiment scales them. Stabilization lands by ~5.4 s on every seed
   tried; 10 s keeps the stable suffix above the third of all rounds the
   stability judge asks for. *)
let routed_fattree_n16 =
  cell ~label:"routed-fattree-n16" ~n:16
    ~topology:(Net.Topology.Fat_tree { rack = 4 })
    ~regime:(Scenario.Rotating_star { center = 14 })
    ~block:18 ~horizon:(ms 10_000) ~expect:(Leader 14) ()

(* ------------------------------------------------------- short sweep *)

(* n = 8: every figure under both stars, the relay tier, and both fault
   plans; n = 16: one cell of each kind. Horizons leave the slowest seed's
   stable suffix well above the third of all rounds the stability judge
   asks for (the n = 16 relay tier has a long tail: up to 6.3 s over 200
   seeds). *)
let sweep_cells =
  let crash_recover =
    Fault.Plan.(empty |> crash 0 ~at:(ms 500) |> recover 0 ~at:(ms 1_000))
  in
  let partition n =
    Fault.Plan.(
      empty
      |> partition ~at:(ms 500) ~heal_at:(ms 1_000)
           [ [ 0; 1 ]; List.init (n - 2) (fun i -> i + 2) ])
  in
  let mk n ?(variant = Omega.Config.Fig3) ?(algo = `Gossip) ?(inter = false)
      ?(plan = Fault.Plan.empty) ~horizon name =
    let center = n - 2 in
    cell
      ~label:(Printf.sprintf "n%d-%s" n name)
      ~variant ~algo ~n ~plan
      ~regime:
        (if inter then Scenario.Intermittent_star { center; d = 2 }
         else Scenario.Rotating_star { center })
      ~block:8 ~horizon:(ms horizon) ~expect:(Leader center) ()
  in
  let open Omega.Config in
  [
    mk 8 ~variant:Fig1 ~horizon:4_000 "fig1-star";
    mk 8 ~variant:Fig2 ~horizon:4_000 "fig2-star";
    mk 8 ~variant:Fig3 ~horizon:4_000 "fig3-star";
    mk 8 ~variant:Fig2 ~inter:true ~horizon:4_000 "fig2-inter";
    mk 8 ~variant:Fig3 ~inter:true ~horizon:4_000 "fig3-inter";
    mk 8 ~algo:`Relay ~horizon:4_000 "relay-star";
    mk 8 ~plan:crash_recover ~horizon:4_000 "fig3-crash-recover";
    mk 8 ~plan:(partition 8) ~horizon:4_000 "fig3-partition";
    mk 16 ~variant:Fig1 ~horizon:8_000 "fig1-star";
    mk 16 ~variant:Fig2 ~inter:true ~horizon:8_000 "fig2-inter";
    mk 16 ~variant:Fig3 ~horizon:8_000 "fig3-star";
    mk 16 ~algo:`Relay ~horizon:16_000 "relay-star";
    mk 16 ~plan:crash_recover ~horizon:8_000 "fig3-crash-recover";
    mk 16 ~plan:(partition 16) ~horizon:8_000 "fig3-partition";
  ]

let long_workloads =
  [ gossip_n64; relay_n256; routed_fattree_n16 ]

(* ------------------------------------------------------- output checks *)

(* Every check a run's result must pass, by name. A failed check is
   reported, never dropped. *)
let check c (r : Run.result) =
  let fails = ref [] in
  let fail name detail = fails := (name, detail) :: !fails in
  if r.Run.messages_sent <= 0 then fail "messages_sent_positive" "no sends";
  if r.Run.messages_delivered > r.Run.messages_sent then
    fail "delivered_le_sent"
      (Printf.sprintf "delivered %d > sent %d" r.Run.messages_delivered
         r.Run.messages_sent);
  if lattice_checked c && r.Run.lattice_violations > 0 then
    fail "lemma8_lattice"
      (Printf.sprintf "%d violating samples" r.Run.lattice_violations);
  (match c.expect with
  | Anything -> ()
  | Leader p ->
      if Option.is_none r.Run.stabilized_at || r.Run.final_leader <> Some p
      then
        fail "stable_leader"
          (Printf.sprintf "expected p%d, got %s (stabilized %s)" p
             (match r.Run.final_leader with
             | Some l -> "p" ^ string_of_int l
             | None -> "none")
             (match r.Run.stabilized_at with
             | Some t -> Printf.sprintf "%.0fms" (Sim.Time.to_ms_float t)
             | None -> "never")));
  List.rev !fails
