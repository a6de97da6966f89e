"""Statistics and metric definitions shared by run.py, steady.py and ab.py.

The OCaml program (bench/pb.ml) prints raw samples; this module turns them
into the named metrics the benchmark reports.
"""

import math
import re
import statistics

# End-to-end metrics, measured with tracing off: name -> (unit, better).
END_TO_END = {
    "ns_per_msg": ("ns", "lower"),
    "slice_ms_p50": ("ms", "lower"),
    "slice_ms_p90": ("ms", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "minor_words_per_msg": ("words", "lower"),
    "top_heap_mb": ("MiB", "lower"),
}

# Printed with the end-to-end metrics but kept out of the result line: it
# is 0 on every healthy run, and the result line's "failed"/"attempted"
# already carry it.
FAILED_FRAC = ("failed_frac", "ratio")

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "harness.start_ms": ("ms", "lower"),
    "harness.finish_ms": ("ms", "lower"),
    "harness.samples_per_run": ("count", "lower"),
    "scenarios.env_make_ms": ("ms", "lower"),
    "scenarios.oracle_calls_per_msg": ("count", "lower"),
    "scenarios.oracle_ns": ("ns", "lower"),
    "sim.events_per_msg": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "sim.pending_peak": ("count", "lower"),
    "dstruct.wheel_push_ns": ("ns", "lower"),
    "dstruct.wheel_pop_ns": ("ns", "lower"),
    "net.delivered_ratio": ("ratio", "higher"),
    "net.sends_per_round": ("count", "lower"),
    "net.hops_per_msg": ("count", "lower"),
    "net.link_drops_per_msg": ("count", "lower"),
    "omega.handle_ns": ("ns", "lower"),
    "omega.handle_calls_per_msg": ("count", "lower"),
    "omega.rounds_closed": ("count", "lower"),
    "omega.suspicion_raises": ("count", "lower"),
    "omega.leader_changes": ("count", "lower"),
    "omega.relay_rounds": ("count", "lower"),
    "omega.accusations": ("count", "lower"),
    "obs.digest_overhead": ("ratio", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
    "parallel.busy_frac": ("ratio", "higher"),
    "parallel.idle_s": ("s", "lower"),
    "fault.actions_per_run": ("count", "lower"),
    "gc.minor_collections": ("count", "lower"),
    "gc.major_collections": ("count", "lower"),
    "gc.promoted_ratio": ("ratio", "lower"),
}

WORKLOADS = ["gossip-n64", "relay-n256", "routed-fattree-n16", "sweep-small"]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name):
    """A metric or workload name: a letter or digit, then at most 63 more
    letters, digits, '_', '.' or '-'."""
    return isinstance(name, str) and bool(_NAME.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(_UNIT.match(unit))


def check_names(names):
    """Raises ValueError on an invalid or repeated name."""
    seen = set()
    for name in names:
        if not valid_name(name):
            raise ValueError("invalid metric name: %r" % (name,))
        if name in seen:
            raise ValueError("metric name used twice: %r" % (name,))
        seen.add(name)


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def spread(xs):
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def tail_percentile(xs, p):
    """Nearest-rank p-quantile of xs, refused unless at least ten samples lie
    beyond it: a tail figure resting on fewer is noise."""
    n = len(xs)
    if not 0 < p < 1:
        raise ValueError("percentile out of range: %r" % (p,))
    rank = max(1, math.ceil(p * n))
    beyond = n - rank
    if beyond < 10:
        raise ValueError(
            "p%g needs at least 10 samples beyond it; %d samples leave %d"
            % (100 * p, n, beyond)
        )
    return sorted(xs)[rank - 1]


def time_median(xs):
    """The median of xs weighted by their own size: the slice time at which
    half of all the time is spent in shorter slices. sweep-small mixes
    sub-millisecond n = 8 slices with n = 16 slices several times longer,
    and its plain median sat where the two meet, spreading 0.09-0.24
    between sets of executions; weighted, it falls inside the n = 16
    slices."""
    if not xs:
        raise ValueError("median of no samples")
    xs = sorted(xs)
    half, acc = sum(xs) / 2, 0.0
    for x in xs:
        acc += x
        if acc >= half:
            return x
    return xs[-1]


def count_failed(failures, attempted):
    """Failed runs (a run failing several checks counts once) and their
    share of the runs attempted."""
    if attempted < 1:
        raise ValueError("no run attempted")
    failed = len({f["run"] for f in failures})
    if failed > attempted:
        raise ValueError("%d failed runs out of %d attempted" % (failed, attempted))
    return failed, failed / attempted


def low_quantile(xs, q, key=None):
    """Nearest-rank q-quantile of xs, taken at rank floor(q * n) and never
    below the smallest sample."""
    if not xs:
        raise ValueError("quantile of no samples")
    return sorted(xs, key=key)[max(1, math.floor(q * len(xs))) - 1]


# Timings keep the lower quartile of a slice's repeats, and the machine's
# speed is read from the probe's lower quartile.
REPEAT_QUANTILE = 0.25
PROBE_QUANTILE = 0.25

# The probe's lower quartile (bench/probe.ml) on this container's host when
# its neighbours are quiet. Every timing is scaled to it.
PROBE_REF_MS = 2.4

# The simulator slows more than the probe when neighbours load the host.
# Over the passes of 40 s executions swinging between quiet and loaded
# phases, log(ns per message) against log(probe time) had slope 1.5-2.0 on
# the long workloads; across 15 executions per workload, taken in quiet
# and loaded spells, the slope was 1.6-1.9. Times are scaled by the probe's
# ratio to this power: of 1.25-2.0, with the probe read at its low decile,
# lower quartile or median, 1.5 at the lower quartile left the smallest
# largest spread over those executions.
PROBE_EXPONENT = 1.5


def speed(passes):
    """How much faster than the reference the machine ran during an
    execution: its times multiplied by this read as if measured at
    reference speed."""
    probes = [x for p in passes for x in p["probes_ms"]]
    ratio = PROBE_REF_MS / low_quantile(probes, PROBE_QUANTILE)
    return ratio ** PROBE_EXPONENT


def groups(passes):
    """The passes by group, each group's repeats of the same seeds checked
    to have done the same simulated work."""
    by_group = {}
    for p in passes:
        by_group.setdefault(p["group"], []).append(p)
    for g, reps in by_group.items():
        if len({(p["sent"], p["runs"], len(p["slices_ms"])) for p in reps}) > 1:
            raise ValueError("the repeats of group %d differ in work" % g)
    return list(by_group.values())


def repeat_low(xs):
    return low_quantile(xs, REPEAT_QUANTILE)


def words_per_msg(by_group):
    """Minor words allocated per message sent. The count is exact for a
    seed, but some runs have allocation-heavy seeds: sweep-small's
    partition cells allocate about three times as much per message on
    roughly a third of their seeds. So each run of a pass (each cell)
    keeps its lower quartile over the groups' seeds, and the cells are
    summed."""
    words = sent = 0
    for cell in zip(*([(w, n) for w, n in zip(reps[0]["run_words"],
                                               reps[0]["run_sent"])]
                      for reps in by_group)):
        w, n = low_quantile(list(cell), REPEAT_QUANTILE,
                            key=lambda c: c[0] / c[1])
        words += w
        sent += n
    return words / sent


# The heap peak is read after this pass, the last one every execution
# runs whatever the deadline (bench/pb.ml: three rounds of gossip-n64's two
# groups). Later passes grow it (relay-n256 doubles its peak over ten
# passes) by an amount that depends on how many the time budget fits; after
# one pass, sweep-small's peak still depended on which cells overlapped
# (spread 0.07-0.19 between executions, 0.05-0.10 after six passes).
HEAP_PASS = 6


def end_to_end(raw):
    """The end-to-end metrics of one untraced execution.

    Neighbouring tenants slow this machine in phases lasting seconds to
    minutes (a 120 s series of relay-n256 runs swung between 800 and 1650
    ns per message). Two things keep that out of the figures:
    - an execution repeats the same few seeds (its groups), so every
      simulated 100 ms slice is timed several times over the same work,
      and each slice keeps the lower quartile of its repeats: a burst must
      hit most repeats of a slice to move it;
    - the times are scaled to the reference speed of a machine-speed probe
      (bench/probe.ml) run throughout the execution, read at its low
      decile, which a slowdown lasting the whole execution still moves.
    The probe runs no simulator code, so a change that slows the simulator
    slows every repeat and shows in full. Counts are exact for a seed and
    are not scaled.
    """
    passes = raw["passes"]
    if not passes:
        raise ValueError("no completed pass")
    scale = speed(passes)
    by_group = groups(passes)
    slices, advance_ms, sent, wall_s, runs = [], 0.0, 0, 0.0, 0
    for reps in by_group:
        per_slice = [repeat_low(col)
                     for col in zip(*(p["slices_ms"] for p in reps))]
        slices += per_slice
        advance_ms += sum(per_slice)
        sent += reps[0]["sent"]
        runs += reps[0]["runs"]
        if reps[0]["jobs"] == 1:
            # A sequential pass is its slices and the rest of its runs.
            wall_s += sum(per_slice) / 1e3 + repeat_low(
                [p["other_s"] for p in reps])
        else:
            # Runs shared between domains overlap: only the pass's own
            # wall time says how long it took.
            wall_s += repeat_low([p["wall_s"] for p in reps])
    slices = [x * scale for x in slices]
    setups = [x for p in passes for x in p["setup_s"]]
    return {
        "ns_per_msg": advance_ms * 1e6 / sent * scale,
        "slice_ms_p50": time_median(slices),
        "slice_ms_p90": tail_percentile(slices, 0.9),
        "runs_per_s": runs / (wall_s * scale),
        "wall_s": wall_s * scale / len(by_group),
        "setup_s": repeat_low(setups) * scale,
        "minor_words_per_msg": words_per_msg(by_group),
        "top_heap_mb": passes[min(HEAP_PASS, len(passes)) - 1]["top_heap_mb"],
    }


def per_layer(raw):
    """The per-layer metrics of one traced execution."""
    layers = raw["layers"]
    missing = sorted(set(PER_LAYER) - set(layers))
    extra = sorted(set(layers) - set(PER_LAYER))
    if missing or extra:
        raise ValueError("layer metrics differ: missing %s, unknown %s" % (missing, extra))
    return {name: layers[name] for name in PER_LAYER}
