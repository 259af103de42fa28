"""The benchmark's own math: percentiles with their sample support, self
time over nested spans, trace coverage, and the result line.

Everything here is pure and covered by perfbench/tests/test_stats.py.
"""

import json
import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# Tail percentiles tried from the highest down.
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9)


def percentile(values, q):
    """Nearest-rank percentile of `values` at quantile q in (0, 1].

    Returns (value, beyond): `beyond` is how many samples lie strictly
    after the chosen rank, the support the percentile rests on."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values, min_beyond=MIN_BEYOND):
    """The highest of TAIL_QUANTILES with at least `min_beyond` samples
    beyond it, as (quantile, value, beyond); None when even the lowest
    lacks that support."""
    ordered = sorted(values)
    for q in TAIL_QUANTILES:
        if not ordered:
            break
        value, beyond = percentile(ordered, q)
        if beyond >= min_beyond:
            return q, value, beyond
    return None


def latency_summary(values):
    """Median, sample count and the best-supported tail of one op-latency
    sample set."""
    if not values:
        raise ValueError("no latency samples")
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail": tail_percentile(values),
    }


class Slice:
    """One slice of a timed phase: its wall time, the ops that completed
    ok in it, the program's CPU time over it, and those ops' latencies."""

    __slots__ = ("wall_s", "ok", "cpu_s", "latencies_ms")

    def __init__(self, wall_s, ok, cpu_s, latencies_ms):
        self.wall_s = wall_s
        self.ok = ok
        self.cpu_s = cpu_s
        self.latencies_ms = latencies_ms


def slice_medians(slices):
    """Throughput, CPU per op and median latency of a timed phase, each the
    median over its slices of that slice's figure. Slices without ok ops
    are skipped.

    Other tenants of a shared host slow the program for a few seconds at a
    time. A median over many short slices sets those stretches aside as
    long as they cover less than half of the phase, where a whole-phase
    mean would take them in."""
    used = [s for s in slices if s.ok and s.latencies_ms]
    if not used:
        raise ValueError("no slice completed an op")
    return {
        "throughput_ops_s": statistics.median(s.ok / s.wall_s for s in used),
        "cpu_ms_per_op": statistics.median(s.cpu_s * 1e3 / s.ok
                                           for s in used),
        "latency_p50_ms": statistics.median(statistics.median(s.latencies_ms)
                                            for s in used),
        "slices": len(used),
    }


def time_slices(completions, rows, min_wall_s=0.0):
    """The slices of a serve timed phase.

    `completions` are (completion s, latency ms) per ok op; `rows` are the
    load generator's slice records (start s, end s, ok ops, program CPU s).
    A slice holds the ops completing in (start, end]. Slices shorter than
    `min_wall_s` (the cut end of a phase) are dropped."""
    out = []
    ordered = sorted(completions)
    i = 0
    for t0, t1, ok, cpu in rows:
        lat = []
        while i < len(ordered) and ordered[i][0] <= t1:
            if ordered[i][0] > t0:
                lat.append(ordered[i][1])
            i += 1
        if t1 - t0 >= min_wall_s:
            out.append(Slice(t1 - t0, ok, cpu, lat))
    return out


# The calibration loop's median time on a quiet reference host.
CALIB_REF_MS = 20.0


def reference_factor(calib_ms, ref_ms=CALIB_REF_MS):
    """ref_ms / the median of the calibration loop's times `calib_ms`,
    taken on the program core all through a phase. Multiplying a time by
    it gives the time on the reference host. A single run of the loop is
    noisy, but the median of many tracks how fast the host ran over the
    phase, so scaled figures move with the program and not with the
    host."""
    if not calib_ms or min(calib_ms) <= 0:
        raise ValueError("no calibration time")
    return ref_ms / statistics.median(calib_ms)


def scale_to_reference(medians, factor):
    """A phase's slice medians at the reference host speed: times are
    multiplied by `factor` (reference_factor), throughput divided by it."""
    return {
        "throughput_ops_s": medians["throughput_ops_s"] / factor,
        "cpu_ms_per_op": medians["cpu_ms_per_op"] * factor,
        "latency_p50_ms": medians["latency_p50_ms"] * factor,
    }


def quartile_spread(values):
    """(Q3 - Q1) / median, the steadiness figure of a set of runs, with
    Python's statistics.quantiles(n=4) quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def _union_length(intervals):
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children cover (children clipped to the parent, overlaps counted
    once). `spans` are dicts with id, parent (0 = root), start and end."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = _union_length(
            (max(lo, c["start"]), min(hi, c["end"]))
            for c in children.get(s["id"], ())
            if c["end"] > lo and c["start"] < hi)
        out[s["id"]] = (hi - lo) - covered
    return out


def coverage(spans, root_name="op"):
    """Share of traced op wall time that named layers account for: the sum
    of the self times of every span under a root named `root_name`, over
    the sum of those roots' durations. Equals 1 - root self time / root
    time, so glue between layer calls lowers it."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    roots = {s["id"] for s in spans
             if s["parent"] == 0 and s["name"] == root_name}
    if not roots:
        return 0.0

    def root_of(span):
        while span["parent"] != 0:
            span = by_id[span["parent"]]
        return span["id"]

    layer = sum(selfs[s["id"]] for s in spans
                if s["parent"] != 0 and root_of(s) in roots)
    wall = sum(by_id[r]["end"] - by_id[r]["start"] for r in roots)
    return layer / wall if wall else 0.0


def span_means(spans):
    """Per span name: (count, mean duration, mean self time), in the
    spans' time unit."""
    selfs = self_times(spans)
    acc = {}
    for s in spans:
        count, dur, own = acc.get(s["name"], (0, 0, 0))
        acc[s["name"]] = (count + 1, dur + s["end"] - s["start"],
                          own + selfs[s["id"]])
    return {name: (count, dur / count, own / count)
            for name, (count, dur, own) in acc.items()}


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line. `metrics` maps a name to
    (value, unit); values keep every digit."""
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be within [0, attempted]")
    body = {}
    for name, (value, unit) in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % name)
        body[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": body})
