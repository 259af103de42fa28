"""The four workloads: seeded inputs, set-up, the timed phase with its
output checks, and the traced run that splits an op by layer.

Every program process runs with --jobs 1 pinned to the program core; the
load generator (perfbench-probe load, or this script for tool spawns) runs
on the generator core. Between the slices of every timed phase the
calibration loop runs on the program core, and the timings are scaled by
its median (stats.scale_to_reference).
"""

import os
import random
import re
import statistics
import time

from . import host, stats
from .host import BenchError

PROGRAMS = ("streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud",
            "leukocyte", "heartwall")
WINDOW = 8               # serve requests in flight
HIT_COMBOS = 64          # distinct serve-hit requests
MISS_FILL = 600          # disjoint serve-miss requests planned in set-up
MISS_SAMPLE = 16         # serve-miss bodies checked against corun-schedule
FLEET_MACHINES = 1024
FAULT_PLANS = 8
DYNAMIC_CAP = "15"
TRACE_SERVE_MAX_OPS = 20000
E2E_SHARE_OF_TRACE = 0.3  # least share of a traced run driving the tools

DAEMON_EXIT = re.compile(
    rb"received=(\d+) ok=(\d+) busy=(\d+) errors=(\d+)")
CACHE_EXIT = re.compile(rb"plan-cache: hits=(\d+) misses=(\d+) warm=(\d+) "
                        rb"evictions=(\d+) stores=(\d+)")


class Env:
    """What every workload needs: binaries, cores, the seed, a work dir."""

    def __init__(self, tools, probe, work, seed, program_core, gen_core):
        self.tools = tools
        self.probe = probe
        self.work = work
        self.seed = seed
        self.core = program_core
        self.gen_core = gen_core

    def tool(self, name):
        return os.path.join(self.tools, name)


# ---- seeded inputs ----------------------------------------------------------

def batch_rows(seed):
    """The 8-program Rodinia batch; instance seeds come from the run seed."""
    return [(p, p, "1.0", str(seed * 100 + i)) for i, p in enumerate(PROGRAMS)]


def write_batch(path, rows):
    with open(path, "w") as f:
        f.write("instance,program,input_scale,seed\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def hit_requests(rng):
    """64 distinct (cap, scheduler, policy, subset) combinations. Subset
    sizes cycle through 3..8 and scheduler/policy alternate, so every seed
    draws the same mix and only caps and job choices vary."""
    rows = []
    seen = set()
    i = 0
    while len(rows) < HIT_COMBOS:
        size = 3 + i % 6
        row = (repr(round(rng.uniform(10.0, 20.0), 3)),
               ("bnb", "hcs+")[i // 6 % 2], ("gpu", "cpu")[i // 12 % 2],
               "42", tuple(rng.sample(PROGRAMS, size)))
        i += 1
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def miss_requests(rng, count, exclude=()):
    """`count` never-repeated bnb requests: a continuous cap in [10, 20] W
    and 6..8 jobs (sizes cycle, so every seed draws the same mix)."""
    rows = []
    seen = set(exclude)
    i = 0
    while len(rows) < count:
        row = (repr(rng.uniform(10.0, 20.0)), "bnb", "gpu", "42",
               tuple(rng.sample(PROGRAMS, 6 + i % 3)))
        i += 1
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def write_requests(path, rows):
    with open(path, "w") as f:
        f.write("seq,cap,scheduler,policy,seed,jobs\n")
        for seq, (cap, sched, policy, seed, jobs) in enumerate(rows):
            f.write("%d,%s,%s,%s,%s,%s\n" % (seq, cap, sched, policy, seed,
                                             ";".join(jobs)))


def make_artifacts(env, d):
    """batch.csv, then profiles.csv and grid.csv from the real tools."""
    write_batch(os.path.join(d, "batch.csv"), batch_rows(env.seed))
    host.run_checked([env.tool("corun-profile"), "--batch", "batch.csv",
                      "--out", "profiles.csv", "--seed", str(env.seed),
                      "--jobs", "1"], env.core, cwd=d)
    host.run_checked([env.tool("corun-characterize"), "--out", "grid.csv",
                      "--seed", str(env.seed), "--jobs", "1"], env.core,
                     cwd=d)


def artifact_args():
    return ["--batch", "batch.csv", "--profiles", "profiles.csv",
            "--grid", "grid.csv"]


def read_bodies(path):
    """perfbench-probe body files: records "<key> <len>\\n<bytes>"."""
    with open(path, "rb") as f:
        data = f.read()
    out = {}
    pos = 0
    while pos < len(data):
        eol = data.index(b"\n", pos)
        key, length = data[pos:eol].split()
        start = eol + 1
        out[int(key)] = data[start:start + int(length)]
        pos = start + int(length)
    return out


def read_summary(prefix):
    with open(prefix + ".summary") as f:
        fields = dict(line.split() for line in f if line.strip())
    return {k: int(v) for k, v in fields.items()}


def read_completions(prefix):
    """(completion s, latency ms) per ok response of a probe load run."""
    out = []
    with open(prefix + ".lat") as f:
        for line in f:
            at, ns = line.split()
            out.append((int(at) / 1e9, int(ns) / 1e6))
    return out


def read_slice_rows(prefix):
    """(start s, end s, ok, daemon CPU s) per slice of a probe load run."""
    with open(prefix + ".slices") as f:
        return [(int(t0) / 1e9, int(t1) / 1e9, int(ok), int(cpu) / 1e9)
                for t0, t1, ok, cpu in (line.split() for line in f)]


def read_calibration(prefix):
    """The calibration loop's times (ms) of a probe load run."""
    with open(prefix + ".calib") as f:
        out = [int(line) / 1e6 for line in f]
    if not out or min(out) <= 0:
        raise BenchError("the load generator could not run the calibration "
                         "loop on the program core")
    return out


# ---- serve-hit / serve-miss ------------------------------------------------

class Serve:
    def __init__(self, kind):
        self.kind = kind  # "hit" | "miss"
        self.name = "serve-" + kind
        # A serve-miss set-up plans 600 cold requests (seconds); a serve-hit
        # one is a fraction of a second and needs more repeats to be steady.
        self.setup_repeats = 7 if kind == "hit" else 3
        # A slice must hold many responses: a miss costs milliseconds and
        # the daemon answers in chunks of up to 8. Between slices the window
        # drains and the calibration loop runs on the daemon's core.
        self.slice_ms = 250 if kind == "hit" else 1000

    def setup(self, env, d):
        rng = random.Random("%s/%d" % (self.name, env.seed))
        make_artifacts(env, d)
        if self.kind == "hit":
            fill = timed = hit_requests(rng)
        else:
            fill = miss_requests(rng, MISS_FILL)
            # Enough never-seen requests for any run length: far more than
            # a cold bnb miss rate can use up.
            timed = miss_requests(rng, 40000, exclude=fill)
        write_requests(os.path.join(d, "fill.csv"), fill)
        write_requests(os.path.join(d, "timed.csv"), timed)
        state = {"dir": d, "fill": fill, "timed": timed,
                 "err": open(os.path.join(d, "served.err"), "wb")}
        state["daemon"] = host.spawn(
            [env.tool("corun-served")] + artifact_args() +
            ["--socket", "s.sock", "--jobs", "1", "--plan-cache", "mem"],
            env.core, cwd=d, stderr=state["err"])
        try:
            self._load(env, state, "fill", ["--bodies", "fill.bodies"])
            summary = read_summary(os.path.join(d, "fill"))
            if summary["ok"] != len(fill) or summary["failed"]:
                raise BenchError("%s cache fill: %d of %d ok" % (
                    self.name, summary["ok"], len(fill)))
        except BaseException:
            self.stop(state)
            raise
        return state

    def _load(self, env, state, out, extra, requests="fill.csv"):
        host.run_checked([env.probe, "load", "--socket", "s.sock",
                          "--requests", requests, "--window", str(WINDOW),
                          "--out-prefix", out] + extra,
                         env.gen_core, cwd=state["dir"])

    def timed(self, env, state, seconds):
        """The timed phase. Returns the raw e2e figures."""
        d = state["dir"]
        daemon = state["daemon"]
        extra = ["--seconds", repr(seconds)]
        if self.kind == "hit":
            extra += ["--expect", "fill.bodies"]
            requests = "fill.csv"
        else:
            extra += ["--bodies", "timed.bodies"]
            requests = "timed.csv"
        extra += ["--cpu-pid", str(daemon.pid), "--calib-core",
                  str(env.core), "--slice-ms", str(self.slice_ms)]
        cpu0 = host.cpu_seconds(daemon.pid)
        self._load(env, state, "timed", extra, requests=requests)
        cpu1 = host.cpu_seconds(daemon.pid)
        prefix = os.path.join(d, "timed")
        summary = read_summary(prefix)
        if summary["exhausted"]:
            raise BenchError("%s ran out of never-seen requests" % self.name)
        completions = read_completions(prefix)
        return {
            "attempted": summary["attempted"],
            "ok": summary["ok"],
            "latencies_ms": [lat for _, lat in completions],
            "slices": stats.time_slices(completions, read_slice_rows(prefix),
                                        min_wall_s=self.slice_ms / 2e3),
            "calib_ms": read_calibration(prefix),
            "cpu_s": cpu1 - cpu0,
            "rss_kb": host.peak_rss_kb(daemon.pid),
        }

    def finish(self, env, state, timed_attempted, check_bodies=True):
        """Stops the daemon and checks its exit report; then checks bodies
        against corun-schedule. Returns the number of failed ops found."""
        failures = 0
        code = host.stop(state["daemon"])
        state["err"].close()
        with open(os.path.join(state["dir"], "served.err"), "rb") as f:
            err = f.read()
        m = DAEMON_EXIT.search(err)
        expected = len(state["fill"]) + timed_attempted
        if code != 0 or m is None:
            raise BenchError("%s: daemon exited %s without its session "
                             "counters" % (self.name, code))
        received, ok, busy, errors = map(int, m.groups())
        if received != expected or ok != received or busy or errors:
            failures += max(received - ok, expected - ok, 1)
            print("check: daemon counted received=%d ok=%d busy=%d errors=%d,"
                  " expected %d ok" % (received, ok, busy, errors, expected))
        if self.kind == "miss" and timed_attempted:
            cache = CACHE_EXIT.search(err)
            if cache is None or int(cache.group(4)) == 0:
                print("check: serve-miss timed phase evicted nothing")
                failures += 1

        d = state["dir"]
        if not check_bodies:
            checks = []
        elif self.kind == "hit":
            bodies = read_bodies(os.path.join(d, "fill.bodies"))
            checks = [(state["fill"][k], bodies[k]) for k in sorted(bodies)]
        elif timed_attempted:
            bodies = read_bodies(os.path.join(d, "timed.bodies"))
            rng = random.Random("%s/sample/%d" % (self.name, env.seed))
            keys = rng.sample(sorted(bodies), min(MISS_SAMPLE, len(bodies)))
            checks = [(state["timed"][k], bodies[k]) for k in sorted(keys)]
            for body in bodies.values():
                if not body.startswith(b"scheduler: BnB\nplan:"):
                    failures += 1
        else:
            checks = []
        for index, (row, body) in enumerate(checks):
            if schedule_once(env, d, row, index) != body:
                failures += 1
                print("check: body differs from corun-schedule for %r" %
                      (row,))
        return failures

    def stop(self, state):
        if state.get("daemon") is not None:
            host.stop(state["daemon"])
        if not state["err"].closed:
            state["err"].close()


def schedule_once(env, d, row, index):
    """corun-schedule's stdout for one serve request (a subset request is a
    batch CSV with those jobs, in request order)."""
    cap, sched, policy, seed, jobs = row
    by_name = {r[0]: r for r in batch_rows(env.seed)}
    sub = "sub%d.csv" % index
    write_batch(os.path.join(d, sub), [by_name[j] for j in jobs])
    return host.run_checked(
        [env.tool("corun-schedule"), "--batch", sub, "--profiles",
         "profiles.csv", "--grid", "grid.csv", "--cap", cap, "--scheduler",
         sched, "--policy", policy, "--seed", seed, "--jobs", "1"],
        env.core, cwd=d)


# ---- fleet / dynamic: one tool invocation per op ----------------------------

class ToolRuns:
    """Workloads whose op is one tool invocation, checked against the
    set-up's reference run of the same input."""

    def __init__(self, name):
        self.name = name
        # A fleet set-up includes a seconds-long reference run.
        self.setup_repeats = 3 if name == "fleet" else 7
        # Calibration loop runs after each pass: a fleet pass is one
        # seconds-long op, a dynamic pass 8 short ones.
        self.calib_reps = 3 if name == "fleet" else 1

    def setup(self, env, d):
        if self.name == "dynamic":
            make_artifacts(env, d)
            host.run_checked([env.probe, "gen-faults", "--seed",
                              str(env.seed), "--count", str(FAULT_PLANS),
                              "--out-prefix", "faults"], env.gen_core, cwd=d)
            argvs = [[env.tool("corun-run")] + artifact_args() +
                     ["--cap", DYNAMIC_CAP, "--scheduler", "bnb",
                      "--thermal", "on", "--events", "faults%d.csv" % i,
                      "--jobs", "1"] for i in range(FAULT_PLANS)]
        else:
            host.run_checked([env.probe, "gen-fleet", "--seed", str(env.seed),
                              "--machines", str(FLEET_MACHINES), "--out",
                              "fleet.csv"], env.gen_core, cwd=d)
            argvs = [[env.tool("corun-fleet"), "--machines",
                      str(FLEET_MACHINES), "--strategy", "marginal",
                      "--events", "fleet.csv", "--jobs", "1"]]
        state = {"dir": d, "argvs": argvs, "refs": []}
        for argv in argvs:
            r, out = host.run_op(argv, env.core, cwd=d)
            if r.code != 0:
                raise BenchError("%s reference run exited %d" % (
                    self.name, r.code))
            state["refs"].append(out)
        return state

    def timed(self, env, state, seconds):
        """Tool invocations back to back. A slice is one pass over the
        inputs (8 fault plans, or the one fleet plan), so every slice does
        the same work. The calibration loop runs on the program core before
        the first pass and after each one."""
        d = state["dir"]
        per_slice = len(state["argvs"])
        slices, lat = [], []
        cpu = 0.0
        rss = ok = attempted = 0
        t0 = time.perf_counter()
        calib = host.calibrate_ms(env.probe, env.core, self.calib_reps)
        while not slices or time.perf_counter() - t0 < seconds:
            s0 = time.perf_counter()
            piece = stats.Slice(0.0, 0, 0.0, [])
            for i in range(per_slice):
                r, out = host.run_op(state["argvs"][i], env.core, cwd=d)
                attempted += 1
                if r.code != 0 or out != state["refs"][i]:
                    print("check: %s op %d differs from the reference run" %
                          (self.name, attempted))
                    continue
                piece.ok += 1
                piece.cpu_s += r.cpu_s
                piece.latencies_ms.append(r.wall_s * 1e3)
                rss = max(rss, r.maxrss_kb)
            piece.wall_s = time.perf_counter() - s0
            slices.append(piece)
            calib += host.calibrate_ms(env.probe, env.core, self.calib_reps)
            ok += piece.ok
            cpu += piece.cpu_s
            lat += piece.latencies_ms
        return {"attempted": attempted, "ok": ok, "latencies_ms": lat,
                "slices": slices, "cpu_s": cpu, "rss_kb": rss,
                "calib_ms": calib}

    def finish(self, env, state, timed_attempted, check_bodies=True):
        return 0

    def stop(self, state):
        pass


WORKLOADS = {w.name: w for w in
             (Serve("hit"), Serve("miss"), ToolRuns("fleet"),
              ToolRuns("dynamic"))}

DETERMINISM_FILES = ("batch.csv", "profiles.csv", "grid.csv", "fill.csv",
                     "fill.bodies", "fleet.csv", "faults0.csv")


def run_setups(env, workload):
    """Sets up `setup_repeats` times from scratch; keeps the last set-up for
    the timed phase. Every repeat must produce the same bytes. Returns
    (state, set-up seconds of each repeat, failures)."""
    times = []
    failures = 0
    first = None
    for i in range(workload.setup_repeats):
        d = os.path.join(env.work, "setup%d" % i)
        os.makedirs(d)
        t0 = time.perf_counter()
        state = workload.setup(env, d)
        times.append(time.perf_counter() - t0)
        if first is None:
            first = state
        else:
            failures += compare_dirs(first["dir"], d)
            if state.get("refs") != first.get("refs"):
                failures += 1
                print("check: %s reference runs differ between set-ups" %
                      workload.name)
        if i + 1 < workload.setup_repeats:
            failures += workload.finish(env, state, 0, check_bodies=False)
            workload.stop(state)
    return state, times, failures


def compare_dirs(a, b):
    failures = 0
    for name in DETERMINISM_FILES:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not os.path.exists(pa):
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                failures += 1
                print("check: set-up output %s differs between repeats" % name)
    return failures


def end_to_end(env, workload, seconds):
    """The --trace 0 run: every end-to-end metric, outputs checked."""
    state, setup_times, failures = run_setups(env, workload)
    try:
        raw = workload.timed(env, state, seconds)
        failures += workload.finish(env, state, raw["attempted"])
    finally:
        workload.stop(state)
    ok = max(0, raw["ok"] - failures)
    attempted = raw["attempted"]
    if not raw["latencies_ms"]:
        raise BenchError("%s: no op succeeded" % workload.name)
    lat = stats.latency_summary(raw["latencies_ms"])
    med = stats.slice_medians(raw["slices"])
    factor = stats.reference_factor(raw["calib_ms"])
    ref = stats.scale_to_reference(med, factor)
    # Set-up runs just before the timed phase, on the same cores, so the
    # phase's calibration scales it as well.
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": (setup_s * factor, "s"),
        "throughput_ref_ops_s": (ref["throughput_ops_s"], "1/s"),
        "cpu_ref_ms_per_op": (ref["cpu_ms_per_op"], "ms"),
        "peak_rss_mb": (raw["rss_kb"] / 1024.0, "MB"),
        "ok_ratio": (ok / attempted, "ratio"),
    }
    # Median latency is reported but not gated: on serve-hit it rides on
    # cross-core wake-ups and spreads more than the bound (README.md).
    info = ["latency_p50_ref_ms=%.6g (not gated)" % ref["latency_p50_ms"],
            "medians over %d slices; latency samples n=%d, whole-phase "
            "p50 %.6g ms" % (med["slices"], lat["n"], lat["p50"]),
            "unscaled: throughput_ops_s=%.6g latency_p50_ms=%.6g "
            "cpu_ms_per_op=%.6g" % (med["throughput_ops_s"],
                                    med["latency_p50_ms"],
                                    med["cpu_ms_per_op"]),
            "calibration loop: median %.6g ms over %d runs (reference %g "
            "ms)" % (statistics.median(raw["calib_ms"]),
                     len(raw["calib_ms"]), stats.CALIB_REF_MS)]
    if lat["tail"] is None:
        info.append("no tail percentile has %d samples beyond it" %
                    stats.MIN_BEYOND)
    else:
        q, value, beyond = lat["tail"]
        info.append("latency_p%g_ms=%.6g (%d samples beyond)" % (
            q * 100, value, beyond))
    info.append("unscaled setup_s=%.6g; repeats: " % setup_s +
                " ".join("%.4f" % t for t in setup_times))
    return metrics, attempted, attempted - ok, info


# ---- the traced run ---------------------------------------------------------

def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            op, sid, parent, name, start, end = line.rstrip("\n").split(",")
            spans.append({"op": int(op), "id": int(sid),
                          "parent": int(parent), "name": name,
                          "start": int(start), "end": int(end)})
    return spans


def read_values(path):
    values = {}
    with open(path) as f:
        for line in f:
            key, value = line.split()
            values.setdefault(key, []).append(float(value))
    return values


def read_program(path):
    spans, counters = {}, {}
    with open(path) as f:
        for line in f:
            # Program span names may hold spaces; the numbers are last.
            kind, rest = line.rstrip("\n").split(" ", 1)
            if kind == "span":
                name, count, total_us = rest.rsplit(" ", 2)
                spans[name] = (int(count), float(total_us))
            else:
                name, total = rest.rsplit(" ", 1)
                counters[name] = float(total)
    return spans, counters


def traced(env, workload, seconds):
    """The --trace 1 run: the in-process traced replay, then an end-to-end
    phase for the rest of `seconds` (at least E2E_SHARE_OF_TRACE of it);
    prints every per-layer metric."""
    d = os.path.join(env.work, "setup0")
    os.makedirs(d)
    state = workload.setup(env, d)
    prefix = os.path.join(d, "trace")
    argv = [env.probe, "trace", "--workload", workload.name, "--dir", d,
            "--seconds", repr(seconds * (1 - E2E_SHARE_OF_TRACE)),
            "--out-prefix", prefix]
    if isinstance(workload, Serve):
        argv += ["--max-ops", str(TRACE_SERVE_MAX_OPS)]
    try:
        # A serve daemon idles meanwhile; the replay reads the same inputs.
        t0 = time.perf_counter()
        host.run_checked(argv, env.core)
        left = seconds - (time.perf_counter() - t0)
        raw = workload.timed(env, state,
                             max(left, seconds * E2E_SHARE_OF_TRACE))
        failures = workload.finish(env, state, raw["attempted"])
    finally:
        workload.stop(state)
    spans = read_spans(prefix + ".spans")
    values = read_values(prefix + ".values")
    program = read_program(prefix + ".program")
    metrics = layer_metrics(workload.name, spans, values, program, raw)
    coverage = metrics["trace.coverage"][0]
    if coverage < 0.95:
        print("check: trace.coverage %.4f is below 0.95" % coverage)
        failures += 1
    ops = sum(1 for s in spans if s["parent"] == 0 and s["name"] == "op")
    attempted = raw["attempted"] + ops
    ok = max(0, raw["ok"] + ops - failures)
    return metrics, attempted, attempted - ok, [
        "traced ops=%d untraced ops=%d e2e ops=%d" % (
            ops, len(values.get("op_untraced_ns", [])), raw["attempted"])]


def layer_metrics(name, spans, values, program, raw):
    """Every per-layer metric of BENCHMARK.json. A layer the workload does
    not reach reads 0."""
    prog_spans, counters = program
    means = stats.span_means(spans)
    ops = means.get("op", (0, 0.0, 0.0))[0]

    def span_ms(span_name, self_time=False):
        entry = means.get(span_name)
        if entry is None:
            return 0.0
        return (entry[2] if self_time else entry[1]) / 1e6

    def value_mean(key):
        v = values.get(key)
        return statistics.fmean(v) if v else 0.0

    def value_sum(key):
        return sum(values.get(key, ()))

    def per_op(total):
        return total / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    serve = name.startswith("serve-")
    tools_path = name in ("fleet", "dynamic")
    untraced_ms = statistics.median(values["op_untraced_ns"]) / 1e6
    traced_ms = statistics.median(
        [(s["end"] - s["start"]) / 1e6 for s in spans
         if s["parent"] == 0 and s["name"] == "op"])
    if serve:
        load_ms = value_mean("tools.load_ns") / 1e6
        predictor_ms = value_mean("model.predictor_build_ns") / 1e6
    else:
        load_ms = span_ms("tools.load")
        predictor_ms = span_ms("model.predictor_build")
    parse_us = span_ms("serve.parse") * 1e3
    plan_us = span_ms("serve.plan") * 1e3
    encode_us = span_ms("serve.encode") * 1e3
    daemon_us = (raw["cpu_s"] * 1e6 / raw["ok"]) if serve and raw["ok"] else 0

    bnb_count, bnb_us = prog_spans.get("bnb.plan", (0, 0.0))
    hcs_count, hcs_us = prog_spans.get("hcs.plan", (0, 0.0))
    search_ms = (ratio(bnb_us, bnb_count) if bnb_count
                 else ratio(hcs_us, hcs_count)) / 1e3
    replan_ms = per_op(prog_spans.get("dynamic.replan", (0, 0.0))[1]) / 1e3
    execute_ms = span_ms("runtime.execute")
    fleet_ms = span_ms("fleet.execute")
    hits, misses = value_sum("cache.hits"), value_sum("cache.misses")
    e2e_ms = statistics.median(raw["latencies_ms"]) if tools_path else 0.0

    m = {
        "tools.load_ms": (load_ms, "ms"),
        "tools.process_ms": (e2e_ms - untraced_ms if tools_path else 0.0,
                             "ms"),
        "tools.render_ms": (span_ms("tools.render"), "ms"),
        "serve.parse_us": (parse_us, "us"),
        "serve.plan_us": (plan_us, "us"),
        "serve.render_us": (span_ms("serve.render_report") * 1e3 + encode_us,
                            "us"),
        # The traced layers run slower than untraced ones, so the daemon's
        # per-request CPU is compared with the untraced in-process op.
        "serve.transport_us": (
            daemon_us - untraced_ms * 1e3 if serve else 0.0, "us"),
        "plan_cache.signature_us": (span_ms("plan_cache.signature") * 1e3,
                                    "us"),
        "plan_cache.lookup_us": (span_ms("plan_cache.lookup") * 1e3, "us"),
        "plan_cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "plan_cache.warm_ratio": (ratio(value_sum("cache.warm_hits"), misses),
                                  "ratio"),
        "plan_cache.evictions_per_op": (per_op(value_sum("cache.evictions")),
                                        "count"),
        "sched.search_ms": (search_ms, "ms"),
        "sched.bnb_nodes": (ratio(counters.get("bnb.nodes", 0.0), bnb_count),
                            "count"),
        "sched.bnb_prune_ratio": (ratio(counters.get("bnb.pruned", 0.0),
                                        counters.get("bnb.nodes", 0.0)),
                                  "ratio"),
        "sched.hcs_plan_ms": (per_op(hcs_us) / 1e3, "ms"),
        "sched.evaluate_us": (span_ms("sched.evaluate") * 1e3, "us"),
        "sched.lower_bound_us": (span_ms("sched.lower_bound") * 1e3, "us"),
        "model.predictor_build_ms": (predictor_ms, "ms"),
        "runtime.execute_ms": (execute_ms, "ms"),
        "runtime.replan_ms": (replan_ms, "ms"),
        "runtime.replans": (value_mean("runtime.replans"), "count"),
        "fleet.execute_ms": (fleet_ms, "ms"),
        "fleet.divide_us": (span_ms("fleet.divide") * 1e3, "us"),
        "fleet.other_ms": (fleet_ms - replan_ms if fleet_ms else 0.0, "ms"),
        "fleet.machine_runs_per_s": (
            ratio(FLEET_MACHINES, fleet_ms / 1e3), "1/s"),
        "sim.step_ms": (execute_ms - replan_ms if execute_ms else 0.0, "ms"),
        "sim.horizons": (per_op(counters.get("engine.horizons", 0.0)),
                         "count"),
        "sim.ticks_per_horizon": (ratio(counters.get("engine.ticks", 0.0),
                                        counters.get("engine.horizons", 0.0)),
                                  "count"),
        "sim.sim_s_per_host_s": (
            ratio(value_mean("sim.makespan_s"), execute_ms / 1e3), "s/s"),
        "sim.thermal_trips": (per_op(counters.get("thermal.trips", 0.0)),
                              "count"),
        "trace.coverage": (stats.coverage(spans), "ratio"),
        "trace.overhead_pct": (100.0 * (traced_ms - untraced_ms) / untraced_ms,
                               "%"),
    }
    return m
