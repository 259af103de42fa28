"""Host plumbing: building the program from source, pinning, spawning and
measuring program processes."""

import os
import shutil
import signal
import subprocess
import sys
import time


class BenchError(Exception):
    """A set-up problem that must stop the run without a result line."""


def pick_cores():
    """(program core, generator core): the two highest cores of this
    process's affinity mask. Refuses to run on fewer than two."""
    mask = sorted(os.sched_getaffinity(0))
    if len(mask) < 2:
        raise BenchError(
            "the affinity mask holds %d core(s) (%s); the benchmark pins the "
            "program and the load generator to two different cores and "
            "needs at least two" % (len(mask), ",".join(map(str, mask))))
    return mask[-1], mask[-2]


def pin_self(core):
    os.sched_setaffinity(0, {core})


def build(root, build_dir, log_path):
    """Configures and builds perfbench/CMakeLists.txt (the corun tools and
    perfbench-probe) in Release. Returns (tools_dir, probe_path)."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("no corun source tree at %s: the benchmark builds "
                         "the program from source" % os.path.abspath(root))
    if shutil.which("cmake") is None:
        raise BenchError("cmake is not installed")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"),
                   "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                _fail_build(log_path, "configure")
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            _fail_build(log_path, "build")
    return (os.path.join(build_dir, "corun", "tools"),
            os.path.join(build_dir, "perfbench-probe"))


def _fail_build(log_path, step):
    with open(log_path) as log:
        tail = log.read()[-4000:]
    sys.stderr.write(tail)
    raise BenchError("%s failed (log: %s)" % (step, log_path))


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _pinned(core):
    return lambda: os.sched_setaffinity(0, {core})


def spawn(argv, core, cwd=None, stdout=None, stderr=None):
    """Starts a program process pinned to `core`."""
    return subprocess.Popen(argv, cwd=cwd, stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL,
                            preexec_fn=_pinned(core))


class OpResult:
    __slots__ = ("wall_s", "cpu_s", "maxrss_kb", "code")

    def __init__(self, wall_s, cpu_s, maxrss_kb, code):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.code = code


def run_op(argv, core, cwd=None):
    """Runs one tool invocation pinned to `core`. Wall time is spawn to
    exit; CPU time and peak RSS are the process's own (wait4 rusage).
    Returns (OpResult, stdout bytes)."""
    t0 = time.perf_counter()
    proc = spawn(argv, core, cwd=cwd, stdout=subprocess.PIPE,
                 stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                    proc.returncode), out


def run_checked(argv, core, cwd=None):
    """Runs a set-up program to completion; its stdout as bytes."""
    proc = spawn(argv, core, cwd=cwd, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE)
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (
            os.path.basename(argv[0]), proc.returncode,
            err.decode(errors="replace")[-2000:]))
    return out


def calibrate_ms(probe, core, reps):
    """`reps` runs of the calibration loop (perfbench-probe calib) on
    `core`, in ms each. The probe's start-up is not part of the figures."""
    out = run_checked([probe, "calib", "--reps", str(reps)], core)
    return [int(line) / 1e6 for line in out.split()]


def cpu_seconds(pid):
    """CPU time of every thread of a live process, from schedstat (ns)."""
    total = 0
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        except OSError:
            continue
    return total / 1e9


def peak_rss_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for pid %d" % pid)


def stop(proc, timeout=30):
    """SIGTERM, then wait; SIGKILL if it does not exit in time. Returns the
    exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode

