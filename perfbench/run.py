"""zdmtd benchmark: runs one workload as a closed loop of real commands and
prints its metrics, the last line being one JSON object.

    python3 perfbench/run.py --workload solve-ideal --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload compare-iot --seed 0 --seconds 20 --trace 1

Each operation is one `zdmtd` command run in this process through
`zdmtd.cli.main(argv)` on JSON inputs generated from --seed, one client,
each command started when the previous one has been checked.  --trace 0
reports the end-to-end metrics; --trace 1 spends the first half of the time
untraced and the second half with outside-in spans (spans.py) and reports
the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Pinned before numpy loads: nproc is 2 and the machine is shared, and
# default OpenBLAS threading more than doubles the worst operation time.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "ZDMTD_THREADS": "1"}

SETUP_REPEATS = 3
# Reference-kernel time that defines unit speed (about its median on the
# 2-core VM where the benchmark was written); see Speed.
CAL_REF_S = 0.004
WATCHDOG_S = 170  # a run must end within 180 s
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}


class OpTimeout(BaseException):
    """Raised inside a command when the run's watchdog fires; a
    BaseException so the package's own handlers do not swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"run exceeded {WATCHDOG_S} s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="solve-ideal, solve-generic, compare-iot, simulate-crowd or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one operation per phase, no warm-up; for tests")
    p.add_argument("--record-golden", action="store_true",
                   help="run the whole pass once and write golden/<workload>/seed-<seed>.json")
    return p.parse_args(argv)


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution.  A
    workload mixes input classes of very different cost, and a single order
    statistic jumps between neighbouring classes from run to run; this
    estimate moves smoothly instead (over five seeds it cut the spread of
    compare-iot's median from 0.19 to 0.07)."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = (np.arange(4096) + 0.5) / 4096
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 4097), cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "zdmtd")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def golden_path(workload, seed):
    return os.path.join(BENCH_DIR, "golden", workload, f"seed-{seed}.json")


class Speed:
    """Machine speed next to each operation, from a fixed reference kernel
    that runs no zdmtd code: a pure-Python loop and small dense solves, the
    two kinds of work the workloads do.

    On the shared 2-core VM the benchmark was written on, the speed of a
    core swings by +-20 % within seconds, and an operation's time follows
    the kernel's (per-operation spread 0.23 raw, 0.11 after scaling).  The
    kernel therefore runs before the first and after every operation, and
    each time is scaled by CAL_REF_S over the mean of the two kernel times
    around it: times are reported at unit speed.  Kernel time is left out
    of every measured interval."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(40, 40)) + 40 * np.eye(40)
        self._b = rng.normal(size=40)
        self._solve = np.linalg.solve  # bound now, before any tracer wraps it
        self.samples = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(60):
            self._solve(self._a, self._b)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def timed(self, fn, *args):
        """(fn(*args), its time scaled to unit speed)."""
        before = self.sample()
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        return out, raw * 2 * CAL_REF_S / (before + self.sample())


class Client:
    """Runs operations of one workload through cli.main and checks each."""

    def __init__(self, cli, wl, ops, workdir, golden):
        self.cli, self.wl, self.ops, self.workdir = cli, wl, ops, workdir
        self.argv = [wl.argv(op, workdir) for op in ops]
        self.golden = golden  # op index -> {"digest", "answer"}, or None
        self.failures = []    # (op index, label, problems)

    def run(self, i):
        """Run op i of the pass (modulo its length); returns (latency, answer)."""
        op = self.ops[i % len(self.ops)]
        self.wl.clear(self.workdir)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(self.argv[op.index])
        except Exception:  # a command that raises is a failed operation
            latency = time.perf_counter() - t0
            self.failures.append((op.index, op.label, [traceback.format_exc(limit=3)]))
            return latency, None
        latency = time.perf_counter() - t0
        try:
            rec = self.wl.record(op, rc, self.workdir)
        except (OSError, ValueError, KeyError, IndexError) as err:
            self.failures.append((op.index, op.label, [f"exit {rc}, unreadable output: {err!r}"]))
            return latency, None
        expected = None
        problems = []
        if self.golden is not None:
            entry = self.golden.get(op.index)
            if entry is None or entry["digest"] != op.digest:
                problems.append("input differs from the golden file's input")
            else:
                expected = entry["answer"]
        problems += self.wl.check(op, rec, expected)
        if problems:
            self.failures.append((op.index, op.label, problems))
        return latency, rec

    def measure(self, seconds, speed, max_ops=None):
        """Closed loop from op 0 until `seconds` of client time have passed
        (at least one op).  Client time per op covers the command and the
        reading and checking of its outputs."""
        before = len(self.failures)
        latencies = []  # at unit speed
        wall = raw_wall = 0.0
        k_prev = speed.sample()
        while True:
            t0 = time.perf_counter()
            latency, _ = self.run(len(latencies))
            step = time.perf_counter() - t0
            k_next = speed.sample()
            scale = 2 * CAL_REF_S / (k_prev + k_next)
            k_prev = k_next
            latencies.append(latency * scale)
            wall += step * scale
            raw_wall += step
            if raw_wall >= seconds or (max_ops is not None and len(latencies) >= max_ops):
                break
        return {"latencies": latencies, "wall": wall, "raw_wall": raw_wall,
                "failed": len(self.failures) - before}


def setup(cli, wl, seed, workdir, warmup):
    """Inputs, golden answers, extra files and a warm-up; returns a Client."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = wl.make_ops(seed)
    wl.write_inputs(ops, workdir)
    golden = None
    path = golden_path(wl.name, seed)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            golden = {e["index"]: e for e in json.load(fh)["ops"]}

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    wl.prepare(workdir, quiet)
    client = Client(cli, wl, ops, workdir, golden)
    for i in range(warmup):
        client.run(i)
    return client


def e2e_metrics(wl, phase, setup_s):
    """End-to-end metrics (times at unit speed) and supporting figures.
    Percentiles use whole rotations over the input classes, so that every
    class has the same weight in every run."""
    n = len(phase["latencies"])
    lat = [x * 1000.0 for x in phase["latencies"][: max(n // wl.rotation, 1) * wl.rotation]]
    tail = quantile(lat, wl.tail_pct / 100)
    metrics = {
        "ops_per_s": n / phase["wall"],
        "op_p50_ms": quantile(lat, 0.5),
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    detail = {"ops": n, "ops_in_percentiles": len(lat), "op_tail_pct": wl.tail_pct,
              "ops_beyond_tail": sum(x > tail for x in lat),
              "failed_frac": phase["failed"] / n, "unscaled_ops_per_s": n / phase["raw_wall"]}
    if wl.name == "simulate-crowd":
        from workloads import SIM_STEPS

        detail["sim_steps_per_s"] = metrics["ops_per_s"] * SIM_STEPS
    return metrics, detail


def self_check(wl, layer):
    """Spans the workload must fire and spans it must not; a miss means a
    binding was not replaced, not that the code got faster."""
    problems = [f"{s} predicted to fire but calls == 0" for s in wl.fires
                if layer[f"{s}.calls"] == 0]
    problems += [f"{s} predicted silent but fired" for s in wl.silent
                 if layer[f"{s}.calls"] != 0]
    return problems


def record_golden(cli, wl, seed, workdir):
    client = setup(cli, wl, seed, workdir, warmup=0)
    client.golden = None  # answers being replaced are not checked against
    entries = []
    for op in client.ops:
        _, rec = client.run(op.index)
        if rec is not None:
            entries.append({"index": op.index, "label": op.label, "digest": op.digest,
                            "answer": {k: rec[k] for k in wl.golden_keys}})
    if client.failures:
        for failure in client.failures[:10]:
            print(f"failed: {failure}", file=sys.stderr)
        return 1
    path = golden_path(wl.name, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"workload": wl.name, "seed": seed, "source_sha256": source_digest(),
           "git_commit": git_commit(), "ops": entries}
    with open(path, "w", encoding="utf-8") as fh:
        head = json.dumps({k: v for k, v in doc.items() if k != "ops"})[:-1]
        fh.write(head + ', "ops": [\n' + ",\n".join(json.dumps(e) for e in entries) + "\n]}\n")
    print(f"wrote {os.path.relpath(path, ROOT)} ({len(entries)} operations)")
    return 0


def run_workload(args, import_s):
    import zdmtd.cli as cli
    from spans import LAYER_METRICS, SPANS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(BENCH_DIR, "_work", str(os.getpid()))
    wl.capture(cli)
    try:
        if args.record_golden:
            return record_golden(cli, wl, args.seed, workdir)
        speed = Speed()
        import_s *= CAL_REF_S / speed.sample()
        setup_times = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            client, scaled = speed.timed(setup, cli, wl, args.seed, workdir,
                                         0 if args.smoke else wl.warmup_ops)
            setup_times.append(scaled)
        setup_s = import_s + statistics.median(setup_times)
        warmup_failed = len(client.failures)

        max_ops = 1 if args.smoke else None
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = client.measure(seconds, speed, max_ops)
        phases = [plain]
        problems = []
        if args.trace:
            tracer = Tracer()
            try:
                traced = client.measure(seconds, speed, max_ops)
            finally:
                tracer.uninstall()
            phases.append(traced)
            n = len(traced["latencies"])
            values = tracer.layer_metrics(n)
            # spans inherit the traced phase's mean speed scale
            for span in SPANS:
                values[f"{span}.self_s"] *= traced["wall"] / traced["raw_wall"]
            values["trace.overhead_frac"] = (
                len(plain["latencies"]) / plain["wall"] / (n / traced["wall"]) - 1.0)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
            problems = self_check(wl, values)
        e2e, detail = e2e_metrics(wl, plain, setup_s)
        if args.trace:
            detail["traced"] = {"ops": n, "ops_per_s": n / traced["wall"]}
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    correct = failed == 0 and warmup_failed == 0 and not problems
    golden = golden_path(wl.name, args.seed)
    result = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds, "smoke": args.smoke,
        "environment": environment(args.seed),
        "golden": os.path.relpath(golden, ROOT) if client.golden is not None else None,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "detail": detail, "setup_times_s": setup_times, "import_s": import_s,
        "speed_kernel_ms": [round(x * 1000.0, 4) for x in speed.samples],
        "latencies_ms": [round(x * 1000.0, 4) for x in plain["latencies"]],  # unit speed
        "metrics": metrics, "self_check": problems,
        "failures": [list(f) for f in client.failures[:20]],
    }
    os.makedirs(os.path.join(BENCH_DIR, "_results"), exist_ok=True)
    stem = os.path.join(BENCH_DIR, "_results", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        tracer.dump(stem + "-spans.json")

    env = result["environment"]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"golden {result['golden'] or 'none (invariant checks only)'}")
    print(f"env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']['name']} {env['blas']['version']} "
          f"threads={env['threads']} commit={env['git_commit']} src={env['source_sha256']}")
    print(f"ops {detail['ops']}  failed_frac {detail['failed_frac']:.4g} frac  "
          f"op_tail is p{detail['op_tail_pct']} of {detail['ops_in_percentiles']} "
          f"({detail['ops_beyond_tail']} beyond)  "
          f"times at unit speed (unscaled ops_per_s {detail['unscaled_ops_per_s']:.4g})")
    if "sim_steps_per_s" in detail:
        print(f"sim_steps_per_s {detail['sim_steps_per_s']:.1f} 1/s")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for failure in client.failures[:5]:
        print(f"FAILED op {failure[0]} ({failure[1]}): {failure[2]}", file=sys.stderr)
    for problem in problems:
        print(f"TRACE SELF-CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


def run_all(args):
    """Every workload in its own process, one after the other, so that each
    reports its own peak memory."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = m
        print()
    print(json.dumps(summary))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zdmtd", "cli.py")):
        print(f"error: no zdmtd sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import zdmtd
    import zdmtd.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(zdmtd.__file__)) != os.path.join(SRC, "zdmtd"):
        print(f"error: zdmtd imported from {zdmtd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - _T_START
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 64
    if not args.record_golden:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(WATCHDOG_S)
    try:
        return run_workload(args, import_s)
    except OpTimeout as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
