"""dnls benchmark: closed-loop verification workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify-d1 --seed 0 --seconds 30 --trace 0

Runs the workload's tasks one after another (one client, one thread, BLAS
and OpenMP pinned to one thread) until `--seconds` have passed and every
task has run at least once (with `--trace 1`: at least once traced and once
untraced).  Prints one `name value unit` line per metric, then, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Writes the full record (metrics, per-task checks and output digests,
environment, working sets, and with `--trace 1` the spans) to
`.bench_out/` in the repository root.  Exits 1 when a correctness check
fails, 2 when the `dnls` sources are missing or the arguments are bad.
See bench/README.md for what each metric means.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

if not (ROOT / "src" / "dnls" / "__init__.py").is_file():
    print(f"error: dnls sources not found under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tasks as workloads  # noqa: E402
from spans import MODULES, Tracer, Untraced, self_times  # noqa: E402
from speed import Speedometer, probe_factor  # noqa: E402

# (metric, span name, unit, seconds-to-unit): time in spans of that name per unit of work
RATES = (
    ("dynamics.strang.ns_per_site_step", "dynamics.strang", "ns", 1e9),
    ("dynamics.rk4.ns_per_site_step", "dynamics.rk4", "ns", 1e9),
    ("dynamics.duhamel.us_per_eval", "dynamics.duhamel", "us", 1e6),
    ("hopping.convolve.ns_per_site", "hopping.convolve", "ns", 1e9),
    ("lattice.truncate.us_per_site", "lattice.truncate", "us", 1e6),
    ("observables.growth_bound.us_per_snapshot", "observables.growth_bound", "us", 1e6),
    ("observables.hamiltonian.us_per_snapshot", "observables.hamiltonian", "us", 1e6),
    ("observables.series.us_per_snapshot", "observables.series", "us", 1e6),
    ("sampling.gibbs.us_per_proposal", "sampling.gibbs", "us", 1e6),
    ("sampling.gibbs_single_site.us_per_proposal", "sampling.gibbs_single_site", "us", 1e6),
    ("sampling.gaussian.us_per_site", "sampling.gaussian", "us", 1e6),
)
# (metric, span name, unit): work per pass in spans of that name, the base of a rate
BASES = (
    ("dynamics.strang.site_steps", "dynamics.strang", "count"),
    ("dynamics.rk4.site_steps", "dynamics.rk4", "count"),
    ("dynamics.duhamel.evals", "dynamics.duhamel", "count"),
    ("hopping.convolve.sites", "hopping.convolve", "count"),
    ("lattice.truncate.sites", "lattice.truncate", "count"),
    ("observables.growth_bound.snapshots", "observables.growth_bound", "count"),
    ("observables.hamiltonian.snapshots", "observables.hamiltonian", "count"),
    ("observables.series.snapshots", "observables.series", "count"),
    ("observables.weighted_bound.calls", "observables.weighted_bound", "count"),
    ("convergence.sweep.sizes", "convergence.sweep", "count"),
    ("sampling.gibbs.proposals", "sampling.gibbs", "count"),
    ("sampling.gibbs_single_site.proposals", "sampling.gibbs_single_site", "count"),
    ("sampling.gaussian.sites", "sampling.gaussian", "count"),
    ("sampling.statistics.calls", "sampling.statistics", "count"),
)
# (metric, span name): busy seconds per pass in spans of that name
BUSY = (
    ("observables.weighted_bound.busy_s", "observables.weighted_bound"),
    ("convergence.sweep.busy_s", "convergence.sweep"),
    ("convergence.scheme_disagreement.busy_s", "convergence.scheme_disagreement"),
    ("sampling.statistics.busy_s", "sampling.statistics"),
)


def seed_offset(raw: str) -> int:
    seed = int(raw)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=seed_offset, required=True,
                        help="offset added to the task seeds; 0 gives the acceptance seeds")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the workload, then exit (times set-up)")
    return parser.parse_args(argv)


def setup_seconds(args) -> list[tuple[float, float]]:
    """(wall time, speed factor) of fresh processes that import numpy/scipy/dnls
    and build the tasks; each process reports the host speed it saw."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        out.append((time.perf_counter() - start, float(proc.stdout.split()[-1])))
    return out


def closed_loop(task_list, seconds, trace):
    """Run the tasks in order, pass after pass, until every task has the
    samples it needs and the next task, taking as long as it did last time,
    would end after `seconds`.  With tracing, task i of pass k is traced when
    k + i is odd, so traced and untraced instances interleave.  Each
    instance's times are also given at reference host speed (`ref_*`)."""
    tracer, untraced = Tracer(), Untraced()
    records = []
    need = {(task.name, False) for task in task_list}
    if trace:
        need |= {(task.name, True) for task in task_list}
    ctx = {}
    last = {}
    with Speedometer() as speedometer:
        start = time.perf_counter()
        k = 0
        done = False
        while not done:
            for i, task in enumerate(task_list):
                traced = bool(trace) and (k + i) % 2 == 1
                t = tracer if traced else untraced
                span = len(tracer.spans) if traced else None
                w0, c0 = time.perf_counter(), time.process_time()
                t.begin_task(task.name)
                checks, out_digest = task.run(t, ctx)
                t.end_task()
                w1, c1 = time.perf_counter(), time.process_time()
                records.append({
                    "task": task.name, "traced": traced, "span": span,
                    "start": w0, "wall_s": w1 - w0, "cpu_s": c1 - c0,
                    "checks": {name: bool(ok) for name, ok in checks.items()},
                    "digest": out_digest,
                })
                need.discard((task.name, traced))
                last[task.name] = w1 - w0
                upcoming = task_list[(i + 1) % len(task_list)].name
                done = not need and w1 - start + last[upcoming] > seconds
                if done:
                    break
            k += 1
    for r in records:
        f = speedometer.factor(r["start"], r["start"] + r["wall_s"])
        r.update(speed_factor=f, ref_wall_s=r["wall_s"] / f, ref_cpu_s=r["cpu_s"] / f)
    return records, tracer


def per_task_median(records, key, traced):
    by_task = defaultdict(list)
    for r in records:
        if r["traced"] == traced:
            by_task[r["task"]].append(r[key])
    return sum(statistics.median(v) for v in by_task.values())


def layer_metrics(records, tracer):
    """Per-layer figures per pass, from the traced task instances, at reference
    host speed: every span is scaled by its task instance's speed factor."""
    spans = tracer.spans
    selfs = self_times(spans)
    n_traced = defaultdict(int)
    factor = {}
    for r in records:
        if r["traced"]:
            n_traced[r["task"]] += 1
            factor[r["span"]] = r["speed_factor"]
    task_of = {i: spans[i][0] for i, s in enumerate(spans) if s[3] < 0}

    busy = defaultdict(float)   # per pass, by span name
    work = defaultdict(float)   # per pass, by span name
    calls = defaultdict(float)  # per pass, by span name
    total_time = defaultdict(float)  # all traced instances, by span name
    total_work = defaultdict(float)
    unspanned = traced_wall = 0.0
    for i, (name, start, end, parent, task, w) in enumerate(spans):
        share = 1.0 / n_traced[task_of[task]]
        scale = 1.0 / factor[task]
        if parent < 0:  # a task span: its self time is the benchmark's own code
            unspanned += selfs[i] * scale * share
            traced_wall += (end - start) * scale * share
            continue
        busy[name] += selfs[i] * scale * share
        work[name] += w * share
        calls[name] += share
        total_time[name] += (end - start) * scale
        total_work[name] += w

    m = {}
    for mod in MODULES:
        m[f"{mod}.busy_s"] = (sum(v for k, v in busy.items() if k.startswith(mod + ".")), "s")
        m[f"{mod}.calls"] = (round(sum(v for k, v in calls.items()
                                       if k.startswith(mod + "."))), "count")
    for metric, name, unit, per_unit in RATES:
        m[metric] = (per_unit * total_time[name] / total_work[name] if total_work[name] else 0.0,
                     unit)
    for metric, name, unit in BASES:
        m[metric] = (round(work[name]), unit)
    m["dynamics.site_steps"] = (round(work["dynamics.strang"] + work["dynamics.rk4"]), "count")
    for metric, name in BUSY:
        m[metric] = (busy[name], "s")

    counts = tracer.counts
    sweeps = total_work["convergence.sweep"]
    m["convergence.sweep.nonzero_fraction"] = (
        counts["convergence.sweep.nonzero"] / sweeps if sweeps else 0.0, "ratio")
    proposals = total_work["sampling.gibbs"]
    m["sampling.gibbs.acceptance"] = (
        counts["sampling.gibbs.accepted"] / proposals if proposals else 0.0, "ratio")
    cli_runs = sum(1 for r in records if r["traced"] and r["task"].startswith("cli-"))
    m["cli.bytes_written"] = (round(counts["cli.bytes_written"] / cli_runs) if cli_runs else 0,
                              "B")

    overhead = (per_task_median(records, "ref_wall_s", True)
                - per_task_median(records, "ref_wall_s", False))
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.unspanned_s"] = (unspanned, "s")
    m["trace.spans"] = (round(sum(calls.values())), "count")
    busy_total = sum(m[f"{mod}.busy_s"][0] for mod in MODULES)
    accounted = abs(busy_total + unspanned - traced_wall) <= 1e-6 * traced_wall
    return m, accounted, traced_wall


def environment(task_list):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "working_set_bytes": {t.name: t.working_set_bytes for t in task_list},
        "largest_working_set_bytes": max(t.working_set_bytes for t in task_list),
        "claims": "computed working sets only; no bandwidth or roofline figure is claimed",
    }


def git_rev():
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    task_list = workloads.build(args.workload, args.seed, workdir)
    if args.setup_probe:
        print(probe_factor())
        return 0
    own_setup = time.perf_counter() - _PROCESS_START
    probes = setup_seconds(args)

    loop_start, cpu_start = time.perf_counter(), time.process_time()
    records, tracer = closed_loop(task_list, args.seconds, args.trace)
    loop_wall, loop_cpu = time.perf_counter() - loop_start, time.process_time() - cpu_start

    attempted = sum(len(r["checks"]) for r in records)
    failed = sum(not ok for r in records for ok in r["checks"].values())
    metrics = {}
    extra = {"fail_frac": (failed / attempted, "ratio"),
             "loop_wall_s": (loop_wall, "s"), "loop_cpu_s": (loop_cpu, "s"),
             "task_instances": (len(records), "count"),
             "speed_factor.median": (statistics.median(r["speed_factor"] for r in records), "ratio")}
    if args.trace:
        layers, accounted, traced_wall = layer_metrics(records, tracer)
        metrics.update(layers)
        attempted += 1
        failed += not accounted
        extra["trace.accounting_ok"] = (int(accounted), "bool")
        extra["trace.wall_s"] = (traced_wall, "s")
    else:
        metrics["wall_s"] = (per_task_median(records, "ref_wall_s", False), "s")
        metrics["cpu_s"] = (per_task_median(records, "ref_cpu_s", False), "s")
        metrics["setup_s"] = (statistics.median(w / f for w, f in probes), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["pass_frac"] = ((attempted - failed) / attempted, "ratio")
        extra["raw_wall_s"] = (per_task_median(records, "wall_s", False), "s")
        extra["raw_cpu_s"] = (per_task_median(records, "cpu_s", False), "s")
        extra["raw_setup_s"] = (statistics.median(w for w, f in probes), "s")
        extra["setup_s.in_process"] = (own_setup, "s")

    digests = {}
    for r in records:
        digests.setdefault(r["task"], set()).add(r["digest"])
    failures = sorted({f"{r['task']}: {name}" for r in records
                       for name, ok in r["checks"].items() if not ok})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "attempted": attempted, "failed": failed, "failures": failures,
        "setup_probes_s": probes,
        # recorded, not gated: equal digests show byte-identical outputs
        "digests": {task: sorted(d) for task, d in digests.items()},
        "tasks": records,
        "environment": environment(task_list),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "task", "work"],
             "spans": tracer.spans}) + "\n")

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value!r} {unit}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
