"""The nlskam benchmark: one workload per run, timed end to end.

    python3 perfbench/run.py --workload kam_exact [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  Each worker is a fresh interpreter
(worker.py), so set-up time and peak memory do not leak between
workloads or runs.  Untraced (``--trace 0``), WORKERS workers run one
after another; each sets up, then runs timed tasks in a closed loop with
one caller.  Together they run at least ``--seconds`` of timed work and
at least MIN_TIMED timed tasks.  Traced (``--trace 1``), one worker
spends half the budget untraced and half with every layer span wrapped
(see spans.py), at least one task each.

The machines this runs on change speed by 20-50 % within a minute (see
README.md), so the gated task metrics are ratios: the run's median task
time over the run's median time of the calibration loop that runs just
before each task.  Raw seconds are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those BENCHMARK.json lists.  The lines before it give every
metric with its sample count, the run metadata and fail_ratio.  The full
report, raw samples included, goes to
``.bench_build/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

from spans import layer_metrics
from workloads import WORKLOADS, program_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
WORKERS = 2
MIN_TIMED = 4
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nlskam")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(cfg, deadline):
    """Start one worker, wait for it, return its result dict."""
    cfg = dict(cfg, spawn_t=time.perf_counter())
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    with open(cfg["result_path"]) as fh:
        return json.load(fh)


def mark_inconsistent(tasks):
    """Fail every task whose outputs differ from the most common ones."""
    digests = collections.Counter(t["digest"] for t in tasks)
    common, n = digests.most_common(1)[0]
    tie = sum(1 for c in digests.values() if c == n) > 1
    for t in tasks:
        if t["digest"] is None or t["digest"] != common or tie:
            t["problems"].append("outputs differ from other tasks of the run")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="timed work per run, shared by the workers")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "nlskam", "__init__.py")):
        print(f"error: no nlskam sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    with open(os.path.join(HERE, "reference.json")) as fh:
        pool = json.load(fh)[w.name]["pool"]
    pseed = program_seed(seed, pool)
    reference = pool[str(pseed)]

    # Byte-compile first, so no run pays compilation in its set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=sys.stderr)
    work = os.path.join(BUILD, "work", f"{w.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)

    meta = {
        "workload": w.name, "seed": seed, "program_seed": pseed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "loadavg": os.getloadavg(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }
    n_workers = 1 if args.trace else WORKERS
    results = []
    used, done = 0.0, 0
    try:
        for i in range(n_workers):
            left = n_workers - i
            cfg = {
                "root": ROOT, "workload": w.name, "program_seed": pseed,
                "reference": reference, "work_dir": work,
                "result_path": f"{work}-{i}.json",
                "timed_budget_s": (args.seconds / 2 if args.trace else
                                   (args.seconds - used) / left),
                "timed_min": (1 if args.trace else
                              max(1, -(-(MIN_TIMED - done) // left))),
                "traced_budget_s": args.seconds / 2 if args.trace else None,
            }
            res = run_worker(cfg, deadline)
            used += res["timed_phase_s"]
            done += sum(1 for t in res["tasks"] if t["phase"] == "timed")
            results.append(res)
            os.remove(cfg["result_path"])
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {w.name}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["env"] = results[0]["env"]

    tasks = [t for r in results for t in r["tasks"]]
    mark_inconsistent(tasks)
    failed = sum(1 for t in tasks if t["problems"])
    timed = [t for t in tasks if t["phase"] == "timed"]
    n = len(timed)
    task_s = median([t["wall_s"] for t in timed])
    task_cpu_s = median([t["cpu_s"] for t in timed])
    cal_s = median([t["cal_s"] for t in timed])
    samples = {
        "task_rel": (task_s / cal_s, "ratio", n),
        "task_cpu_rel": (task_cpu_s / cal_s, "ratio", n),
        "task_s": (task_s, "s", n),
        "task_cpu_s": (task_cpu_s, "s", n),
        "calibration_s": (cal_s, "s", n),
        "setup_s": (median([r["setup_s"] for r in results]), "s",
                    len(results)),
        "peak_rss_mb": (median([r["peak_rss_kb"] for r in results]) / 1024,
                        "MB", len(results)),
        "fail_ratio": (failed / len(tasks), "ratio", len(tasks)),
    }
    traced = [t for t in tasks if t["phase"] == "traced"]
    if args.trace:
        spans = [d for r in results for d in r["spans"]]
        for name, (value, unit) in layer_metrics(spans).items():
            samples[name] = (value, unit, len(spans))
        traced_rel = (median([t["wall_s"] for t in traced])
                      / median([t["cal_s"] for t in traced]))
        samples["trace.overhead_ratio"] = (
            traced_rel / samples["task_rel"][0] - 1, "ratio", len(traced))

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in samples
               or m["unit"] != samples[m["name"]][1]]
    if unknown:
        print(f"error: BENCHMARK.json metrics {unknown} are not measured "
              "here with that unit", file=sys.stderr)
        return 1

    for key, val in meta.items():
        print(f"# {key}: {json.dumps(val)}")
    for name, (value, unit, n) in samples.items():
        print(f"{name:48s} {value!r:>24} {unit:6s} n={n}")
    report = {"meta": meta, "metrics": samples, "tasks": tasks,
              "elapsed_s": time.perf_counter() - t_start}
    path = os.path.join(BUILD, "results",
                        f"{w.name}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {m["name"]: {"value": samples[m["name"]][0],
                                "unit": samples[m["name"]][1]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
