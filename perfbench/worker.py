"""One workload in a fresh interpreter: set up, run tasks, check outputs.

run.py starts this file with one JSON argument and reads the JSON result
it writes.  The worker runs one untimed warm-up task, which imports
nlskam; set-up ends when it returns.  Then it runs timed tasks in a
closed loop: the next task starts only after the previous one returned,
until the phase has run both its minimum number of tasks and its time
budget.  Just before each task after warm-up it times a fixed
pure-Python loop, so each task time has a probe of the machine's speed
at that moment beside it.  Every task is checked, warm-up included.  With
tracing on, a second phase runs the same tasks with every layer span
wrapped.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

CAL_ITERATIONS = 500_000   # 0.04-0.06 s on a 2.1 GHz x86-64 vCPU


def _clear(path):
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))


def calibrate():
    """Seconds for a fixed pure-Python loop, a probe of machine speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _env_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main():
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    from workloads import WORKLOADS
    from spans import Tracer, difference

    w = WORKLOADS[cfg["workload"]]
    seed, out_dir = cfg["program_seed"], cfg["work_dir"]
    ref = cfg["reference"]
    tasks = []

    def one(phase):
        _clear(out_dir)
        cal_s = None if phase == "warmup" else calibrate()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw = w.run(seed, out_dir)
            error = None
        except Exception:
            error = traceback.format_exc()
        t1, c1 = time.perf_counter(), time.process_time()
        rec = {"phase": phase, "wall_s": t1 - t0, "cpu_s": c1 - c0,
               "cal_s": cal_s, "digest": None, "bytes_written": 0}
        if error is None:
            try:
                out = w.outputs(raw, out_dir)
                rec["digest"] = out.digest
                rec["bytes_written"] = out.bytes_written
                rec["problems"] = w.check(out.values, ref)
            except Exception:
                rec["problems"] = [traceback.format_exc()]
        else:
            rec["problems"] = [error]
        for p in rec["problems"]:
            print(f"{w.name} {phase} task: {p}", file=sys.stderr)
        tasks.append(rec)
        return rec

    def loop(phase, budget, min_tasks, after_task=None):
        start = time.perf_counter()
        n = 0
        while n < min_tasks or time.perf_counter() - start < budget:
            rec = one(phase)
            n += 1
            if after_task:
                after_task(rec)
        return time.perf_counter() - start

    one("warmup")
    setup_s = time.perf_counter() - cfg["spawn_t"]
    timed_s = loop("timed", cfg["timed_budget_s"], cfg["timed_min"])

    traced = []
    if cfg["traced_budget_s"] is not None:
        tracer = Tracer()
        tracer.install()
        before = tracer.snapshot()

        def record(rec):
            nonlocal before
            after = tracer.snapshot()
            delta = difference(after, before)
            before = after
            if delta["cli.dispatch"]["calls"]:
                delta["cli.dispatch"]["bytes_written"] = rec["bytes_written"]
            missing = [s for s in w.expected_spans if not delta[s]["calls"]]
            if missing:
                rec["problems"].append(f"spans with no call: {missing}")
                print(f"{w.name} traced task: no call of {missing}",
                      file=sys.stderr)
            traced.append(delta)

        loop("traced", cfg["traced_budget_s"], 1, record)

    result = {
        "setup_s": setup_s,
        "timed_phase_s": timed_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tasks": tasks,
        "spans": traced,
        "env": _env_info(),
    }
    with open(cfg["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
