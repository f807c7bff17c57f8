"""The benchmark's workloads: one task each, its seed, and its output check.

Importing this module imports no part of nlskam or numpy, so the
orchestrating process stays small; the task functions import the program
when they first run, inside a worker interpreter.

The benchmark's ``--seed`` picks the program seed from the workload's
pool in ``reference.json``: the first POOL_SIZE program seeds whose
outputs pass the workload's checks at the commit that made the
reference (see make_reference.py).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

POOL_SIZE = 20

# Step-CSV columns carrying the physics of a step.  They are gated against
# the reference at REL_TOL; accounting columns (flags_ok, error_budget,
# wall_time) and any column a later version adds are recorded, not gated.
PHYSICS_COLUMNS = (
    "r0_before", "r1_before", "r2_before", "r0_after", "r1_after",
    "r2_after", "min_divisor", "deferred_mass", "shift_magnitude",
    "vf_proxy")
REL_TOL = 1e-12

MEASURE_GAMMAS = ("0.01", "0.05", "0.1")
LEMMA_CASES = 15

# Spans every traced task of a workload must enter at least once.
_KAM_SPANS = (
    "hamiltonian.poisson_bracket", "hamiltonian.Hamiltonian.collected",
    "hamiltonian.Hamiltonian.expanded", "hamiltonian.norm.star_rho",
    "hamiltonian.norm.plus_rho", "hamiltonian.prune",
    "hamiltonian.class_split", "hamiltonian.linear_combine",
    "hamiltonian.vf_sup_norm", "hamiltonian.Hamiltonian.dumps",
    "homological.solve_homological", "diophantine.enumerate_ells",
    "diophantine.sample_strong_frequency", "nls.build_cubic_nls",
    "driver.kam_step", "driver.initial_state", "cli.dispatch")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    run: Callable          # (program_seed, out_dir) -> raw result; timed
    outputs: Callable      # (raw result, out_dir) -> Outputs; untimed
    check: Callable        # (values, reference) -> list of problems
    expected_spans: tuple


@dataclass(frozen=True)
class Outputs:
    digest: str            # sha256 over every output byte
    values: dict           # what the check and the reference compare
    bytes_written: int     # bytes of output files the task wrote


def program_seed(seed: int, pool) -> int:
    """The program seed of benchmark seed ``seed``: pool entry seed mod size."""
    ordered = sorted(int(s) for s in pool)
    return ordered[seed % len(ordered)]


def _read_files(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def _digest(blobs):
    h = hashlib.sha256()
    for name, data in blobs.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _same_float(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# -- kam-run ---------------------------------------------------------------

def _kam_run(flags):
    def run(seed, out_dir):
        from nlskam import cli
        return cli.dispatch(["kam-run", *flags, "--seed", str(seed),
                             "--out-prefix", os.path.join(out_dir, "kam")])
    return run


def _kam_outputs(rc, out_dir):
    blobs = _read_files(out_dir)
    rows = []
    text = blobs.get("kam.steps.csv", b"").decode()
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({c: float(row[c]) for c in PHYSICS_COLUMNS if c in row})
    return Outputs(_digest(blobs), {"exit": rc, "rows": rows},
                   sum(len(b) for b in blobs.values()))


def _kam_check(values, ref):
    if values["exit"] != 0:
        return [f"kam-run exited {values['exit']}"]
    rows, want = values["rows"], ref["rows"]
    if len(rows) != len(want):
        return [f"{len(rows)} step rows, reference has {len(want)}"]
    problems = []
    for i, (got, exp) in enumerate(zip(rows, want)):
        for col in PHYSICS_COLUMNS:
            if col not in got:
                problems.append(f"step CSV lacks column {col}")
            elif not _same_float(got[col], exp[col]):
                problems.append(f"row {i} {col}: {got[col]!r} != "
                                f"reference {exp[col]!r}")
    return problems


# -- lemma suite -----------------------------------------------------------

def _lemmas_run(seed, out_dir):
    from nlskam import verification
    return verification.run_suite(samples_norm=400, seed=seed)


def _lemmas_outputs(cases, out_dir):
    for c in cases:
        c.seconds = 0.0         # the only nondeterministic field
    text = "\n".join(c.csv_row() for c in cases).encode()
    return Outputs(_digest({"suite.csv": text}),
                   {"violations": {c.name: c.violations for c in cases}}, 0)


def _lemmas_check(values, ref):
    got = values["violations"]
    problems = [f"{name}: {v} violations" for name, v in got.items() if v]
    if len(got) != LEMMA_CASES:
        problems.append(f"{len(got)} lemma cases, expected {LEMMA_CASES}")
    return problems


# -- resonance measure -----------------------------------------------------

def _measure_run(seed, out_dir):
    from nlskam import cli
    argv = ["measure"]
    for g in MEASURE_GAMMAS:
        argv += ["--gamma", g]
    argv += ["--trials", "10000", "--ell-budget", "6", "--d", "1",
             "--radius", "2", "--seed", str(seed),
             "--out", os.path.join(out_dir, "measure.csv")]
    return cli.dispatch(argv)


def _measure_outputs(rc, out_dir):
    blobs = _read_files(out_dir)
    text = blobs.get("measure.csv", b"").decode()
    violations = {row["gamma"]: int(row["violations"])
                  for row in csv.DictReader(io.StringIO(text))}
    return Outputs(_digest(blobs), {"exit": rc, "violations": violations},
                   sum(len(b) for b in blobs.values()))


def _measure_check(values, ref):
    if values["exit"] != 0:
        return [f"measure exited {values['exit']}"]
    if values["violations"] != ref["violations"]:
        return [f"violations {values['violations']} != reference "
                f"{ref['violations']}"]
    return []


# Why each workload is here, and which layers it stresses: README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "kam_exact", 7,
        _kam_run(["--d", "1", "--radius", "2", "--eps", "1e-6",
                  "--steps", "2", "--prune-tol", "0"]),
        _kam_outputs, _kam_check, _KAM_SPANS),
    Workload(
        "kam_d2", 7,
        _kam_run(["--d", "2", "--radius", "1", "--eps", "1e-6",
                  "--gamma", "0.01", "--steps", "1"]),
        _kam_outputs, _kam_check, _KAM_SPANS),
    Workload(
        "lemmas", 0,
        _lemmas_run, _lemmas_outputs, _lemmas_check,
        ("hamiltonian.poisson_bracket", "hamiltonian.Hamiltonian.collected",
         "hamiltonian.Hamiltonian.expanded", "hamiltonian.norm.sup_rho",
         "hamiltonian.norm.star_rho", "hamiltonian.norm.plus_rho",
         "hamiltonian.linear_combine", "hamiltonian.vf_sup_norm",
         "hamiltonian.multiply", "hamiltonian.lie_transform",
         "verification.verify_scalar_lemma",
         "verification.verify_norm_lemma",
         "verification.random_hamiltonian")),
    Workload(
        "measure", 0,
        _measure_run, _measure_outputs, _measure_check,
        ("diophantine.resonance_measure", "diophantine.enumerate_ells",
         "cli.dispatch")),
)}
