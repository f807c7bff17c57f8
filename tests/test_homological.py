import functools
import math
from dataclasses import replace

import pytest

from nlskam import (
    HamParams,
    NormalForm,
    SmallDivisorError,
    ValidationError,
    class_split,
    divisor,
    hamiltonian,
    homological_residual,
    linear_combine,
    run_suite,
    sample_strong_frequency,
    schedule,
    solve_homological,
)
from nlskam.driver import (
    KamConfig,
    _conserving,
    _eps0_of,
    initial_state,
    kam_step,
    run,
)
from nlskam.hamiltonian import (
    Hamiltonian,
    _Layout,
    key_layout,
    split_terms,
)
from nlskam.homological import RHO0, HomologicalSolution, tail_weight
from nlskam.lattice import mi, mi_degree
from nlskam.nls import NlsConfig, build_cubic_nls, build_normal_form

from mi_helpers import tuple_terms


def _setup(d=1, radius=2, seed=7, gamma=0.1):
    cfg = NlsConfig(HamParams(d=d, mode_radius=radius), epsilon=1e-6)
    H = build_cubic_nls(cfg)
    omega, _ = sample_strong_frequency(cfg.params, gamma, 6, seed)
    nf = build_normal_form(cfg, omega)
    R0, R1, R2 = class_split(H.collected())
    return cfg, nf, R0, R1, R2


def test_rho0_value():
    assert RHO0 == pytest.approx((3.0 - 2.0 * math.sqrt(2.0)) / 100.0)


def test_omega_tangential_composition():
    nf = NormalForm(v_breve=0.5, v_hat={(3,): 0.25}, modes=((3,),))
    assert nf.omega_tangential((3,)) == pytest.approx(9.0 + 0.5 + 0.25)


def test_divisor_mass_cancellation():
    # for mass-conserving keys the v_breve part cancels identically
    k = mi([((1,), 1), ((-1,), 1)])
    kb = mi([((0,), 2)])
    base = NormalForm(v_breve=0.0, v_hat={(1,): 0.1, (-1,): 0.2, (0,): 0.3},
                      modes=((1,), (-1,), (0,)))
    shifted = NormalForm(v_breve=123.0, v_hat=base.v_hat, modes=base.modes)
    assert divisor(k, kb, base) == pytest.approx(divisor(k, kb, shifted))
    # explicit value: 1 + 0.1 + 1 + 0.2 - 2*(0 + 0.3)
    assert divisor(k, kb, base) == pytest.approx(1.7)


def test_tail_weight_counts_third_largest_onward():
    params = HamParams(d=1, mode_radius=2)
    w = params.weight((0,))
    k = mi([((1,), 1), ((-1,), 1)])
    kb = mi([((0,), 2)])
    # system has 4 entries, tail = 2 entries at the floor weight
    weights = {m: params.weight(m) for m in params.box_modes()}
    assert tail_weight((), k, kb, (), weights) == pytest.approx(2.0 * w)


def test_truncation_budget_monotone():
    b0 = schedule(0, 1e-7).truncation_budget
    b1 = schedule(1, 1e-7).truncation_budget
    assert 0 < b0 < b1


def test_solver_splits_resonant_and_inverts_divisors():
    cfg, nf, R0, R1, R2 = _setup()
    sol = solve_homological(R0, R1, nf, guard=1e-8, B=1e9)
    # resonant terms have empty (k, k') and were not inverted
    for (_, k, kb, _) in tuple_terms(sol.resonant):
        assert k == () and kb == ()
    # every solved class-0 coefficient equals c / (i * divisor)
    F, R = tuple_terms(sol.F), tuple_terms(R0)
    solved0 = [key for key in F if key in R]
    assert solved0
    for key in solved0:
        _, k, kb, _ = key
        assert F[key] == R[key] / (1j * divisor(k, kb, nf))
    assert sol.stats["solved_terms"] > 0
    assert sol.stats["min_divisor"] >= 1e-8


def test_solver_guard_raises():
    cfg, nf, R0, R1, R2 = _setup()
    with pytest.raises(SmallDivisorError) as exc:
        solve_homological(R0, R1, nf, guard=1e3, B=1e9)
    assert exc.value.key is not None
    with pytest.raises(ValidationError):
        solve_homological(R0, R1, nf, guard=0.0, B=1e9)


def test_solver_defers_heavy_tails():
    cfg, nf, R0, R1, R2 = _setup()
    sol = solve_homological(R0, R1, nf, guard=1e-8, B=0.0)
    # with a zero budget every nonresonant term is deferred
    assert len(sol.F) == 0 and len(sol.eliminated) == 0
    assert sol.stats["deferred_terms"] > 0
    assert sol.stats["deferred_mass"] > 0.0


def test_homological_residual_small():
    cfg, nf, R0, R1, R2 = _setup()
    sol = solve_homological(R0, R1, nf, guard=1e-8, B=1e9)
    res, base = homological_residual(sol, R0, R1, nf)
    assert base > 0
    assert res / base <= 1e-10


def test_residual_2d():
    # at d=2 the excluded sets cover the whole frequency box for
    # gamma=0.1 (many unit-norm modes), so a smaller gamma is used
    cfg, nf, R0, R1, R2 = _setup(d=2, radius=1, gamma=0.01)
    sol = solve_homological(R0, R1, nf, guard=1e-8, B=1e9)
    res, base = homological_residual(sol, R0, R1, nf)
    assert res / base <= 1e-10


# -- the routed solver against the tuple-keyed one ----------------------------

def _ref_solve_homological(R0, R1, nf, guard, B):
    """The tuple-keyed solver the routed one replaced, kept frozen as the
    reference: one loop over R0's and R1's tuple views into four dicts."""
    if guard <= 0:
        raise ValidationError("guard must be positive")
    params = R0.params
    weights = {m: params.weight(m) for m in params.box_modes()}
    min_div = math.inf
    quad_diag = []
    deferred_mass = 0.0
    f_terms, res_terms, def_terms, elim_terms = {}, {}, {}, {}
    for R in (R0, R1):
        for key, c in tuple_terms(R).items():
            a, k, kb, j = key
            if k == () and kb == ():
                res_terms[key] = c
                continue
            if mi_degree(k) + mi_degree(kb) == 2 and k != kb:
                quad_diag.append(key)
            if tail_weight(a, k, kb, j, weights) > B:
                def_terms[key] = c
                deferred_mass += abs(c)
                continue
            D = divisor(k, kb, nf)
            if abs(D) < guard:
                raise SmallDivisorError(
                    f"divisor {D:.3e} below guard {guard:.3e} "
                    f"for k={k}, k_bar={kb}", key=key, divisor=D)
            min_div = min(min_div, abs(D))
            f_terms[key] = c / (1j * D)
            elim_terms[key] = c
    stats = {
        "min_divisor": min_div,
        "solved_terms": len(f_terms),
        "deferred_terms": len(def_terms),
        "deferred_mass": deferred_mass,
        "quad_nonresonant": quad_diag,
    }
    F, res, dfr, elim = (Hamiltonian(params, t) for t in (
        f_terms, res_terms, def_terms, elim_terms))
    return HomologicalSolution(F.expanded(), res, dfr, elim.expanded(), stats)


# the perfbench configs kam_exact and kam_d2, and the sigma = 6 run whose
# step 0 defers all of R0 + R1
KAM_EXACT = KamConfig(NlsConfig(HamParams(d=1, mode_radius=2), epsilon=1e-6),
                      steps=2, prune_tol=0.0, seed=7)
KAM_D2 = KamConfig(NlsConfig(HamParams(d=2, mode_radius=1), epsilon=1e-6),
                   gamma=0.01, steps=1, seed=7)
SIGMA_6 = KamConfig(NlsConfig(HamParams(d=1, sigma=6.0), epsilon=1e-6),
                    steps=2, seed=7)


@functools.lru_cache(maxsize=None)
def _step_inputs(cfg):
    """Per step of ``cfg``, the solver's arguments as ``kam_step`` passes
    them."""
    _, states, _ = run(cfg)
    return [(st.R0, st.R1, st.nf,
             cfg.gamma * schedule(s, _eps0_of(cfg)).lambda_s,
             schedule(s, _eps0_of(cfg)).truncation_budget)
            for s, st in enumerate(states[:cfg.steps])]


def _quad_nonresonant_args():
    """Solver arguments with two quadratic nonresonant keys, which no
    momentum-conserving input has."""
    _, nf, R0, R1, _ = _setup()
    quad = Hamiltonian(R0.params, {
        ((), (((0,), 1),), (((1,), 1),), ()): 1e-9,
        ((), (((1,), 1),), (((0,), 1),), ()): 1e-9})
    return linear_combine(1.0, R0, 1.0, quad), R1, nf, 1e-8, 1e9


def _bits(H):
    return [(key, c.real.hex(), c.imag.hex())
            for key, c in tuple_terms(H).items()]


def _assert_same_solution(args):
    sol, ref = solve_homological(*args), _ref_solve_homological(*args)
    for part in ("F", "resonant", "deferred", "eliminated"):
        assert _bits(getattr(sol, part)) == _bits(getattr(ref, part)), part
    assert sol.stats == ref.stats
    return sol


@pytest.mark.parametrize("cfg,s", [(KAM_EXACT, 0), (KAM_EXACT, 1),
                                   (KAM_D2, 0), (SIGMA_6, 0), (SIGMA_6, 1)])
def test_solver_matches_the_tuple_keyed_solver(cfg, s):
    _assert_same_solution(_step_inputs(cfg)[s])


def test_solver_reports_quadratic_nonresonant_keys_as_the_tuple_keyed_one():
    sol = _assert_same_solution(_quad_nonresonant_args())
    assert len(sol.stats["quad_nonresonant"]) == 2


def test_sigma_6_step_0_defers_all_of_r0_and_r1():
    R0, R1, *rest = args = _step_inputs(SIGMA_6)[0]
    sol = _assert_same_solution(args)
    assert sol.stats["solved_terms"] == 0
    assert sol.stats["min_divisor"] == math.inf
    assert sol.stats["deferred_terms"] == len(R0) + len(R1) - len(
        sol.resonant)
    assert sol.stats["deferred_mass"] > 0.0


def test_small_divisor_raises_as_the_tuple_keyed_solver_does():
    # program seed 13 stops kam_exact at step 1 on a small divisor
    cfg = KamConfig(NlsConfig(HamParams(d=1, mode_radius=2), epsilon=1e-6),
                    steps=1, prune_tol=0.0, seed=13)
    _, states, _ = run(cfg)
    sched = schedule(1, _eps0_of(cfg))
    st = states[1]
    args = (st.R0, st.R1, st.nf, cfg.gamma * sched.lambda_s,
            sched.truncation_budget)
    with pytest.raises(SmallDivisorError) as got:
        solve_homological(*args)
    with pytest.raises(SmallDivisorError) as want:
        _ref_solve_homological(*args)
    assert str(got.value) == str(want.value)
    assert got.value.key == want.value.key
    assert got.value.divisor == want.value.divisor


def test_solver_packs_no_key(monkeypatch):
    calls = []
    pack = _Layout.pack

    def counting(self, key):
        calls.append(key)
        return pack(self, key)

    inputs = _step_inputs(KAM_EXACT)
    monkeypatch.setattr(_Layout, "pack", counting)
    for args in inputs:
        solve_homological(*args)
    assert calls == []


def test_the_step_decodes_only_the_keys_it_reports(monkeypatch):
    decoded = []
    decode = _Layout.decode

    def counting(self, x):
        decoded.append(decode(self, x))
        return decoded[-1]

    inputs = _step_inputs(KAM_EXACT)
    # the summed classes of each later state, as kam-run writes them
    _, states, _ = run(KAM_EXACT)
    sums = [linear_combine(1.0, linear_combine(1.0, st.R0, 1.0, st.R1),
                           1.0, st.R2) for st in states[1:]]
    # program seed 13 stops kam_exact at step 1 on a small divisor
    cfg = replace(KAM_EXACT, steps=1, seed=13)
    _, states, _ = run(cfg)
    sched = schedule(1, _eps0_of(cfg))
    small = (states[1].R0, states[1].R1, states[1].nf,
             cfg.gamma * sched.lambda_s, sched.truncation_budget)
    quad_args = _quad_nonresonant_args()
    monkeypatch.setattr(_Layout, "decode", counting)
    for args in inputs:         # conserving: nothing to report
        solve_homological(*args)
    for R in sums:
        class_split(R)
        assert _conserving(R)
        R.dumps()
    assert decoded == []
    sol = solve_homological(*quad_args)
    assert len(decoded) == 2
    assert decoded == sol.stats["quad_nonresonant"]
    decoded.clear()
    # a small divisor reports the key it names
    with pytest.raises(SmallDivisorError) as got:
        solve_homological(*small)
    assert decoded == [got.value.key]


def test_kam_steps_decode_only_the_small_divisor_key(monkeypatch):
    # expand, collect, the bracket's rows, the field values and every
    # other op of a step read blocks, so a step decodes no key at all
    decoded = []
    decode = _Layout.decode

    def counting(self, x):
        decoded.append(decode(self, x))
        return decoded[-1]

    eps0 = _eps0_of(KAM_EXACT)
    state, _ = initial_state(KAM_EXACT)
    # program seed 13 stops kam_exact at step 1 on a small divisor
    small_cfg = replace(KAM_EXACT, seed=13)
    small, _ = initial_state(small_cfg)
    monkeypatch.setattr(_Layout, "decode", counting)
    for s in range(KAM_EXACT.steps):
        state, _ = kam_step(state, schedule(s, eps0), KAM_EXACT)
    small, _ = kam_step(small, schedule(0, eps0), small_cfg)
    assert decoded == []
    with pytest.raises(SmallDivisorError) as got:
        kam_step(small, schedule(1, eps0), small_cfg)
    assert decoded == [got.value.key]


def test_lemma_suite_decodes_no_key(monkeypatch):
    # nor checks one: its draws are packed as they come
    decoded, checked = [], []
    decode, check_key = _Layout.decode, hamiltonian._check_key

    def counting(self, x):
        decoded.append(x)
        return decode(self, x)

    def counting_checks(key, params):
        checked.append(key)
        return check_key(key, params)

    monkeypatch.setattr(_Layout, "decode", counting)
    monkeypatch.setattr(hamiltonian, "_check_key", counting_checks)
    assert "gap" in {c.name for c in run_suite(samples_norm=20)}
    assert decoded == checked == []


def test_split_parts_are_collected_exactly_when_every_source_is():
    cfg, nf, R0, R1, R2 = _setup()
    H = build_cubic_nls(cfg)

    jcount = key_layout(R0).degrees

    def by_j(x, a, k, kb, j, c):
        return ((jcount[j], c),)

    # scale drops the collected mark
    for sources, marked in (((R0, R1), True), ((H.collected(),), True),
                            ((H,), False), ((R0, R1.scale(1.0)), False)):
        parts = split_terms(sources, by_j, 3)
        assert [P.collected() is P for P in parts] == [marked] * 3
