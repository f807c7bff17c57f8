import math

import pytest

from nlskam import (
    HamParams,
    NormalForm,
    SmallDivisorError,
    ValidationError,
    class_split,
    divisor,
    homological_residual,
    sample_strong_frequency,
    schedule,
    solve_homological,
)
from nlskam.homological import RHO0, tail_weight
from nlskam.lattice import mi
from nlskam.nls import NlsConfig, build_cubic_nls, build_normal_form


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
    assert (tail_weight((), k, kb, (), params.weights())
            == pytest.approx(2.0 * w))


def test_truncation_budget_monotone():
    b0 = schedule(0, 1e-7).truncation_budget
    b1 = schedule(1, 1e-7).truncation_budget
    assert 0 < b0 < b1


def test_solver_splits_resonant_and_inverts_divisors():
    cfg, nf, R0, R1, R2 = _setup()
    sol = solve_homological(R0, R1, nf, guard=1e-8, B=1e9)
    # resonant terms have empty (k, k') and were not inverted
    for (_, k, kb, _) in sol.resonant.terms:
        assert k == () and kb == ()
    # every solved class-0 coefficient equals c / (i * divisor)
    solved0 = [key for key in sol.F.terms if key in R0.terms]
    assert solved0
    for key in solved0:
        _, k, kb, _ = key
        assert sol.F.terms[key] == R0.terms[key] / (1j * divisor(k, kb, nf))
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
    assert sol.F.is_zero() and sol.eliminated.is_zero()
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
