import math
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from nlskam import (
    HamParams,
    NlsConfig,
    ValidationError,
    build_cubic_nls,
    build_normal_form,
)
from nlskam.lattice import box_modes, conservation_check
from nlskam.nls import _term_count

from mi_helpers import tuple_terms


def _cfg(d, radius, **kw):
    return NlsConfig(HamParams(d=d, mode_radius=radius), epsilon=1e-6, **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        NlsConfig(HamParams(d=1, mode_radius=1), epsilon=0.0)
    with pytest.raises(ValidationError):
        _cfg(1, 1, sign=2)


def _independent_count(d, radius):
    """Oracle: admissible (k, k') pairs counted by direct enumeration."""
    modes = [()]
    for _ in range(d):
        modes = [m + (c,) for m in modes
                 for c in range(-radius, radius + 1)]
    count = 0
    pairs = list(combinations_with_replacement(sorted(modes), 2))
    for kp in pairs:
        for kbp in pairs:
            if tuple(x + y for x, y in zip(*kp)) == tuple(
                    x + y for x, y in zip(*kbp)):
                count += 1
    return count


def test_term_count_d1_radius1():
    H = build_cubic_nls(_cfg(1, 1))
    assert len(H) == 8
    assert len(H) == _independent_count(1, 1)


def test_term_count_matches_oracle():
    for d, radius in ((1, 2), (2, 1)):
        H = build_cubic_nls(_cfg(d, radius))
        assert len(H) == _independent_count(d, radius)


@pytest.mark.parametrize("d,radius", [(1, 0), (1, 1), (1, 3), (1, 10),
                                      (2, 1), (2, 2), (2, 3), (3, 1), (3, 3)])
def test_closed_form_term_count(d, radius):
    # the count the memory refusal reads, against the mode pairs grouped
    # by their sum, and against build_cubic_nls on the smaller boxes
    by_sum = Counter(tuple(x + y for x, y in zip(*pair)) for pair in
                     combinations_with_replacement(box_modes(d, radius), 2))
    count = _term_count(d, radius)
    assert count == sum(u * u for u in by_sum.values())
    if count < 20_000:
        assert count == len(build_cubic_nls(_cfg(d, radius)))


def test_coefficients_flat_and_real():
    H = build_cubic_nls(_cfg(1, 2))
    base = 1e-6 / (2.0 * math.pi)
    for (a, k, kb, j), c in tuple_terms(H).items():
        assert a == () and j == ()
        assert c == pytest.approx(base)
        assert conservation_check(k, kb) == (True, True)
    assert H.check_reality() == 0.0


def test_sign_and_dimension_scaling():
    neg = build_cubic_nls(_cfg(1, 1, sign=-1))
    assert all(c.real < 0 for c in tuple_terms(neg).values())
    h2 = build_cubic_nls(_cfg(2, 1))
    base2 = 1e-6 / (2.0 * math.pi) ** 2
    assert next(iter(tuple_terms(h2).values())).real == pytest.approx(base2)


def test_physical_multiplicity_counts():
    H = build_cubic_nls(_cfg(1, 1), physical_multiplicity=True)
    base = 1e-6 / (2.0 * math.pi)
    # q_1 q_-1 qbar_0^2: multiplicity 2 (distinct pair) * 1 (repeated pair)
    key = ((), (((-1,), 1), ((1,), 1)), (((0,), 2),), ())
    assert tuple_terms(H)[key] == pytest.approx(2.0 * base)
    # q_0^2 qbar_0^2
    key2 = ((), (((0,), 2),), (((0,), 2),), ())
    assert tuple_terms(H)[key2] == pytest.approx(base)


def test_normal_form_start():
    cfg = _cfg(1, 1)
    omega = {(-1,): 0.1, (0,): 0.2, (1,): 0.3}
    nf = build_normal_form(cfg, omega)
    assert nf.v_breve == 0.0
    assert nf.v_hat == omega
    assert nf.cum_shift == {m: 0.0 for m in omega}
    assert nf.v_star == omega
    assert nf.omega_tangential((1,)) == pytest.approx(1.0 + 0.3)
    with pytest.raises(ValidationError):
        build_normal_form(cfg, {(0,): 0.2})
    outside = r"^mode \(2,\) lies outside the box of radius 1$"
    with pytest.raises(ValidationError, match=outside):
        build_normal_form(cfg, {**omega, (5,): 0.1, (2,): 0.4})


def test_normal_form_as_hamiltonian():
    cfg = _cfg(1, 1)
    omega = {(-1,): 0.1, (0,): 0.2, (1,): 0.3}
    nf = build_normal_form(cfg, omega)
    N = nf.as_hamiltonian(cfg.params)
    assert len(N) == 3
    key = ((), (((1,), 1),), (((1,), 1),), ())
    assert tuple_terms(N)[key] == pytest.approx(1.3)
