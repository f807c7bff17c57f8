import math
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from nlskam import (
    HamParams,
    NlsConfig,
    NormalForm,
    ValidationError,
    build_cubic_nls,
    build_normal_form,
    hamiltonian,
    nls,
)
from nlskam.hamiltonian import Hamiltonian, _Layout, _Memo
from nlskam.lattice import box_modes, conservation_check
from nlskam.nls import _pair_multiplicity, _term_count

from mi_helpers import tuple_terms


def _cfg(d, radius, **kw):
    return NlsConfig(HamParams(d=d, mode_radius=radius), epsilon=1e-6, **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        NlsConfig(HamParams(d=1, mode_radius=1), epsilon=0.0)
    with pytest.raises(ValidationError):
        _cfg(1, 1, sign=2)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValidationError, match="^epsilon must be > 0$"):
            NlsConfig(HamParams(d=1, mode_radius=1), epsilon=bad)
    # the builder packs its coefficients unchecked: a finite eps keeps
    # them finite
    with pytest.raises(ValidationError,
                       match="^epsilon must be finite, got inf$"):
        NlsConfig(HamParams(d=1, mode_radius=1), epsilon=math.inf)


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


def _reference_build_cubic_nls(cfg, physical_multiplicity=False):
    """The tuple-key builder the packed one replaced, frozen: each term an
    (a, k, k_bar, j, c) item through ``from_terms`` and the constructor."""
    params = cfg.params
    base = cfg.sign * cfg.epsilon / (2.0 * math.pi) ** params.d
    by_sum = {}
    for pair in combinations_with_replacement(params.box_modes(), 2):
        key = tuple(x + y for x, y in zip(*pair))
        by_sum.setdefault(key, []).append(pair)
    items = []
    for pairs in by_sum.values():
        for kp in pairs:
            for kbp in pairs:
                c = base
                if physical_multiplicity:
                    c *= _pair_multiplicity(kp) * _pair_multiplicity(kbp)
                items.append(((), [(kp[0], 1), (kp[1], 1)],
                              [(kbp[0], 1), (kbp[1], 1)], (), c))
    return Hamiltonian.from_terms(params, items)


def _reference_as_hamiltonian(nf, params):
    """The tuple-key N of ``NormalForm.as_hamiltonian``, frozen."""
    items = []
    for m in nf.modes:
        items.append(((), ((m, 1),), ((m, 1),), (),
                      complex(nf.omega_tangential(m))))
    return Hamiltonian.from_terms(params, items)


def _built_fresh(monkeypatch, build):
    """What ``build()`` stores when its params' layout is new: each term's
    packed key and coefficient bits in store order, and the modes in the
    order it registered them."""
    monkeypatch.setattr(hamiltonian, "_LAYOUTS", _Memo(_Layout))
    H = build()
    return ([(x, c.real.hex(), c.imag.hex()) for x, c in H._store.items()],
            list(H._layout.modes))


_PIN_BOXES = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("d,radius", _PIN_BOXES)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("physical", [False, True])
def test_packed_nls_is_the_tuple_key_build(monkeypatch, d, radius, sign,
                                           physical):
    cfg = _cfg(d, radius, sign=sign)
    got = _built_fresh(monkeypatch, lambda: build_cubic_nls(cfg, physical))
    want = _built_fresh(
        monkeypatch, lambda: _reference_build_cubic_nls(cfg, physical))
    assert got == want
    assert len(got[0]) == _term_count(d, radius)


@pytest.mark.parametrize("d,radius", _PIN_BOXES)
def test_packed_normal_form_is_the_tuple_key_build(monkeypatch, d, radius):
    cfg = _cfg(d, radius)
    modes = cfg.params.box_modes()
    start = build_normal_form(
        cfg, {m: 0.1 + 0.37 * i for i, m in enumerate(modes)})
    # a later step's form: a shifted parameter and mode order
    shifted = NormalForm(v_breve=-0.0625, v_hat=start.v_hat,
                         modes=modes[::-1],
                         cum_shift={m: 1e-3 for m in modes})
    for nf in (start, shifted):
        got = _built_fresh(monkeypatch,
                           lambda: nf.as_hamiltonian(cfg.params))
        want = _built_fresh(
            monkeypatch, lambda: _reference_as_hamiltonian(nf, cfg.params))
        assert got == want
        assert len(got[0]) == len(modes)


@pytest.mark.parametrize("d,radius", [(1, 20), (2, 3), (3, 1)])
def test_refusal_count_bounds_the_build_peak(monkeypatch, d, radius):
    # the bytes the refusal counts, against tracemalloc's peak over a
    # build that registers every mode in a new layout
    cfg = _cfg(d, radius)
    counted = []
    monkeypatch.setattr(nls, "_refuse_beyond_memory",
                        lambda what, need: counted.append(need))
    monkeypatch.setattr(hamiltonian, "_LAYOUTS", _Memo(_Layout))
    tracemalloc.start()
    try:
        H = build_cubic_nls(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [need] = counted
    # a bound, and not a loose one
    assert peak < need < 2 * peak
    assert len(H) == _term_count(d, radius)
