import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlskam import (HamParams, ValidationError, sample_strong_frequency,
                    weighted_gap)
from nlskam.errors import DimensionMismatchError
from nlskam.lattice import (
    box_modes,
    check_mode,
    conservation_check,
    mi,
    mi_degree,
    mi_signed,
    sorted_system,
)
from nlskam.verification import verify_scalar_lemma

from mi_helpers import mi_add, momentum_defect

LAT = HamParams(d=1, sigma=2.5, floor_const=1024.0)


def test_params_validation():
    with pytest.raises(ValidationError, match="^dimension must be >= 1"):
        HamParams(d=0, sigma=2.5)
    with pytest.raises(ValidationError, match="^sigma must be finite and > 2"):
        HamParams(d=1, sigma=2.0)
    with pytest.raises(ValidationError,
                       match="^floor_const must be finite and >= 21"):
        HamParams(d=1, sigma=2.5, floor_const=20.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="sigma must be finite"):
            HamParams(d=1, sigma=bad)
        with pytest.raises(ValidationError,
                           match="floor_const must be finite"):
            HamParams(d=1, sigma=2.5, floor_const=bad)


def test_mode_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        check_mode((1, 2), LAT.d)


def test_weight_closed_form():
    assert LAT.weight((3,)) == pytest.approx(math.log(1024.0) ** 2.5)
    assert LAT.weight((2000,)) == pytest.approx(math.log(2000.0) ** 2.5)
    # weight is monotone in the norm above the floor
    assert LAT.weight((2048,)) < LAT.weight((4096,))


def test_mi_canonical_form():
    m = mi([((2,), 1), ((-1,), 2), ((2,), 1)])
    assert m == (((-1,), 2), ((2,), 2))
    assert mi_degree(m) == 4
    assert mi([((0,), 0)]) == ()
    with pytest.raises(ValidationError):
        mi([((0,), -1)])


def test_mi_add_and_signed():
    m1 = mi([((1,), 1)])
    m2 = mi([((1,), 2), ((0,), 1)])
    assert mi_add(m1, m2) == (((0,), 1), ((1,), 3))
    assert mi_signed(m1, m2) == {(1,): -1, (0,): -1}


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 3)),
                max_size=6))
@settings(max_examples=200, deadline=None)
def test_mi_idempotent(entries):
    m = mi([((c,), e) for c, e in entries])
    assert mi(m) == m
    assert all(e > 0 for _, e in m)
    assert list(m) == sorted(m)


def test_sorted_system_multiplicities():
    a = mi([((1,), 1)])
    k = mi([((2000,), 1), ((1,), 1)])
    kb = mi([((-3,), 2)])
    sys = sorted_system(a, k, kb, jmodes=((5,),))
    # 2a + k + k' + 2 per J occurrence, descending Euclidean norm
    assert sys == ((2000,), (5,), (5,), (-3,), (-3,), (1,), (1,), (1,))


def test_sorted_system_tie_break_deterministic():
    sys = sorted_system((), mi([((2,), 1), ((-2,), 1)]), (), ())
    assert sys == ((-2,), (2,))


def test_conservation_and_defect():
    k = mi([((1,), 1), ((-1,), 1)])
    kb = mi([((0,), 2)])
    assert conservation_check(k, kb) == (True, True)
    assert momentum_defect(k, kb, 1) == (0,)
    kb2 = mi([((0,), 1)])
    assert conservation_check(k, kb2) == (False, True)
    kb3 = mi([((0,), 1), ((1,), 1)])
    assert conservation_check(k, kb3) == (True, False)
    assert momentum_defect(k, kb3, 1) == (-1,)


def _ref_conservation_check(k, k_bar):
    """conservation_check as it read through the signed map."""
    signed = mi_signed(k, k_bar)
    mass = sum(signed.values()) == 0
    if signed:
        mom = [0] * len(next(iter(signed)))
        for mode, e in signed.items():
            for i, c in enumerate(mode):
                mom[i] += e * c
        return mass, all(v == 0 for v in mom)
    return mass, True


def _multi_index(d):
    mode = st.tuples(*[st.integers(-3, 3)] * d)
    return st.lists(st.tuples(mode, st.integers(1, 3)), max_size=4).map(mi)


@pytest.mark.parametrize("d", [1, 2])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_conservation_check_matches_the_signed_map(d, data):
    k = data.draw(_multi_index(d))
    # k_bar is drawn, equal to k (everything cancels), or k plus a part
    k_bar = data.draw(st.one_of(
        _multi_index(d), st.just(k),
        _multi_index(d).map(lambda extra: mi_add(k, extra))))
    for pair in ((k, k_bar), (k_bar, k), (k, ()), ((), k_bar)):
        assert conservation_check(*pair) == _ref_conservation_check(*pair)
    assert conservation_check((), ()) == (True, True)
    assert conservation_check(k, k) == (True, True)


def test_gap_requires_momentum_conservation():
    with pytest.raises(ValidationError):
        weighted_gap((), mi([((1,), 1)]), mi([((0,), 1)]), LAT)


def test_gap_simple_values():
    # q_n qbar_n: S = 2w, L1 = w, no tail
    assert weighted_gap((), mi([((7,), 1)]), mi([((7,), 1)]), LAT) == 0.0
    # quartic conserving term is nonnegative
    k = mi([((2,), 1), ((-2,), 1)])
    kb = mi([((0,), 2)])
    assert weighted_gap((), k, kb, LAT) >= 0.0
    assert weighted_gap((), (), (), LAT) == 0.0


def _c_star(sigma):
    """The least floor at which ln^sigma is log-superadditive at the corner
    x = y = c: ln^sigma(2c) = 1.5 ln^sigma c."""
    return math.exp(math.log(2) / (1.5 ** (1 / sigma) - 1))


def test_gap_is_negative_below_the_premise():
    # floor 21 < c*(2.5) = 51.2: q_42 qbar_21^2 conserves momentum
    p = HamParams(d=1, sigma=2.5, floor_const=21.0)
    gap = weighted_gap((), mi([((42,), 1)]), mi([((21,), 2)]), p)
    assert gap == pytest.approx(-2.7487, abs=5e-5)


@pytest.mark.parametrize("sigma", [2.1, 2.5, 3.0, 4.0])
def test_log_superadditivity_holds_from_c_star_on(sigma):
    c = _c_star(sigma)
    above = verify_scalar_lemma("log_superadditivity",
                                {"sigma": sigma, "c": 1.01 * c})
    below = verify_scalar_lemma("log_superadditivity",
                                {"sigma": sigma, "c": 0.99 * c})
    assert above.violations == 0
    assert below.violations >= 1


@given(st.lists(st.integers(-2048, 2048), min_size=1, max_size=3),
       st.lists(st.integers(-2048, 2048), min_size=0, max_size=2))
@settings(max_examples=300, deadline=None)
def test_gap_nonnegative_property(kmodes, amodes):
    # repair momentum by appending the reflected sum to k'
    total = sum(kmodes)
    kb_modes = [0] * (len(kmodes) - 1) + [total]
    k = mi([((c,), 1) for c in kmodes])
    kb = mi([((c,), 1) for c in kb_modes])
    a = mi([((c,), 1) for c in amodes])
    assert weighted_gap(a, k, kb, LAT) >= -1e-12


def test_box_modes_shared_by_lattice_and_sampler():
    assert box_modes(2, 1) == tuple(sorted(
        (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)))
    assert box_modes(1, 0) == ((0,),)
    hp = HamParams(d=2, sigma=2.5, r=1.0, mode_radius=1)
    omega, _ = sample_strong_frequency(hp, 0.1, 3, seed=0)
    assert hp.box_modes() == tuple(omega) == box_modes(2, 1)


def test_box_modes_returns_one_cached_tuple_per_arguments():
    modes = box_modes(1, 2)
    assert modes == ((-2,), (-1,), (0,), (1,), (2,))
    assert box_modes(1, 2) is modes
    assert HamParams(d=1, mode_radius=2).box_modes() is modes
