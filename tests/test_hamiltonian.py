import gc
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlskam import (
    CapacityError,
    HamParams,
    Hamiltonian,
    KamConfig,
    ValidationError,
    class_split,
    evaluate,
    linear_combine,
    multiply,
    norm,
    partial,
    poisson_bracket,
    prune,
    run,
    vector_field,
    vf_sup_norm,
)
from nlskam import driver
from nlskam.cli import dispatch
from nlskam.hamiltonian import _LAYOUTS
from nlskam.lattice import _mode_sort_key, mi
from nlskam.nls import NlsConfig, build_cubic_nls
from nlskam.verification import (
    random_hamiltonian,
    random_state,
    verify_scalar_lemma,
)

from mi_helpers import mi_add, monomial, term_degree, to_dict, tuple_terms
from test_bracket import _reference_bracket


def J_mono(params, m, coeff=1.0):
    return monomial(params, j=(m,), coeff=coeff)


def test_params_validation():
    with pytest.raises(ValidationError):
        HamParams(d=1, sigma=2.5, r=0.5, floor_const=1024.0,
                  degree_cap=8, mode_radius=2)
    with pytest.raises(ValidationError, match="mode_radius"):
        HamParams(d=1, sigma=2.5, r=1.0, mode_radius=-1)
    with pytest.raises(ValidationError,
                       match="degree_cap must be >= 0, got -1"):
        HamParams(d=1, sigma=2.5, r=1.0, degree_cap=-1)
    for field, bad in (("d", 1.5), ("d", True), ("degree_cap", 12.0),
                       ("mode_radius", 2.0), ("mode_radius", False)):
        with pytest.raises(ValidationError,
                           match=f"^{field} is not an integer: {bad}$"):
            HamParams(**{"d": 1, field: bad})
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="r must be finite"):
            HamParams(d=1, sigma=2.5, r=bad)
        with pytest.raises(ValidationError, match="sigma must be finite"):
            HamParams(d=1, sigma=bad, r=1.0)
        with pytest.raises(ValidationError,
                           match="floor_const must be finite"):
            HamParams(d=1, sigma=2.5, r=1.0, floor_const=bad)


@pytest.mark.parametrize("kw,x", [
    ({"sigma": 1e6}, "1024"),
    ({"sigma": 400.0}, "1024"),
    ({"sigma": 300.0, "d": 10 ** 400, "mode_radius": 3}, "3e+200"),
    ({"sigma": 1e6, "mode_radius": 10 ** 400}, "e^921.034"),
])
def test_params_refuse_a_sigma_whose_weight_overflows(kw, x):
    # ln^sigma max(floor_const, sqrt(d) R) must be a finite double
    with pytest.raises(ValidationError) as e:
        HamParams(**{"d": 1, **kw})
    assert str(e.value) == (f"sigma {kw['sigma']} overflows the weight "
                            f"ln^sigma({x}) of the box's largest mode")


@pytest.mark.parametrize("name", ["log_sum", "geometric_product"])
def test_scalar_oracles_refuse_a_sigma_whose_weight_overflows(name):
    # they read sigma from HamParams: refused, not an OverflowError
    with pytest.raises(ValidationError, match="overflows the weight"):
        verify_scalar_lemma(name, {"sigma": 1e6})


def test_params_accept_every_sigma_whose_weights_are_finite():
    # around the largest accepted sigma of each lattice, every accepted
    # params value computes its box's largest weight without overflow
    log_max = math.log(sys.float_info.max)
    for floor, d, radius in ((1024.0, 1, 2), (21.0, 2, 1000), (3e300, 1, 0)):
        norm = max(floor, math.sqrt(d) * radius)
        edge = log_max / math.log(math.log(norm))
        accepted = 0
        for i in range(-200, 201):
            try:
                p = HamParams(d=d, sigma=edge * (1 + i * 1e-14),
                              floor_const=floor, mode_radius=radius)
            except ValidationError:
                continue
            accepted += 1
            assert math.isfinite(p.weight((radius,) * d))
        assert 0 < accepted < 401


def test_action0_value(params):
    # I_n(0) = e^{-2 r w(n)}
    w = params.weight((1,))
    assert params.action0((1,)) == pytest.approx(math.exp(-2.0 * w))


def test_box_modes(params, params2d):
    assert params.box_modes() == tuple((m,) for m in range(-2, 3))
    assert len(params2d.box_modes()) == 9


def test_add_scale_roundtrip(params, rng):
    H = random_hamiltonian(params, rng)
    Z = linear_combine(1.0, H, -1.0, H)
    assert len(Z) == 0
    ((key, c), *_) = tuple_terms(H).items()
    assert tuple_terms(H.scale(2.0))[key] == 2.0 * c


def test_multiply_merges_exponents(params):
    q1 = monomial(params, k=[((1,), 1)], coeff=2.0)
    q1b = monomial(params, k_bar=[((1,), 1)], coeff=3.0)
    prod = multiply(q1, q1b)
    ((key, c),) = tuple_terms(prod).items()
    assert key == ((), (((1,), 1),), (((1,), 1),), ())
    assert c == 6.0


def test_multiply_capacity(params):
    small = HamParams(d=1, sigma=2.5, r=1.0, floor_const=1024.0,
                      degree_cap=3, mode_radius=2)
    q = monomial(small, k=[((1,), 2)])
    with pytest.raises(CapacityError, match="product degree exceeds cap 3"):
        multiply(q, q)
    assert tuple_terms(multiply(q, monomial(small, k=[((1,), 1)]))) == {
        ((), (((1,), 3),), (), ()): 1.0}


def test_expand_collect_exact_roundtrip(params, rng):
    for _ in range(20):
        H = random_hamiltonian(params, rng, n_terms=5).collected()
        diff = linear_combine(1.0, H.expanded(), -1.0,
                              H.collected().expanded())
        assert norm(diff, "star_rho", 0.0) == 0.0


def test_collect_pairs_become_actions(params):
    # |q_1|^2 = I_1(0) + J_1 exactly
    H = monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)])
    C = H.collected()
    keys = set(tuple_terms(C))
    assert ((((1,), 1),), (), (), ()) in keys          # I branch
    assert ((), (), (), ((1,),)) in keys               # J branch
    back = C.expanded()
    assert set(tuple_terms(back)) == set(tuple_terms(H))
    assert tuple_terms(back) == pytest.approx(tuple_terms(H))


def test_collected_is_cached_and_its_own_collected_form(params, rng):
    H = random_hamiltonian(params, rng, n_terms=5)
    C = H.collected()
    assert H.collected() is C
    assert C.collected() is C
    # a fresh copy of the same terms is collected anew
    assert Hamiltonian(params, tuple_terms(C)).collected() is not C


def test_class_invariant_after_collect(params, rng):
    for _ in range(20):
        H = random_hamiltonian(params, rng, n_terms=5)
        R0, R1, R2 = class_split(H.collected())
        for part, max_j in ((R0, 0), (R1, 1)):
            for (a, k, kb, j) in tuple_terms(part):
                assert len(j) <= max_j
                ksup = {m for m, _ in k}
                kbsup = {m for m, _ in kb}
                assert not (ksup & kbsup)
        for (a, k, kb, j) in tuple_terms(R2):
            assert len(j) == 2
        merged = linear_combine(1.0, linear_combine(1.0, R0, 1.0, R1),
                                1.0, R2)
        diff = linear_combine(1.0, merged.expanded(), -1.0, H.expanded())
        assert norm(diff, "star_rho", 0.0) <= 1e-25


def test_reality_check(params):
    H = Hamiltonian.from_terms(params, [
        ((), [((1,), 1)], [((0,), 1)], (), 1 + 2j),
        ((), [((0,), 1)], [((1,), 1)], (), 1 - 2j),
    ])
    assert H.check_reality() == 0.0
    bad = Hamiltonian.from_terms(params, [
        ((), [((1,), 1)], [((0,), 1)], (), 1 + 2j),
    ])
    assert bad.check_reality() > 1.0


def test_norm_values_single_term(params):
    w1, w0 = params.weight((1,)), params.weight((0,))
    H = monomial(params, k=[((1,), 1)], k_bar=[((0,), 1)], coeff=3.0)
    rho = 0.2
    S, L1 = w1 + w0, max(w1, w0)
    assert norm(H, "sup_rho", rho) == pytest.approx(
        3.0 * math.exp(-rho * (S - 2 * L1)))
    assert norm(H, "star_rho", rho) == pytest.approx(
        3.0 * math.exp(-rho * S))


def test_star_norm_needs_rho_below_r(params):
    H = J_mono(params, (1,))
    with pytest.raises(ValidationError):
        norm(H, "star_rho", 1.0)
    with pytest.raises(ValidationError):
        norm(H, "plus_rho", 1.5)
    with pytest.raises(ValidationError):
        norm(H, "sup_rho", -0.1)
    with pytest.raises(ValidationError):
        norm(H, "sup_rho", math.nan)


@pytest.mark.parametrize("kind", ["sup_rho", "star_rho", "plus_rho"])
def test_a_nan_term_makes_the_norm_nan(params, kind):
    H = linear_combine(
        3.0, monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)]),
        1.0, monomial(params, k=[((1,), 2)], k_bar=[((1,), 1)]))
    nan = monomial(params, k=[((0,), 1)], k_bar=[((0,), 1)]).scale(
        math.nan)
    for G in (H.scale(math.nan), linear_combine(1.0, nan, 1.0, H),
              linear_combine(1.0, H, 1.0, nan)):
        assert math.isnan(norm(G, kind, 0.0))
    # the sup norms take the largest term, the star norm the sum
    assert norm(H, kind, 0.0) == (4.0 if kind == "star_rho" else 3.0)


@pytest.mark.parametrize("kind", ["sup_rho", "star_rho", "plus_rho"])
def test_norm_refuses_an_infinite_rho(params, kind):
    # at rho = inf the sup norm of 3 |q_1|^2 would read e^{-inf * 0}
    H = monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)], coeff=3.0)
    with pytest.raises(ValidationError,
                       match=r"^rho must be finite, got inf$"):
        norm(H, kind, math.inf)


def test_plus_norm_j_correction(params):
    # J-class term: the J mode adds 2w to S and competes for L1
    m = (1,)
    w = params.weight(m)
    H = monomial(params, j=(m,), coeff=5.0)
    rho = 0.3
    # S = 2w, L1 = w -> exponent 0
    assert norm(H, "plus_rho", rho) == pytest.approx(5.0)


def test_prune_tracks_budget(params):
    big = monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)], coeff=1.0)
    tiny = monomial(params, k=[((0,), 1)], k_bar=[((0,), 1)], coeff=1e-20)
    H = linear_combine(1.0, big, 1.0, tiny)
    ledger = [0.5]
    P = prune(H, 1e-10, ledger)
    assert len(P) == 1
    assert ledger == [0.5, pytest.approx(1e-20)]
    assert len(prune(H, 1e-10)) == 1
    assert tuple_terms(prune(big, 1e-10, ledger)) == tuple_terms(big)
    assert ledger[2] == 0.0
    assert prune(H, 0.0, ledger) is H
    assert prune(H, -1.0, ledger) is H
    assert len(ledger) == 3


def test_prune_of_a_collected_form_stays_collected(params):
    H = linear_combine(
        1.0, monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)]),
        1.0, monomial(params, k=[((0,), 1)], k_bar=[((0,), 1)], coeff=1e-20))
    C = H.collected()
    P = prune(C, 1e-10)
    assert 0 < len(P) < len(C)
    assert P.collected() is P
    # only a collected form passes the mark on
    Q = prune(H, 1e-10)
    assert Q.collected() is not Q


def test_evaluate_and_vector_field(params):
    # H = 2 q_1 qbar_0: dq_0/dt = i 2 q_1, dq_1/dt = -conj(...)-free check
    H = monomial(params, k=[((1,), 1)], k_bar=[((0,), 1)], coeff=2.0)
    x = {(0,): 0.5 + 0.25j, (1,): -0.125j}
    assert evaluate(H, x) == pytest.approx(2.0 * x[(1,)]
                                           * x[(0,)].conjugate())
    field = vector_field(H, x)
    assert field[(0,)] == pytest.approx(1j * 2.0 * x[(1,)])


def test_partial_derivative(params):
    H = monomial(params, k=[((1,), 2)], coeff=3.0)
    D = partial(H, (1,), conjugate=False)
    ((key, c),) = tuple_terms(D).items()
    assert c == 6.0
    assert key[1] == (((1,), 1),)
    assert len(partial(H, (1,), conjugate=True)) == 0


def test_serialization_roundtrip(params, rng):
    H = random_hamiltonian(params, rng, n_terms=5).collected()
    H2 = Hamiltonian.loads(H.dumps())
    assert tuple_terms(H2) == tuple_terms(H)
    assert H2.params == H.params
    assert H.dumps() == H2.dumps()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_coefficient_rejected(params, bad):
    with pytest.raises(ValidationError, match="non-finite coefficient"):
        monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)], coeff=bad)


def test_loads_rejects_foreign_document(params):
    with pytest.raises(ValidationError):
        Hamiltonian.loads('{"format": "something-else"}')


@pytest.mark.parametrize("version", [2, 0, True, 1.0, "1", None])
def test_loads_refuses_a_version_other_than_1(params, version):
    doc = to_dict(monomial(params, k=[((0,), 1)]))
    doc["version"] = version
    with pytest.raises(ValidationError, match=(
            "^Hamiltonian document has unsupported version "
            f"{re.escape(repr(version))}$")):
        Hamiltonian.loads(json.dumps(doc))
    del doc["version"]      # a document without one is read as version 1
    assert tuple_terms(Hamiltonian.loads(json.dumps(doc))) == {
        ((), (((0,), 1),), (), ()): 1.0}


def test_term_degree():
    key = ((((1,), 2),), (((0,), 1),), (), ((2,),))
    assert term_degree(key) == 2 * 2 + 1 + 2


# -- frozen tuple-keyed kernels ----------------------------------------------
#
# The plain tuple-keyed J-expansion, J-collection, class split and product,
# kept frozen as the reference: the packed-key kernels must match them bit
# for bit, in the same insertion order.

def _ref_expand_term(key, coeff):
    a, k, kb, j = key
    out = [(a, k, kb, coeff)]
    for m in j:
        nxt = []
        for aa, kk, kkb, c in out:
            nxt.append((aa, mi_add(kk, ((m, 1),)), mi_add(kkb, ((m, 1),)), c))
            nxt.append((mi_add(aa, ((m, 1),)), kk, kkb, -c))
        out = nxt
    return [((aa, kk, kkb, ()), c) for aa, kk, kkb, c in out]


def _ref_expanded(H):
    if all(not key[3] for key in tuple_terms(H)):
        return H
    acc = {}
    for key, c in tuple_terms(H).items():
        for ekey, ec in _ref_expand_term(key, c):
            acc[ekey] = acc.get(ekey, 0j) + ec
    return Hamiltonian(H.params, acc)


def _ref_collect_term(a, k, kb, coeff):
    overlap = sorted(
        (m for m, _ in k
         if dict(kb).get(m, 0) >= 1 and dict(k).get(m, 0) >= 1),
        key=_mode_sort_key)
    kd = dict(k)
    kbd = dict(kb)
    results = []

    def emit(a_acc, j_acc, removed, c):
        nk = mi(tuple((m, e - removed.get(m, 0)) for m, e in kd.items()))
        nkb = mi(tuple((m, e - removed.get(m, 0)) for m, e in kbd.items()))
        key = (mi_add(a, mi(a_acc)), nk, nkb, tuple(sorted(j_acc)))
        results.append((key, c))

    def rec(idx, cap_left, a_acc, j_acc, removed, c):
        if idx == len(overlap):
            emit(a_acc, j_acc, removed, c)
            return
        m = overlap[idx]
        b = min(kd[m], kbd[m])
        if cap_left == 0:
            rec(idx + 1, 0, a_acc, j_acc, removed, c)
            return
        rec(idx + 1, cap_left, a_acc + [(m, b)], j_acc,
            {**removed, m: b}, c)
        if cap_left >= 2:
            rec(idx + 1, cap_left - 1, a_acc + [(m, b - 1)], j_acc + [m],
                {**removed, m: b}, b * c)
            for s in range(b - 1):
                rec(idx + 1, cap_left - 2, a_acc + [(m, s)],
                    j_acc + [m, m], {**removed, m: s + 2}, (s + 1) * c)
        else:
            for jp in range(b):
                rec(idx + 1, cap_left - 1, a_acc + [(m, jp)], j_acc + [m],
                    {**removed, m: jp + 1}, c)

    rec(0, 2, [], [], {}, coeff)
    return results


def _ref_collected(H):
    acc = {}
    for (a, k, kb, _), c in tuple_terms(_ref_expanded(H)).items():
        for ckey, cc in _ref_collect_term(a, k, kb, c):
            acc[ckey] = acc.get(ckey, 0j) + cc
    return Hamiltonian(H.params, acc)


def _ref_class_split(H):
    parts = [{}, {}, {}]
    for key, c in tuple_terms(_ref_collected(H)).items():
        parts[len(key[3])][key] = c
    return tuple(
        Hamiltonian(H.params, part) for part in parts)


def _ref_multiply(H1, H2):
    acc = {}
    inner = tuple_terms(H2).items()
    for (a1, k1, kb1, j1), c1 in tuple_terms(H1).items():
        for (a2, k2, kb2, j2), c2 in inner:
            key = (mi_add(a1, a2), mi_add(k1, k2), mi_add(kb1, kb2),
                   tuple(sorted(j1 + j2)))
            c = c1 * c2
            if len(key[3]) > 2:
                for ekey, ec in _ref_expand_term(key, c):
                    acc[ekey] = acc.get(ekey, 0j) + ec
            else:
                acc[key] = acc.get(key, 0j) + c
    return Hamiltonian(H1.params, acc)


def _bits(H):
    """Terms in insertion order, coefficients as exact hex strings."""
    return [(key, c.real.hex(), c.imag.hex())
            for key, c in tuple_terms(H).items()]


def _with_j_factors(params, rng, n_terms, max_exp):
    """Terms with up to two J-factors and overlapping (k, k_bar) powers."""
    modes = params.box_modes()
    items = []
    for _ in range(n_terms):
        parts = []
        for _ in range(3):
            picks = rng.integers(0, len(modes), int(rng.integers(0, 4)))
            parts.append([(modes[i], int(rng.integers(1, max_exp + 1)))
                          for i in picks])
        j = [modes[i] for i in rng.integers(0, len(modes),
                                            int(rng.integers(0, 3)))]
        items.append((*parts, j, complex(rng.uniform(-1, 1),
                                         rng.uniform(-1, 1))))
    return Hamiltonian.from_terms(params, items)


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       max_exp=st.sampled_from([1, 3, 6]))
@settings(max_examples=60, deadline=None)
def test_packed_kernels_match_tuple_reference(seed, d, max_exp):
    rng = np.random.default_rng(seed)
    p = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=200,
                  mode_radius=2 if d == 1 else 1)
    H = _with_j_factors(p, rng, 8, max_exp)
    G = _with_j_factors(p, rng, 4, max_exp)
    R = random_hamiltonian(p, rng, n_terms=6, max_factors=6, max_actions=2)
    assert _bits(H.expanded()) == _bits(_ref_expanded(H))
    for X in (H, R, linear_combine(1.0, H, 1.0, R)):
        assert _bits(X.collected()) == _bits(_ref_collected(X))
        # class_split partitions the collected form, given it or not
        want = [_bits(w) for w in _ref_class_split(X)]
        for Y in (X, X.collected()):
            assert [_bits(g) for g in class_split(Y)] == want
    # J-lists of up to four factors: products past two expand on the spot
    for X, Y in ((H, G), (G, H), (R, H)):
        assert _bits(multiply(X, Y)) == _bits(_ref_multiply(X, Y))


def _with_signed_zeros(H, rng):
    """H with each coefficient left alone or with its real or imaginary
    part set to -0.0 or +0.0, as a solved F's c / (i D) can hold."""
    def zeroed(c):
        pick = int(rng.integers(0, 5))
        return (c, complex(-0.0, c.imag), complex(c.real, -0.0),
                complex(0.0, c.imag), complex(c.real, 0.0))[pick]

    return Hamiltonian(H.params,
                       {key: zeroed(c) for key, c in tuple_terms(H).items()})


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       max_exp=st.sampled_from([1, 3, 60]))
@settings(max_examples=40, deadline=None)
def test_plans_match_tuple_reference_at_large_exponents_and_signed_zeros(
        seed, d, max_exp):
    # the per-block expand and collect plans, and the product's expansion
    # of past-two J-lists, against the tuple kernels: exponents up to 60,
    # two J-factors, and coefficients with a signed zero part
    rng = np.random.default_rng(seed)
    p = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=2000,
                  mode_radius=2 if d == 1 else 1)
    H = _with_signed_zeros(_with_j_factors(p, rng, 6, max_exp), rng)
    G = _with_signed_zeros(_with_j_factors(p, rng, 3, max_exp), rng)
    for X in (H, G):
        assert _bits(X.expanded()) == _bits(_ref_expanded(X))
        assert _bits(X.collected()) == _bits(_ref_collected(X))
    for X, Y in ((H, G), (G, H)):
        assert _bits(multiply(X, Y)) == _bits(_ref_multiply(X, Y))


def test_packed_collect_at_a_field_boundary(params):
    # fields hold 0..2 * degree_cap = 32, so they are 6 bits wide; every
    # term has degree exactly the cap 16, and q^16 and the product's
    # exponents 16 are the largest these kernels form
    p = HamParams(d=1, sigma=2.5, r=1.0, degree_cap=16, mode_radius=2)
    H = Hamiltonian.from_terms(p, [
        ([], [((1,), 16)], [], (), 1.0),
        ([], [((1,), 10), ((2,), 2)], [((1,), 4)], (), 2.0 - 1.0j),
        ([((0,), 2)], [((1,), 6)], [((1,), 6)], (), 0.5j),
        ([], [((1,), 6)], [((1,), 6)], [(1,), (2,)], 3.0),
    ])
    assert {term_degree(key) for key in tuple_terms(H)} == {16}
    assert _bits(H.expanded()) == _bits(_ref_expanded(H))
    assert _bits(H.collected()) == _bits(_ref_collected(H))
    assert [_bits(g) for g in class_split(H)] == [
        _bits(w) for w in _ref_class_split(H)]
    # products of degree 16; J1^4 of Q2 * Q2 expands on the spot
    Q = monomial(p, k=[((1,), 8)])
    Q2 = monomial(p, k=[((1,), 4)], j=[(1,), (1,)])
    for X, Y in ((Q, Q2), (Q2, Q), (Q2, Q2)):
        assert _bits(multiply(X, Y)) == _bits(_ref_multiply(X, Y))


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]))
@settings(max_examples=20, deadline=None)
def test_packed_kernels_of_low_degrees_under_a_large_cap(seed, d):
    # fields 11 bits wide (2 * 1000 < 2048) for terms of degree <= 4
    rng = np.random.default_rng(seed)
    p = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=1000,
                  mode_radius=2 if d == 1 else 1)
    H = _with_j_factors(p, rng, 8, 1)
    H = Hamiltonian(p, {key: c for key, c in tuple_terms(H).items()
                        if term_degree(key) <= 4})
    R = random_hamiltonian(p, rng, n_terms=6, max_factors=4, max_actions=0)
    assert H.degree() <= 4 and R.degree() <= 4
    assert _bits(H.expanded()) == _bits(_ref_expanded(H))
    for X in (H, R):
        assert _bits(X.collected()) == _bits(_ref_collected(X))
        assert [_bits(g) for g in class_split(X)] == [
            _bits(w) for w in _ref_class_split(X)]
    for X, Y in ((H, R), (R, H), (H, H)):
        assert _bits(multiply(X, Y)) == _bits(_ref_multiply(X, Y))


@pytest.mark.parametrize("cap,w", [(0, 1), (1, 2), (16, 6), (63, 7),
                                   (64, 8), (1000, 11)])
def test_packer_width_comes_from_the_degree_cap(cap, w):
    p = HamParams(d=1, sigma=2.5, r=1.0, degree_cap=cap, mode_radius=2)
    assert _LAYOUTS[p].w == w
    assert monomial(p, k=[((1,), cap)])._layout.w == w


# -- the packed-key store -----------------------------------------------------

def _ref_linear_combine(c1, H1, c2, H2):
    """The tuple-keyed termwise c1*H1 + c2*H2, kept frozen as the
    reference."""
    acc = {k: c1 * v for k, v in tuple_terms(H1).items()}
    for k, v in tuple_terms(H2).items():
        acc[k] = acc.get(k, 0j) + c2 * v
    return Hamiltonian(H1.params, acc)


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       max_exp=st.sampled_from([1, 3, 6]))
@settings(max_examples=40, deadline=None)
def test_a_hamiltonian_rebuilt_from_its_terms_has_the_same_items(
        seed, d, max_exp):
    rng = np.random.default_rng(seed)
    p = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=200,
                  mode_radius=2 if d == 1 else 1)
    H = _with_j_factors(p, rng, 8, max_exp)
    for X in (H, H.expanded(), H.collected(), multiply(H, H)):
        assert _bits(Hamiltonian(p, tuple_terms(X))) == _bits(X)


def _registering(p, modes):
    """A Hamiltonian that registers ``modes``, in this order, in the
    layout of p."""
    H = Hamiltonian(p, {((), ((m, 1),), (), ()): 1.0 for m in modes})
    assert H._layout.modes == list(modes)
    return H


def test_results_do_not_depend_on_the_mode_registration_order():
    # sigma apart, so two layouts live side by side (params no other test
    # uses: a layout lasts for the process); these ops read
    # no weight, so both must give the tuple kernels' keys, order and bits
    p1 = HamParams(d=2, sigma=2.625, r=1.0, degree_cap=200, mode_radius=1)
    p2 = replace(p1, sigma=2.875)
    modes = p1.box_modes()
    keep = [_registering(p1, modes), _registering(p2, modes[::-1])]
    assert keep[0]._layout is not keep[1]._layout
    for seed in range(4):
        got = []
        for p in (p1, p2):
            rng = np.random.default_rng(seed)
            H = _with_j_factors(p, rng, 8, 3)
            G = _with_j_factors(p, rng, 4, 2)
            R = random_hamiltonian(p, rng, n_terms=6, max_factors=4,
                                   max_actions=1)
            assert H._layout is keep[p is p2]._layout
            want = [_bits(_ref_linear_combine(0.5, H, -2.0, R)),
                    _bits(_reference_bracket(R, H)),
                    _bits(_reference_bracket(H, G)),
                    _bits(_ref_multiply(H, G)),
                    _bits(_ref_collected(H))]
            got.append([_bits(linear_combine(0.5, H, -2.0, R)),
                        _bits(poisson_bracket(R, H)),
                        _bits(poisson_bracket(H, G)),
                        _bits(multiply(H, G)),
                        _bits(H.collected())])
            assert got[-1] == want
        assert got[0] == got[1]


def test_the_bracket_visits_common_modes_in_mode_order():
    # one pair whose common support is all seven modes, each contributing
    # its own output key, so the result's insertion order is the order the
    # kernel visits them in; a set of these modes iterates in another order
    p1 = HamParams(d=1, sigma=2.75, r=1.0, degree_cap=16, mode_radius=3)
    p2 = replace(p1, sigma=2.8125)
    modes = p1.box_modes()
    keep = [_registering(p1, modes), _registering(p2, modes[::-1])]
    assert keep[0]._layout is not keep[1]._layout
    c1, c2 = 0.3 + 0.7j, -1.1 + 0.2j
    c = c1 * c2 * 1j * 1
    want = []
    for m in modes:
        rest = tuple((n, 1) for n in modes if n != m)
        want.append((((), rest, rest, ()), c.real.hex(), c.imag.hex()))
    every = tuple((m, 1) for m in modes)
    for p in (p1, p2):
        A = Hamiltonian(p, {((), every, (), ()): c1})
        B = Hamiltonian(p, {((), (), every, ()): c2})
        assert _bits(poisson_bracket(A, B)) == want


def test_a_sparse_document_gets_fields_only_for_its_modes(tmp_path):
    far, near = [10 ** 6, -3], [-999_999, 10 ** 6]
    doc = {"format": "nlskam-hamiltonian", "version": 1, "d": 2,
           "sigma": 2.5, "r": 1.0, "floor_const": 1024.0,
           "degree_cap": 16, "mode_radius": 10 ** 6, "terms": [
               {"a": [], "k": [[far, 1]], "k_bar": [[near, 1]], "j": [],
                "re": 1.0, "im": 2.0},
               {"a": [[[0, 0], 1]], "k": [[[5, 5], 2]],
                "k_bar": [[[5, 5], 2]], "j": [far], "re": -0.5, "im": 0.0}]}
    H = Hamiltonian.loads(json.dumps(doc))
    present = {m for a, k, kb, j in tuple_terms(H)
               for m in [n for n, _ in a + k + kb] + list(j)}
    assert len(present) == 4
    lay = H._layout
    assert sorted(lay.modes) == sorted(present)
    assert all(x.bit_length() <= 4 * lay.w * len(present)
               for x in H._store)
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["norms", str(path)]) == 0


def test_a_layout_outlives_its_hamiltonians():
    # d=2 R=5 is a box of 121 modes; a sigma no other test uses, so the
    # layout is made here
    p = HamParams(d=2, sigma=2.109375, mode_radius=5)
    key = ((), (((-5, 5), 1), ((4, 1), 1)), (((-1, 3), 2),), ())
    H = Hamiltonian(p, {key: 1.0})
    lay = H._layout
    lay_id, modes, stored = id(lay), list(lay.modes), list(H._store)
    assert len(modes) == 3
    del H, lay
    gc.collect()
    assert id(_LAYOUTS[p]) == lay_id and _LAYOUTS[p].modes == modes
    assert list(Hamiltonian(p, {key: 2.0})._store) == stored


# -- validation paths ---------------------------------------------------------

@pytest.mark.parametrize("a,k,kb,j,error,match", [
    ([], [((0,), 1)], [((0,), 1)], [(0,), (1,), (2,)], ValidationError,
     "at most two J-factors per term"),
    ([((0, 0), 1)], [], [], [], ValidationError,
     r"mode \(0, 0\) has wrong dimension"),
    ([], [((3,), 1)], [], [], ValidationError,
     r"mode \(3,\) outside radius 2"),
    ([], [], [], [(-3,)], ValidationError,
     r"J-mode \(-3,\) outside radius 2"),
    ([], [((1,), 15)], [((1,), 1)], [(0,)], CapacityError,
     "term degree 18 exceeds cap 16"),
])
def test_constructor_rejects_bad_terms(params, a, k, kb, j, error, match):
    # with every in-radius mode registered, which skips only the known
    # modes' own checks
    keep = Hamiltonian(params, {((((m,), 1),), (), (), ()): 1.0
                                for m in range(-2, 3)})
    assert tuple(sorted(keep._layout.modes)) == params.box_modes()
    with pytest.raises(error, match=match):
        Hamiltonian.from_terms(params, [(a, k, kb, j, 1.0)])
    doc = to_dict(monomial(params, k=[((0,), 1)]))
    doc["terms"][0].update(
        a=[[list(m), e] for m, e in a], k=[[list(m), e] for m, e in k],
        k_bar=[[list(m), e] for m, e in kb], j=[list(m) for m in j])
    with pytest.raises(error, match=match):
        Hamiltonian.loads(json.dumps(doc))
    assert tuple(sorted(keep._layout.modes)) == params.box_modes()


@pytest.mark.parametrize("key,match", [
    # a negative exponent borrowed from the next fields: this key was
    # stored as exponent 63 with 63 J-factors
    (((((0,), -1),), (((1,), 1),), (((1,), 1),), ()),
     r"^exponent -1 at mode \(0,\) is not a positive int$"),
    # a zero exponent aliased the empty multi-index
    (((((0,), 0),), (), (), ()),
     r"^exponent 0 at mode \(0,\) is not a positive int$"),
    # a float exponent escaped as a TypeError from the packing
    (((), (((1,), 1.0),), (), ()),
     r"^exponent 1.0 at mode \(1,\) is not a positive int$"),
    (((), (), (((1,), True),), ()),
     r"^exponent True at mode \(1,\) is not a positive int$"),
    # a float coordinate was accepted and registered as a mode
    (((), (((1.5,), 1),), (), ()),
     r"^mode \(1.5,\) has a non-int coordinate$"),
    (((), (), (), ((-0.5,),)), r"^mode \(-0.5,\) has a non-int coordinate$"),
])
def test_constructor_rejects_non_canonical_exponents_and_coordinates(
        params, key, match):
    keep = monomial(params, k=[((1,), 1)], k_bar=[((0,), 1)])
    modes = list(keep._layout.modes)
    with pytest.raises(ValidationError, match=match):
        Hamiltonian(params, {key: 1.0})
    assert keep._layout.modes == modes      # nothing registered


@pytest.mark.parametrize("keys,match", [
    # each pair packs to one int: the constructor kept only the last term
    ([((), (((0,), 1), ((1,), 1)), (), ()),
      ((), (((1,), 1), ((0,), 1)), (), ())],
     r"^multi-index \(\(\(1,\), 1\), \(\(0,\), 1\)\) is not canonical: "
     r"modes are not sorted$"),
    ([((), (), (((1,), 2),), ()), ((), (), (((1,), 1), ((1,), 1)), ())],
     r"^multi-index \(\(\(1,\), 1\), \(\(1,\), 1\)\) is not canonical: "
     r"mode \(1,\) repeats$"),
    ([((), (), (), ((-1,), (2,))), ((), (), (), ((2,), (-1,)))],
     r"^J-list \(\(2,\), \(-1,\)\) is not sorted$"),
])
def test_constructor_refuses_a_non_canonical_key(params, keys, match):
    canonical, other = keys
    H = Hamiltonian(params, {canonical: 1.0})
    with pytest.raises(ValidationError, match=match):
        Hamiltonian(params, {canonical: 1.0, other: 2.0})
    with pytest.raises(ValidationError, match=match):
        Hamiltonian(params, {other: 2.0})
    # from_terms canonicalizes both spellings, and sums them
    (key,) = tuple_terms(H)
    items = [(*(tuple(part) for part in k), c)
             for k, c in ((canonical, 1.0), (other, 2.0))]
    assert tuple_terms(Hamiltonian.from_terms(params, items)) == {key: 3.0}


@pytest.mark.parametrize("case,bad,match", [
    (0, ((), (((1.0,), 1),), (), ()),
     r"^mode \(1.0,\) has a non-int coordinate$"),
    (1, ((), (), (((True,), 1),), ()),
     r"^mode \(True,\) has a non-int coordinate$"),
    (2, ((), (), (), ((1.0,),)), r"^mode \(1.0,\) has a non-int coordinate$"),
])
@pytest.mark.parametrize("registered_first", [False, True])
def test_a_key_is_refused_whatever_was_built_before(case, bad, match,
                                                     registered_first):
    # a sigma no other test uses, per case: a fresh layout, which then
    # lives for the process
    p = HamParams(d=1, sigma=2.0390625 + (2 * case + registered_first) / 64)
    assert not _LAYOUTS[p].modes
    good = ((), (((1,), 1),), (), ((1,),))
    if registered_first:
        keep = Hamiltonian(p, {good: 1.0})
        assert keep._layout.modes == [(1,)]
    with pytest.raises(ValidationError, match=match):
        Hamiltonian(p, {bad: 1.0})
    keep = Hamiltonian(p, {good: 1.0})
    with pytest.raises(ValidationError, match=match):
        Hamiltonian(p, {bad: 1.0})
    assert keep._layout.modes == [(1,)]


def test_equal_params_share_one_weight_memo(monkeypatch):
    # sigma no other test uses, so the layout is made under the count
    calls = []
    weight = HamParams.weight

    def counting(self, mode):
        calls.append(mode)
        return weight(self, mode)

    monkeypatch.setattr(HamParams, "weight", counting)
    p1 = HamParams(d=1, sigma=2.0625, r=2.0, degree_cap=16, mode_radius=2)
    p2 = replace(p1)
    assert p2 == p1 and p2 is not p1
    H1, H2 = (Hamiltonian(p, {
        ((((1,), 1),), (((2,), 2),), (((0,), 1), ((2,), 1)), ((-1,),)): 0.5,
        ((), (((-2,), 1),), (((-2,), 1),), ()): 2.0}) for p in (p1, p2))
    kinds = ("sup_rho", "star_rho", "plus_rho")
    first = [norm(H1, kind, 0.25) for kind in kinds]
    assert calls                # the count sees the memo's misses
    calls.clear()
    assert [norm(H2, kind, 0.25) for kind in kinds] == first
    assert _LAYOUTS[p2].weights is _LAYOUTS[p1].weights
    assert calls == []


def test_mismatched_parameters_and_unknown_norm_kind(params, params2d):
    H = monomial(params, k=[((0,), 1)])
    G = monomial(params2d, k=[((0, 0), 1)])
    with pytest.raises(ValidationError,
                       match="Hamiltonian parameter mismatch"):
        linear_combine(1.0, H, 1.0, G)
    with pytest.raises(ValidationError, match="unknown norm kind 'l2'"):
        norm(H, "l2", 0.0)


# -- direct JSON text and the one-pass vector field ---------------------------

def test_dumps_writes_the_bytes_of_json_indent_1(params):
    special = Hamiltonian(params, {
        ((((0,), 1),), (((1,), 2),), (((2,), 1),), ((1,),)):
            complex(-0.0, 1.0),
        ((), (((1,), 1),), (((1,), 1),), ((-2,), (1,))):
            complex(2.0, 5e-324),
        ((), (((-1,), 1),), (), ()): complex(1e300, -0.0),
        ((), (), (((2,), 3),), ((0,), (0,))): complex(3.0, -5e-324),
        ((), (((0,), 1),), (((0,), 1),), ()): complex(1e16, 0.1),
    })
    _, states, _ = run(KamConfig(seed=7, steps=1))
    step = states[1]
    for H in (Hamiltonian.zero(params),
              build_cubic_nls(NlsConfig(HamParams(d=1), epsilon=1e-6)),
              build_cubic_nls(NlsConfig(HamParams(d=2, mode_radius=1),
                                        epsilon=1e-6)),
              special, linear_combine(1.0, linear_combine(
                  1.0, step.R0, 1.0, step.R1), 1.0, step.R2)):
        assert H.dumps() == json.dumps(to_dict(H), indent=1)
    assert special.dumps().count("-0.0") == 2
    # the constructor refuses non-finite coefficients, and a run reaches
    # them only through the ops: (nan, nan), (inf, nan), (inf, -inf) and
    # (-inf, inf) come from scaling 1 and 1 - i by nan, inf and -inf
    unit = Hamiltonian(params, {((), (((1,), 1),), (), ()): 1.0,
                                ((), (), (), ()): complex(1.0, -1.0)})
    for c in (math.nan, math.inf, -math.inf):
        odd = unit.scale(c)
        assert odd.dumps() == json.dumps(to_dict(odd), indent=1)


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_dumps_sorts_blocks_shared_by_a_k_and_k_bar_as_json_does(seed, d):
    # a few multi-indices shared by every position, so one block is often
    # a, k and k_bar at once and the block ranks decide the order
    rng = np.random.default_rng(seed)
    p = HamParams(d=d, degree_cap=40, mode_radius=2 if d == 1 else 1)
    modes = p.box_modes()

    def pick(n):
        return [modes[i] for i in rng.integers(0, len(modes), n)]

    pool = [mi([(m, int(rng.integers(1, 3))) for m in pick(n)])
            for n in (0, 1, 1, 2, 3)]
    jpool = [tuple(sorted(pick(n))) for n in (0, 1, 2, 2)]
    terms = {}
    for _ in range(int(rng.integers(1, 30))):
        a, k, kb = (pool[i] for i in rng.integers(0, len(pool), 3))
        j = jpool[int(rng.integers(0, len(jpool)))]
        terms[a, k, kb, j] = complex(*rng.uniform(-1, 1, 2))
    for b in pool:
        terms[b, b, b, jpool[-1]] = 1.0
    H = Hamiltonian(p, terms)
    assert H.dumps() == json.dumps(to_dict(H), indent=1)


def test_dump_streams_the_document_to_a_file(tmp_path):
    # criterion 6's step-1 state: 6,458 terms, a 2.09 MB document
    cfg = KamConfig(NlsConfig(HamParams(d=1, mode_radius=2), epsilon=1e-6),
                    seed=7, steps=1, prune_tol=0.0)
    step = run(cfg)[1][1]
    H = linear_combine(1.0, linear_combine(1.0, step.R0, 1.0, step.R1),
                       1.0, step.R2)
    text = H.dumps()
    assert (len(H), len(text)) == (6458, 2_086_684)
    path = tmp_path / "h.json"
    tracemalloc.start()
    try:
        with open(path, "w") as fh:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            H.dump(fh)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert path.read_text() == text
    # the sorted keys and the block texts, not the document (0.43 MB
    # measured; the whole text held at once would be 2.09 MB)
    assert peak < len(text) / 3


def _ref_field_modes(H):
    modes = set()
    for (_, k, kb, _) in tuple_terms(H.expanded()):
        modes.update(m for m, _ in k)
        modes.update(m for m, _ in kb)
    return sorted(modes)


def _ref_vf_sup_norm(H, x, rho):
    """vf_sup_norm as two partial/evaluate passes per field mode."""
    best = 0.0
    for n in _ref_field_modes(H):
        mag = max(abs(evaluate(partial(H, n, True), x)),
                  abs(evaluate(partial(H, n, False), x)))
        best = max(best, mag * math.exp(rho * H.params.weight(n)))
    return best


def _ref_vector_field(H, x):
    return {n: 1j * evaluate(partial(H, n, True), x)
            for n in _ref_field_modes(H)}


@pytest.mark.parametrize("cfg", [
    KamConfig(seed=7, steps=1),
    KamConfig(NlsConfig(HamParams(d=2, mode_radius=1), epsilon=1e-6),
              gamma=0.01, seed=7, steps=1),
])
def test_vf_sup_norm_bits_on_kam_steps(monkeypatch, cfg):
    calls = []

    def record(H, x, rho):
        got = vf_sup_norm(H, x, rho)
        calls.append((H, x, rho, got))
        return got

    monkeypatch.setattr(driver, "vf_sup_norm", record)
    run(cfg)
    assert len(calls) == 1 and len(calls[0][0]) > 0
    for H, x, rho, got in calls:
        assert got.hex() == _ref_vf_sup_norm(H, x, rho).hex()


@pytest.mark.parametrize("d", [1, 2])
def test_vf_sup_norm_and_vector_field_bits_on_random_input(d):
    rng = np.random.default_rng(d)
    p = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=64,
                  mode_radius=2 if d == 1 else 1)
    for _ in range(40):
        H = random_hamiltonian(p, rng, n_terms=8, max_factors=6,
                               max_actions=2)
        for X in (H, _with_j_factors(p, rng, 6, 3)):
            x = random_state(p, rng, p.r)
            del x[p.box_modes()[0]]        # a mode x does not carry
            for rho in (0.0, 0.7):
                assert (vf_sup_norm(X, x, rho).hex()
                        == _ref_vf_sup_norm(X, x, rho).hex())
            got, want = vector_field(X, x), _ref_vector_field(X, x)
            assert list(got) == list(want)
            assert [(v.real.hex(), v.imag.hex()) for v in got.values()] == [
                (v.real.hex(), v.imag.hex()) for v in want.values()]


def _term_S_L1(weights, a, k, kb, jmodes=()):
    """(S, L1): weighted multiplicity sum and largest-mode weight.

    ``weights`` maps a mode to its weight, as a layout's ``weights`` does.
    """
    S = 0.0
    L1 = 0.0
    for m, e in a:
        w = weights[m]
        S += 2 * e * w
        L1 = max(L1, w)
    for src in (k, kb):
        for m, e in src:
            w = weights[m]
            S += e * w
            L1 = max(L1, w)
    for m in jmodes:
        w = weights[m]
        S += 2 * w
        L1 = max(L1, w)
    return S, L1


def _ref_norm(H, kind, rho):
    """The norm loops before sup_rho and plus_rho shared one."""
    p = H.params
    if kind == "star_rho":
        total = 0.0
        for (a, k, kb, _), c in tuple_terms(H.expanded()).items():
            wa = sum(e * p.weight(m) for m, e in a)
            wk = sum(e * p.weight(m) for m, e in k)
            wk += sum(e * p.weight(m) for m, e in kb)
            total += abs(c) * math.exp(-2.0 * p.r * wa - rho * wk)
        return total
    best = 0.0
    weights = _LAYOUTS[p].weights
    if kind == "sup_rho":
        for (a, k, kb, _), c in tuple_terms(H.expanded()).items():
            S, L1 = _term_S_L1(weights, a, k, kb)
            best = max(best, abs(c) * math.exp(-rho * (S - 2.0 * L1)))
    else:
        for (a, k, kb, j), c in tuple_terms(H.collected()).items():
            S, L1 = _term_S_L1(weights, a, k, kb, j)
            best = max(best, abs(c) * math.exp(-rho * (S - 2.0 * L1)))
    return best


@pytest.mark.parametrize("d", [1, 2])
def test_norms_keep_the_bits_of_their_old_loops(d):
    rng = np.random.default_rng(40 + d)
    for r in (1.0, 2.5):
        p = HamParams(d=d, sigma=2.5, r=r, degree_cap=64,
                      mode_radius=2 if d == 1 else 1)
        for _ in range(20):
            H = linear_combine(
                1.0, random_hamiltonian(p, rng, n_terms=8, max_factors=6,
                                        max_actions=2),
                1.0, _with_j_factors(p, rng, 6, 3))
            for kind in ("sup_rho", "star_rho", "plus_rho"):
                for rho in (0.0, 0.3, 0.9):
                    assert (norm(H, kind, rho).hex()
                            == _ref_norm(H, kind, rho).hex())


def test_huge_r_gives_no_nan():
    # an action-free term once computed (-2 r) * 0 = (-inf) * 0 = nan
    p = HamParams(d=1, sigma=2.5, r=1e308)
    H = linear_combine(
        1.0, monomial(p, k=[((1,), 1)], k_bar=[((1,), 1)]),
        1.0, monomial(p, a=[((0,), 1)], k=[((1,), 1)], k_bar=[((1,), 1)]))
    assert norm(H, "star_rho", 0.1) == math.exp(-0.1 * 2 * p.weight((1,)))
    ledger = []
    assert tuple_terms(prune(H, 1e-300, ledger)) == {
        ((), (((1,), 1),), (((1,), 1),), ()): 1.0}
    assert ledger == [0.0]


def test_vf_sup_norm_of_a_zero_field_under_a_huge_weight():
    # e^{rho w(n)} overflows past rho w(n) = 709.8; the field here is 0
    p = HamParams(d=1, sigma=2.5, r=1.0)
    H = build_cubic_nls(NlsConfig(p, epsilon=1e-6))
    x = {m: 0j for m in p.box_modes()}
    assert 6.0 * p.weight((0,)) > 709.8
    assert vf_sup_norm(H, x, 6.0) == 0.0
