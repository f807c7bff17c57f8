import json
import math

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
    prune,
    run,
    vector_field,
    vf_sup_norm,
)
from nlskam import driver
from nlskam.hamiltonian import term_degree
from nlskam.lattice import _mode_sort_key, mi, mi_add, mi_get
from nlskam.nls import NlsConfig, build_cubic_nls
from nlskam.verification import random_hamiltonian, random_state


def J_mono(params, m, coeff=1.0):
    return Hamiltonian.monomial(params, j=(m,), coeff=coeff)


def test_params_validation():
    with pytest.raises(ValidationError):
        HamParams(d=1, sigma=2.5, r=0.5, floor_const=1024.0,
                  degree_cap=8, mode_radius=2)
    with pytest.raises(ValidationError, match="mode_radius"):
        HamParams(d=1, sigma=2.5, r=1.0, mode_radius=-1)
    with pytest.raises(ValidationError,
                       match="degree_cap must be >= 0, got -1"):
        HamParams(d=1, sigma=2.5, r=1.0, degree_cap=-1)


def test_action0_value(params):
    # I_n(0) = e^{-2 r w(n)}
    w = params.weight((1,))
    assert params.action0((1,)) == pytest.approx(math.exp(-2.0 * w))


def test_box_modes(params, params2d):
    assert params.box_modes() == [(m,) for m in range(-2, 3)]
    assert len(params2d.box_modes()) == 9


def test_add_scale_roundtrip(params, rng):
    H = random_hamiltonian(params, rng)
    Z = linear_combine(1.0, H, -1.0, H)
    assert Z.is_zero()
    assert (2.0 * H).terms[next(iter(H.terms))] == 2.0 * next(
        iter(H.terms.values()))


def test_multiply_merges_exponents(params):
    q1 = Hamiltonian.monomial(params, k=[((1,), 1)], coeff=2.0)
    q1b = Hamiltonian.monomial(params, k_bar=[((1,), 1)], coeff=3.0)
    prod = multiply(q1, q1b)
    ((key, c),) = prod.terms.items()
    assert key == ((), (((1,), 1),), (((1,), 1),), ())
    assert c == 6.0


def test_multiply_capacity(params):
    small = HamParams(d=1, sigma=2.5, r=1.0, floor_const=1024.0,
                      degree_cap=3, mode_radius=2)
    q = Hamiltonian.monomial(small, k=[((1,), 2)])
    with pytest.raises(CapacityError, match="product degree exceeds cap 3"):
        multiply(q, q)
    assert multiply(q, Hamiltonian.monomial(small, k=[((1,), 1)])).terms == {
        ((), (((1,), 3),), (), ()): 1.0}


def test_expand_collect_exact_roundtrip(params, rng):
    for _ in range(20):
        H = random_hamiltonian(params, rng, n_terms=5).collected()
        diff = linear_combine(1.0, H.expanded(), -1.0,
                              H.collected().expanded())
        assert norm(diff, "star_rho", 0.0) == 0.0


def test_collect_pairs_become_actions(params):
    # |q_1|^2 = I_1(0) + J_1 exactly
    H = Hamiltonian.monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)])
    C = H.collected()
    keys = set(C.terms)
    assert ((((1,), 1),), (), (), ()) in keys          # I branch
    assert ((), (), (), ((1,),)) in keys               # J branch
    back = C.expanded()
    assert set(back.terms) == set(H.terms)
    assert back.terms == pytest.approx(H.terms)


def test_collected_is_cached_and_its_own_collected_form(params, rng):
    H = random_hamiltonian(params, rng, n_terms=5)
    C = H.collected()
    assert H.collected() is C
    assert C.collected() is C
    # a fresh copy of the same terms is collected anew
    assert Hamiltonian(params, C.terms).collected() is not C


def test_class_invariant_after_collect(params, rng):
    for _ in range(20):
        H = random_hamiltonian(params, rng, n_terms=5)
        R0, R1, R2 = class_split(H.collected())
        for part, max_j in ((R0, 0), (R1, 1)):
            for (a, k, kb, j) in part.terms:
                assert len(j) <= max_j
                ksup = {m for m, _ in k}
                kbsup = {m for m, _ in kb}
                assert not (ksup & kbsup)
        for (a, k, kb, j) in R2.terms:
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
    H = Hamiltonian.monomial(params, k=[((1,), 1)], k_bar=[((0,), 1)],
                             coeff=3.0)
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


def test_plus_norm_j_correction(params):
    # J-class term: the J mode adds 2w to S and competes for L1
    m = (1,)
    w = params.weight(m)
    H = Hamiltonian.monomial(params, j=(m,), coeff=5.0)
    rho = 0.3
    # S = 2w, L1 = w -> exponent 0
    assert norm(H, "plus_rho", rho) == pytest.approx(5.0)


def test_prune_tracks_budget(params):
    big = Hamiltonian.monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)],
                               coeff=1.0)
    tiny = Hamiltonian.monomial(params, k=[((0,), 1)], k_bar=[((0,), 1)],
                                coeff=1e-20)
    H = big + tiny
    ledger = [0.5]
    P = prune(H, 1e-10, ledger)
    assert len(P.terms) == 1
    assert ledger == [0.5, pytest.approx(1e-20)]
    assert len(prune(H, 1e-10).terms) == 1
    assert prune(big, 1e-10, ledger).terms == big.terms
    assert ledger[2] == 0.0
    assert prune(H, 0.0, ledger) is H
    assert prune(H, -1.0, ledger) is H
    assert len(ledger) == 3


def test_prune_of_a_collected_form_stays_collected(params):
    H = (Hamiltonian.monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)])
         + Hamiltonian.monomial(params, k=[((0,), 1)], k_bar=[((0,), 1)],
                                coeff=1e-20))
    C = H.collected()
    P = prune(C, 1e-10)
    assert 0 < len(P) < len(C)
    assert P.collected() is P
    # only a collected form passes the mark on
    Q = prune(H, 1e-10)
    assert Q.collected() is not Q


def test_evaluate_and_vector_field(params):
    # H = 2 q_1 qbar_0: dq_0/dt = i 2 q_1, dq_1/dt = -conj(...)-free check
    H = Hamiltonian.monomial(params, k=[((1,), 1)], k_bar=[((0,), 1)],
                             coeff=2.0)
    x = {(0,): 0.5 + 0.25j, (1,): -0.125j}
    assert evaluate(H, x) == pytest.approx(2.0 * x[(1,)]
                                           * x[(0,)].conjugate())
    field = vector_field(H, x)
    assert field[(0,)] == pytest.approx(1j * 2.0 * x[(1,)])


def test_partial_derivative(params):
    H = Hamiltonian.monomial(params, k=[((1,), 2)], coeff=3.0)
    D = partial(H, (1,), conjugate=False)
    ((key, c),) = D.terms.items()
    assert c == 6.0
    assert key[1] == (((1,), 1),)
    assert partial(H, (1,), conjugate=True).is_zero()


def test_serialization_roundtrip(params, rng):
    H = random_hamiltonian(params, rng, n_terms=5).collected()
    H2 = Hamiltonian.loads(H.dumps())
    assert H2.terms == H.terms
    assert H2.params == H.params
    assert H.dumps() == H2.dumps()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_coefficient_rejected(params, bad):
    with pytest.raises(ValidationError, match="non-finite coefficient"):
        Hamiltonian.monomial(params, k=[((1,), 1)], k_bar=[((1,), 1)],
                             coeff=bad)


def test_loads_rejects_foreign_document(params):
    with pytest.raises(ValidationError):
        Hamiltonian.loads('{"format": "something-else"}')


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
    if all(not key[3] for key in H.terms):
        return H
    acc = {}
    for key, c in H.terms.items():
        for ekey, ec in _ref_expand_term(key, c):
            acc[ekey] = acc.get(ekey, 0j) + ec
    return Hamiltonian(H.params, acc, validate=False)


def _ref_collect_term(a, k, kb, coeff):
    overlap = sorted(
        (m for m, _ in k if mi_get(kb, m) >= 1 and mi_get(k, m) >= 1),
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
    for (a, k, kb, _), c in _ref_expanded(H).terms.items():
        for ckey, cc in _ref_collect_term(a, k, kb, c):
            acc[ckey] = acc.get(ckey, 0j) + cc
    return Hamiltonian(H.params, acc, validate=False)


def _ref_class_split(H):
    parts = [{}, {}, {}]
    for key, c in _ref_collected(H).terms.items():
        parts[len(key[3])][key] = c
    return tuple(
        Hamiltonian(H.params, part, validate=False) for part in parts)


def _ref_multiply(H1, H2):
    acc = {}
    for (a1, k1, kb1, j1), c1 in H1.terms.items():
        for (a2, k2, kb2, j2), c2 in H2.terms.items():
            key = (mi_add(a1, a2), mi_add(k1, k2), mi_add(kb1, kb2),
                   tuple(sorted(j1 + j2)))
            c = c1 * c2
            if len(key[3]) > 2:
                for ekey, ec in _ref_expand_term(key, c):
                    acc[ekey] = acc.get(ekey, 0j) + ec
            else:
                acc[key] = acc.get(key, 0j) + c
    return Hamiltonian(H1.params, acc, validate=False)


def _bits(H):
    """Terms in insertion order, coefficients as exact hex strings."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in H.terms.items()]


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


def test_packed_collect_at_a_field_boundary(params):
    # the largest term degree is 8, so every field is 4 bits wide; q^8 and
    # the k-field 8 of the product both fill a field to its top bit
    p = HamParams(d=1, sigma=2.5, r=1.0, degree_cap=16, mode_radius=2)
    H = Hamiltonian.from_terms(p, [
        ([], [((1,), 8)], [], (), 1.0),
        ([], [((1,), 5), ((2,), 1)], [((1,), 2)], (), 2.0 - 1.0j),
        ([((0,), 1)], [((1,), 3)], [((1,), 3)], (), 0.5j),
        ([], [((1,), 1)], [((1,), 1)], [(1,), (2,)], 3.0),
    ])
    assert _bits(H.expanded()) == _bits(_ref_expanded(H))
    assert _bits(H.collected()) == _bits(_ref_collected(H))
    assert [_bits(g) for g in class_split(H)] == [
        _bits(w) for w in _ref_class_split(H)]
    Q = Hamiltonian.monomial(p, k=[((1,), 4)], k_bar=[((1,), 4)])
    assert _bits(multiply(Q, Q)) == _bits(_ref_multiply(Q, Q))


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
    _, states, _ = run(KamConfig(d=1, mode_radius=2, epsilon=1e-6, seed=7,
                                 steps=1))
    step = states[1]
    for H in (Hamiltonian.zero(params),
              build_cubic_nls(NlsConfig(d=1, mode_radius=2, epsilon=1e-6)),
              build_cubic_nls(NlsConfig(d=2, mode_radius=1, epsilon=1e-6)),
              special, step.R0 + step.R1 + step.R2):
        assert H.dumps() == json.dumps(H.to_dict(), indent=1)
    assert special.dumps().count("-0.0") == 2
    odd = Hamiltonian(params, {((), (((1,), 1),), (), ()): complex(
        math.nan, -math.inf), ((), (), (), ()): complex(math.inf, 1.0)},
        validate=False)
    assert odd.dumps() == json.dumps(odd.to_dict(), indent=1)


def _ref_field_modes(H):
    modes = set()
    for (_, k, kb, _) in H.expanded().terms:
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
    KamConfig(d=1, mode_radius=2, epsilon=1e-6, seed=7, steps=1),
    KamConfig(d=2, mode_radius=1, epsilon=1e-6, gamma=0.01, seed=7,
              steps=1),
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
