import math

import numpy as np
import pytest

from nlskam import (
    CapacityError,
    HamParams,
    Hamiltonian,
    ValidationError,
    canonicalize,
    class_split,
    evaluate,
    linear_combine,
    multiply,
    norm,
    partial,
    prune,
    vector_field,
)
from nlskam.hamiltonian import term_degree
from nlskam.verification import random_hamiltonian


def J_mono(params, m, coeff=1.0):
    return Hamiltonian.monomial(params, j=(m,), coeff=coeff)


def test_params_validation():
    with pytest.raises(ValidationError):
        HamParams(d=1, sigma=2.5, r=0.5, floor_const=1024.0,
                  degree_cap=8, mode_radius=2)


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


def test_canonicalize_names(params):
    H = J_mono(params, (1,))
    assert canonicalize(H, "expanded") is H.expanded()
    with pytest.raises(ValidationError):
        canonicalize(H, "weird")


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
    P = prune(H, 1e-10)
    assert len(P.terms) == 1
    assert P.error_budget == pytest.approx(1e-20)
    assert prune(H, 0.0) is H


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
