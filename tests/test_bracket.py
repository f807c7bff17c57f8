from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlskam import (
    CapacityError,
    HamParams,
    Hamiltonian,
    evaluate,
    linear_combine,
    multiply,
    norm,
    poisson_bracket,
)
from nlskam.lattice import conservation_check, mi_degree
from nlskam.verification import random_hamiltonian

from mi_helpers import mi_add, monomial, tuple_terms

PARAMS = HamParams(d=1, sigma=2.5, r=1.0, floor_const=1024.0,
                   degree_cap=32, mode_radius=2)


def _rel(diff, ref):
    return norm(diff, "star_rho", 0.0) / max(norm(ref, "star_rho", 0.0),
                                             1e-300)


def test_bracket_of_actions_vanishes():
    I1 = monomial(PARAMS, k=[((1,), 1)], k_bar=[((1,), 1)])
    I2 = monomial(PARAMS, k=[((2,), 1)], k_bar=[((2,), 1)])
    assert len(poisson_bracket(I1, I2)) == 0


def test_bracket_canonical_pair():
    # under {F,G} = i sum (dF/dq dG/dqbar - dF/dqbar dG/dq):
    # {q_n qbar_n, q_n} = -i q_n
    I1 = monomial(PARAMS, k=[((1,), 1)], k_bar=[((1,), 1)])
    q = monomial(PARAMS, k=[((1,), 1)])
    B = poisson_bracket(I1, q)
    ((key, c),) = tuple_terms(B).items()
    assert key == ((), (((1,), 1),), (), ())
    assert c == pytest.approx(-1j)


def test_antisymmetry_exact(rng):
    for _ in range(25):
        F = random_hamiltonian(PARAMS, rng, n_terms=4)
        G = random_hamiltonian(PARAMS, rng, n_terms=4)
        S = linear_combine(1.0, poisson_bracket(F, G), 1.0,
                           poisson_bracket(G, F))
        assert norm(S, "star_rho", 0.0) == 0.0


def test_jacobi_identity(rng):
    for _ in range(25):
        F = random_hamiltonian(PARAMS, rng, n_terms=3)
        G = random_hamiltonian(PARAMS, rng, n_terms=3)
        H = random_hamiltonian(PARAMS, rng, n_terms=3)
        parts = [poisson_bracket(poisson_bracket(F, G), H),
                 poisson_bracket(poisson_bracket(G, H), F),
                 poisson_bracket(poisson_bracket(H, F), G)]
        J = linear_combine(1.0, parts[0], 1.0,
                           linear_combine(1.0, parts[1], 1.0, parts[2]))
        scale = max(norm(p, "star_rho", 0.0) for p in parts)
        assert norm(J, "star_rho", 0.0) <= 1e-10 * max(scale, 1e-300)


def test_leibniz_rule(rng):
    for _ in range(25):
        F = random_hamiltonian(PARAMS, rng, n_terms=3)
        G = random_hamiltonian(PARAMS, rng, n_terms=3)
        H = random_hamiltonian(PARAMS, rng, n_terms=3)
        lhs = poisson_bracket(multiply(F, G), H)
        p1 = multiply(F, poisson_bracket(G, H))
        p2 = multiply(poisson_bracket(F, H), G)
        rhs = linear_combine(1.0, p1, 1.0, p2)
        scale = max(norm(x, "star_rho", 0.0) for x in (lhs, p1, p2))
        diff = linear_combine(1.0, lhs, -1.0, rhs)
        assert norm(diff, "star_rho", 0.0) <= 1e-10 * max(scale, 1e-300)


def test_bracket_preserves_conservation(rng):
    for _ in range(25):
        F = random_hamiltonian(PARAMS, rng, n_terms=3)
        G = random_hamiltonian(PARAMS, rng, n_terms=3)
        B = poisson_bracket(F, G)
        for (_, k, kb, _) in tuple_terms(B.expanded()):
            assert conservation_check(k, kb) == (True, True)


def _realify(H):
    # c(a,k,k') + conj(c)(a,k',k): a real-valued Hamiltonian
    items = []
    for (a, k, kb, j), c in tuple_terms(H).items():
        items.append((a, k, kb, j, c))
        items.append((a, kb, k, j, c.conjugate()))
    return Hamiltonian.from_terms(H.params, items)


def test_bracket_agrees_with_finite_difference(rng):
    # d/dt H(x(t)) along the flow of a real F equals {H, F} at x
    F = _realify(random_hamiltonian(PARAMS, rng, n_terms=3, max_actions=0))
    H = random_hamiltonian(PARAMS, rng, n_terms=3, max_actions=0)
    x = {m: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
         for m in PARAMS.box_modes()}
    from nlskam import vector_field
    field = vector_field(F, x)
    h = 1e-6
    xp = {m: x[m] + h * field.get(m, 0j) for m in x}
    xm = {m: x[m] - h * field.get(m, 0j) for m in x}
    fd = (evaluate(H, xp) - evaluate(H, xm)) / (2.0 * h)
    exact = evaluate(poisson_bracket(H, F), x)
    assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_antisymmetry_property(seed):
    rng = np.random.default_rng(seed)
    F = random_hamiltonian(PARAMS, rng, n_terms=3)
    G = random_hamiltonian(PARAMS, rng, n_terms=3)
    S = linear_combine(1.0, poisson_bracket(F, G), 1.0,
                       poisson_bracket(G, F))
    assert norm(S, "star_rho", 0.0) == 0.0


def _reference_bracket(H1, H2):
    """The plain pair-loop bracket kernel, kept frozen as the reference.

    ``poisson_bracket`` must match it bit for bit: the same terms in the
    same insertion order, and the same CapacityError message.
    """
    H1._assert_compatible(H2)
    A = H1.expanded()
    B = H2.expanded()
    cap = H1.params.degree_cap
    acc = {}
    inner = tuple_terms(B).items()
    for (a1, k1, kb1, _), c1 in tuple_terms(A).items():
        d1 = 2 * mi_degree(a1) + mi_degree(k1) + mi_degree(kb1)
        k1d, kb1d = dict(k1), dict(kb1)
        for (a2, k2, kb2, _), c2 in inner:
            d2 = 2 * mi_degree(a2) + mi_degree(k2) + mi_degree(kb2)
            if d1 + d2 < 2:
                continue
            common = (set(k1d) | set(kb1d)) & (
                {m for m, _ in k2} | {m for m, _ in kb2})
            if not common:
                continue
            k2d, kb2d = dict(k2), dict(kb2)
            base = c1 * c2 * 1j
            for m in common:
                f = (k1d.get(m, 0) * kb2d.get(m, 0)
                     - kb1d.get(m, 0) * k2d.get(m, 0))
                if f == 0:
                    continue
                if d1 + d2 - 2 > cap:
                    raise CapacityError(
                        f"bracket degree {d1 + d2 - 2} exceeds cap {cap}")
                nk = dict(k1d)
                for mm, e in k2:
                    nk[mm] = nk.get(mm, 0) + e
                nk[m] -= 1
                nkb = dict(kb1d)
                for mm, e in kb2:
                    nkb[mm] = nkb.get(mm, 0) + e
                nkb[m] -= 1
                key = (mi_add(a1, a2),
                       tuple(sorted((mm, e) for mm, e in nk.items() if e)),
                       tuple(sorted((mm, e) for mm, e in nkb.items() if e)),
                       ())
                acc[key] = acc.get(key, 0j) + base * f
    return Hamiltonian(H1.params, acc)


def _outcome(kernel, H1, H2):
    try:
        B = kernel(H1, H2)
    except CapacityError as e:
        return "raise", str(e)
    return "ok", list(tuple_terms(B).items())


SMALL = replace(PARAMS, degree_cap=4)


def _mono(k, kb, a=()):
    return monomial(SMALL, a=a, k=k, k_bar=kb)


def test_bracket_over_cap_raises():
    # {q1^2 qbar1^2, q1 qbar1^2}: factor 2*2 - 2*1 = 2, degree 4+3-2 = 5
    F = _mono([((1,), 2)], [((1,), 2)])
    G = _mono([((1,), 1)], [((1,), 2)])
    with pytest.raises(CapacityError, match="bracket degree 5 exceeds cap 4"):
        poisson_bracket(F, G)


def test_bracket_over_cap_without_contribution_passes():
    F = _mono([((1,), 2)], [((1,), 2)])
    # no common mode
    G = _mono([((2,), 2)], [((0,), 1)])
    assert len(poisson_bracket(F, G)) == 0
    # common mode 1 with factor 2*1 - 2*1 = 0 (actions commute)
    I12 = _mono([((1,), 1), ((2,), 1)], [((1,), 1), ((2,), 1)])
    assert len(poisson_bracket(F, I12)) == 0
    # an over-cap pair with zero factor next to contributing in-cap pairs
    q1 = _mono([((1,), 1)], [])
    G = linear_combine(1.0, I12, 1.0, q1)
    assert _outcome(poisson_bracket, F, G) == _outcome(
        _reference_bracket, F, G)
    assert len(poisson_bracket(F, G)) == 1


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       offset=st.integers(-3, 1), collect=st.booleans())
@settings(max_examples=80, deadline=None)
def test_bracket_matches_reference_kernel(seed, d, offset, collect):
    # caps at and just below the largest pair degree, so some draws raise
    rng = np.random.default_rng(seed)
    wide = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=64,
                     mode_radius=2 if d == 1 else 1)
    F = random_hamiltonian(wide, rng, n_terms=6, max_factors=6,
                           max_actions=2)
    G = random_hamiltonian(wide, rng, n_terms=6, max_factors=6,
                           max_actions=2)
    if collect:
        F, G = F.collected(), G.collected()
    top = F.degree() + G.degree() - 2
    p = replace(wide, degree_cap=max(F.degree(), G.degree(), top + offset))
    F, G = Hamiltonian(p, tuple_terms(F)), Hamiltonian(p, tuple_terms(G))
    for H1, H2 in ((F, G), (G, F), (F, F)):
        assert _outcome(poisson_bracket, H1, H2) == _outcome(
            _reference_bracket, H1, H2)


@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=3)
@settings(max_examples=20, deadline=None)
def test_bracket_matches_reference_on_wide_supports(seed):
    # terms of up to 14 factors over 7 modes have supports of five modes
    # and more, where the outer rows' and B's support sets, built by
    # different expressions, can iterate their intersection in different
    # orders; seed 3 reorders the result if either one serves both
    rng = np.random.default_rng(seed)
    p = HamParams(d=1, sigma=2.5, r=1.0, degree_cap=64, mode_radius=3)
    F = random_hamiltonian(p, rng, n_terms=6, max_factors=14, max_actions=2)
    G = random_hamiltonian(p, rng, n_terms=6, max_factors=14, max_actions=2)
    for H1, H2 in ((F, G), (G, F), (F, F)):
        assert _outcome(poisson_bracket, H1, H2) == _outcome(
            _reference_bracket, H1, H2)


def _monomials(params, rng, n_terms, max_exp, modes=None):
    """Random terms with single-mode powers up to ``max_exp``."""
    modes = modes or params.box_modes()
    items = []
    for _ in range(n_terms):
        parts = []
        for _ in range(3):
            picks = rng.integers(0, len(modes), int(rng.integers(0, 3)))
            parts.append([(modes[i], int(rng.integers(1, max_exp + 1)))
                          for i in picks])
        items.append((*parts, (), complex(rng.uniform(-1, 1),
                                          rng.uniform(-1, 1))))
    return Hamiltonian.from_terms(params, items)


@given(seed=st.integers(0, 2 ** 32 - 1), max_exp=st.sampled_from([3, 31, 60]))
@settings(max_examples=40, deadline=None)
def test_bracket_matches_reference_at_large_exponents(seed, max_exp):
    # exponents up to 60 on both sides put merged exponents near the top
    # of their fields, where a field one bit short would carry
    rng = np.random.default_rng(seed)
    big = HamParams(d=1, sigma=2.5, r=1.0, degree_cap=1000, mode_radius=2)
    F = _monomials(big, rng, 5, max_exp)
    G = _monomials(big, rng, 5, max_exp)
    for H1, H2 in ((F, G), (G, F), (F, F)):
        assert _outcome(poisson_bracket, H1, H2) == _outcome(
            _reference_bracket, H1, H2)


def test_bracket_at_a_field_boundary():
    # fields hold 0..2 * degree_cap; at cap 127 they are 8 bits wide
    big = HamParams(d=1, sigma=2.5, r=1.0, degree_cap=127, mode_radius=2)
    m0, m1 = (0,), (1,)
    # degrees 64 and 63 give a pair of degree 125 <= 127
    F = monomial(big, k=[(m0, 60), (m1, 1)], k_bar=[(m0, 3)])
    G = monomial(big, k=[(m0, 2)], k_bar=[(m0, 60), (m1, 1)])
    B = poisson_bracket(F, G)
    assert _outcome(poisson_bracket, F, G) == _outcome(
        _reference_bracket, F, G)
    # merged exponents 62 and 63 at m0; f = 60 * 60 - 3 * 2 there and
    # f = 1 at m1, each removing one q qbar pair at its mode
    assert tuple_terms(B) == {
        ((), ((m0, 61), (m1, 1)), ((m0, 62), (m1, 1)), ()): 3594j,
        ((), ((m0, 62),), ((m0, 63),), ()): 1j}
    assert _outcome(poisson_bracket, G, F) == _outcome(
        _reference_bracket, G, F)
    # an operand of degree exactly the cap 127 against q0 qbar0: the
    # merged exponent 128 = cap + 1 at m0, the largest a contributing pair
    # forms, fills the top bit of its 8-bit field before the pair goes,
    # and the output exponent 127 = cap fills the seven bits below it
    F = monomial(big, k=[(m0, 127)])
    G = monomial(big, k=[(m0, 1)], k_bar=[(m0, 1)])
    key = ((), ((m0, 127),), (), ())
    assert tuple_terms(poisson_bracket(F, G)) == {key: 127j}
    assert tuple_terms(poisson_bracket(G, F)) == {key: -127j}
    # the same in the k_bar block, below the field of mode m1
    F = monomial(big, k_bar=[(m0, 127)])
    G = linear_combine(1.0, G, 1.0, monomial(
        big, k=[(m1, 1)], k_bar=[(m1, 1)]))
    assert _outcome(poisson_bracket, F, G) == _outcome(
        _reference_bracket, F, G)
    key = ((), (), ((m0, 127),), ())
    assert tuple_terms(poisson_bracket(F, G)) == {key: -127j}


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]))
@settings(max_examples=20, deadline=None)
def test_bracket_of_low_degrees_under_a_large_cap(seed, d):
    # fields 11 bits wide (2 * 1000 < 2048) for operands of degree <= 4
    rng = np.random.default_rng(seed)
    big = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=1000,
                    mode_radius=2 if d == 1 else 1)
    F = random_hamiltonian(big, rng, n_terms=6, max_factors=4,
                           max_actions=0)
    G = random_hamiltonian(big, rng, n_terms=6, max_factors=2,
                           max_actions=1)
    for H1, H2 in ((F, G), (G, F), (F.collected(), G)):
        assert _outcome(poisson_bracket, H1, H2) == _outcome(
            _reference_bracket, H1, H2)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_bracket_matches_reference_in_three_dimensions(seed):
    rng = np.random.default_rng(seed)
    p3 = HamParams(d=3, sigma=2.5, r=1.0, degree_cap=64, mode_radius=1)
    F = random_hamiltonian(p3, rng, n_terms=8, max_factors=6, max_actions=2)
    G = random_hamiltonian(p3, rng, n_terms=8, max_factors=6, max_actions=2)
    F = linear_combine(1.0, F, 1.0, _monomials(p3, rng, 4, 5))
    for H1, H2 in ((F, G), (G, F), (F.collected(), G)):
        assert _outcome(poisson_bracket, H1, H2) == _outcome(
            _reference_bracket, H1, H2)


def test_bracket_with_an_empty_operand(rng):
    F = random_hamiltonian(PARAMS, rng, n_terms=4)
    Z = Hamiltonian.zero(PARAMS)
    for H1, H2 in ((F, Z), (Z, F), (Z, Z)):
        assert _outcome(poisson_bracket, H1, H2) == ("ok", [])


def test_bracket_on_disjoint_and_partly_shared_modes(rng):
    wide = replace(PARAMS, degree_cap=64)
    left = [(-2,), (-1,)]
    right = [(1,), (2,)]
    F = _monomials(wide, rng, 6, 4, modes=left)
    G = _monomials(wide, rng, 6, 4, modes=right)
    assert len(poisson_bracket(F, G)) == 0
    # sharing only mode 0: the packed fields of the two operands interleave
    F0 = _monomials(wide, rng, 6, 4, modes=left + [(0,)])
    G0 = _monomials(wide, rng, 6, 4, modes=[(0,)] + right)
    for H1, H2 in ((F0, G0), (G0, F0)):
        out = _outcome(poisson_bracket, H1, H2)
        assert out == _outcome(_reference_bracket, H1, H2)
        assert out[0] == "ok" and out[1]
