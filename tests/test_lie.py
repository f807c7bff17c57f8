"""The one Lie-series loop: ``hamiltonian.lie_transform``.

Both callers are checked against frozen copies of the loops they ran
before they shared this one: the ``flow_bound`` oracle's plain series
(no E, no pruning) and the KAM step's split series with its
capacity and order-cap charges.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlskam import (
    CapacityError,
    DivergenceRiskError,
    HamParams,
    KamConfig,
    NlsConfig,
    ValidationError,
    initial_state,
    kam_step,
    lie_transform,
    linear_combine,
    norm,
    poisson_bracket,
    schedule,
    solve_homological,
    verify_norm_lemma,
)
from nlskam.driver import KamState, _eps0_of, class_norms
from nlskam import hamiltonian
from nlskam.hamiltonian import (
    TAIL_TOL,
    Hamiltonian,
    _bracket,
    class_split,
)
from nlskam.homological import RHO0
from nlskam.verification import random_hamiltonian

from mi_helpers import monomial, term_degree, tuple_terms

CFG = KamConfig(NlsConfig(HamParams(d=1, mode_radius=2), epsilon=1e-6),
                seed=7, steps=1)


def _bits(H):
    return [(k, c.real.hex(), c.imag.hex())
            for k, c in tuple_terms(H).items()]


def _follows(E, A):
    """Whether E's keys are a subsequence of A's, in A's order."""
    keys = iter(tuple_terms(A))
    return all(key in keys for key in tuple_terms(E))


def _count_kernel_calls(monkeypatch):
    """Record the operand sizes (A, E) of each call of the bracket kernel."""
    calls = []
    kernel = hamiltonian._bracket

    def counted(A, B, E):
        calls.append((len(A), len(E)))
        return kernel(A, B, E)

    monkeypatch.setattr(hamiltonian, "_bracket", counted)
    return calls


def _frozen_plain_series(H, F, order_cap, tail_tol):
    """sum_n ad_F^n H / n! as the flow_bound oracle summed it before."""
    H1 = H.expanded()
    total = H1
    current = H1
    prev_norm = norm(H1, "star_rho", 0.0)
    fact = 1.0
    for n in range(1, order_cap + 1):
        current = poisson_bracket(current, F)
        fact *= n
        scaled = current.scale(1.0 / fact)
        total = linear_combine(1.0, total, 1.0, scaled)
        t_norm = norm(scaled, "star_rho", 0.0)
        if t_norm < tail_tol or t_norm == 0.0:
            break
        if prev_norm > 0.0 and t_norm >= prev_norm and n > 1:
            raise DivergenceRiskError("not decaying")
        prev_norm = t_norm
    return total


def _frozen_prune(H, tol):
    """prune's rule recomputed: (kept part, dropped star mass at rho=0).

    A term's mass is |c| I(0)^a 2^(number of J-factors), each J_m being
    at most 2 in absolute value; with tol <= 0 nothing is dropped and no
    mass is recorded.
    """
    if tol <= 0:
        return H, []
    keep, lost = {}, 0.0
    for (a, k, kb, j), c in tuple_terms(H).items():
        mass = abs(c) * math.exp(-2.0 * H.params.r * sum(
            e * H.params.weight(m) for m, e in a)) * 2.0 ** len(j)
        if mass < tol:
            lost += mass
        else:
            keep[a, k, kb, j] = c
    return Hamiltonian(H.params, keep), [lost]


def _frozen_kam_series(start, G, E, F, order_cap, prune_tol, tail_tol):
    """The Lie loop kam_step ran inline before.

    Returns (sum, charge, masses) with masses the star mass each order's
    prune dropped.
    """
    R_plus = start
    TG, TE = G, E
    fact = 1.0
    budget = 0.0
    masses = []
    for n in range(1, order_cap + 1):
        try:
            TG = poisson_bracket(TG, F)
            TE = poisson_bracket(TE, F)
        except CapacityError:
            budget += norm(TG, "star_rho", 0.0) / fact
            break
        fact *= n
        contrib = linear_combine(1.0 / fact, TG,
                                 -1.0 / (fact * (n + 1)), TE)
        contrib, lost = _frozen_prune(contrib, prune_tol)
        masses += lost
        c_norm = norm(contrib, "star_rho", 0.0)
        R_plus = linear_combine(1.0, R_plus, 1.0, contrib)
        if c_norm < tail_tol:
            break
    else:
        budget += c_norm
    return R_plus, budget, masses


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       f_scale=st.sampled_from([1e-4, 1e-1, 1.0, 30.0]),
       order_cap=st.integers(1, 4), degree_cap=st.sampled_from([8, 12, 64]))
@settings(max_examples=60, deadline=None)
def test_plain_series_matches_frozen_loop(seed, d, f_scale, order_cap,
                                          degree_cap):
    params = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=degree_cap,
                       mode_radius=2 if d == 1 else 1)
    rng = np.random.default_rng(seed)
    H = random_hamiltonian(params, rng, n_terms=4)
    F = random_hamiltonian(params, rng, n_terms=3).scale(f_scale)
    HE = H.expanded()
    series = lie_transform(HE, HE, F, order_cap)
    try:
        ref = _frozen_plain_series(H, F, order_cap, 1e-30)
    except DivergenceRiskError:
        assert not series.decays
        return
    except CapacityError:
        assert series.capped and series.decays
        return
    assert series.decays and not series.capped
    assert _bits(series.total) == _bits(ref)


def _step_inputs(cfg, tiny_r2=False, s=0):
    """The Lie-series inputs of step ``s`` of a run of ``cfg``."""
    state, _ = initial_state(cfg)
    for t in range(s):
        state, _ = kam_step(state, schedule(t, _eps0_of(cfg)), cfg)
    if tiny_r2:
        # a class-2 term below prune_tol: the series carries it over in
        # `start`, and the final prune drops it
        m = state.nf.modes[0]
        tiny = monomial(
            state.R2.params, k=[((-1,), 1), ((2,), 1)],
            k_bar=[((0,), 1), ((1,), 1)], j=(m, m), coeff=1e-19)
        R2 = linear_combine(1.0, state.R2, 1.0, tiny)
        state = replace(state, R2=R2,
                        norms=class_norms(state.R0, state.R1, R2, RHO0))
    sched = schedule(s, _eps0_of(cfg))
    sol = solve_homological(state.R0, state.R1, state.nf,
                            cfg.gamma * sched.eps_s ** 0.01,
                            sched.truncation_budget)
    G = linear_combine(1.0, linear_combine(1.0, state.R0, 1.0, state.R1),
                       1.0, state.R2).expanded()
    start = linear_combine(1.0, sol.deferred, 1.0, state.R2)
    return state, sched, sol, G, start


@pytest.mark.parametrize(
    "degree_cap,order_cap,orders,capped,tiny_r2,e_only", [
        # the order-1 bracket is over the degree cap
        (4, 3, 0, True, False, False),
        # the order-2 bracket is over the degree cap
        (6, 3, 1, True, False, False),
        # order 2 falls below TAIL_TOL: no charge
        (16, 3, 2, False, False, False),
        # stops at the order cap: charges order 1
        (16, 1, 1, False, False, False),
        # the final prune drops a term of R2
        (16, 3, 2, False, True, False),
        # only the E chain's order-1 bracket is over the cap
        (6, 3, 0, True, False, True),
    ])
def test_step_series_and_charges(degree_cap, order_cap, orders, capped,
                                 tiny_r2, e_only):
    nls = replace(CFG.nls, params=replace(CFG.nls.params,
                                          degree_cap=degree_cap))
    cfg = replace(CFG, nls=nls, lie_order_cap=order_cap)
    state, sched, sol, G, start = _step_inputs(cfg, tiny_r2)
    E = sol.eliminated
    if e_only:
        # a degree-6 term off G's keys whose bracket with F has degree 8
        E = linear_combine(1.0, E, 1.0, monomial(
            E.params, k=[((-1,), 2), ((2,), 1)],
            k_bar=[((-2,), 1), ((1,), 2)], coeff=1e-3))
        assert not _follows(E.expanded(), G)
    series = lie_transform(start, G, sol.F, order_cap, E=E,
                           prune_tol=cfg.prune_tol)
    ref, charge, masses = _frozen_kam_series(
        start, G, E, sol.F, order_cap, cfg.prune_tol, TAIL_TOL)
    assert len(series.norms) == orders and series.capped == capped
    assert _bits(series.total) == _bits(ref)
    if e_only:
        # one kernel call brackets both chains, so neither advanced: the
        # charge is ||G||, where the frozen loop had advanced G to {G, F}
        assert series.charge == norm(G, "star_rho", 0.0) > 0.0
        return  # kam_step brackets the step's own E
    assert series.charge == charge
    if degree_cap == 4:
        assert charge == norm(G, "star_rho", 0.0) > 0.0
    if order_cap == 1:
        assert charge == series.norms[0] > 0.0
    new_state, report = kam_step(state, sched, cfg)
    # the budget is the ledger: each order's dropped mass, the charge and
    # the mass the final prune dropped, in that order
    R_plus, final = _frozen_prune(ref.collected(), cfg.prune_tol)
    assert [_bits(X) for X in class_split(R_plus)] == [
        _bits(new_state.R0), _bits(new_state.R1), _bits(new_state.R2)]
    assert report.error_budget == sum([*masses, charge, *final])
    if degree_cap == 16:
        assert sum(masses + final) > 0.0
    if tiny_r2:
        assert final[0] > 0.1 * report.error_budget
    assert report.flags["lie_complete"] is not capped
    if capped:
        with pytest.raises(ValidationError, match="lie_complete"):
            kam_step(state, sched, replace(cfg, strict=True))


def test_non_decaying_series_is_reported():
    # a large F: term norms grow with the order
    with pytest.raises(DivergenceRiskError):
        verify_norm_lemma("flow_bound", params={"f_scale": 100.0},
                          samples=3, seed=0)
    state, _ = initial_state(CFG)
    R0 = state.R0.scale(1e6)
    big = KamState(nf=state.nf, R0=R0, R1=state.R1, R2=state.R2, s=0,
                   norms=class_norms(R0, state.R1, state.R2, RHO0))
    sched = schedule(0, _eps0_of(CFG))
    cfg = replace(CFG, force=True)
    _, report = kam_step(big, sched, cfg)
    assert report.flags["lie_decay"] is False
    with pytest.raises(ValidationError, match="lie_decay"):
        kam_step(big, sched, replace(cfg, strict=True))
    # the same step at the sampled size decays
    _, report = kam_step(state, sched, CFG)
    assert report.flags["lie_decay"] is True


def test_flow_bound_oracle_raises_at_the_degree_cap():
    with pytest.raises(CapacityError, match="Lie series of F"):
        verify_norm_lemma("flow_bound", params={"degree_cap": 6},
                          samples=3, seed=0)


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       offset=st.integers(-3, 1), keep=st.sampled_from([0.0, 0.5, 1.0]),
       form=st.sampled_from(["subsequence", "reordered", "foreign"]))
@settings(max_examples=90, deadline=None)
def test_two_column_kernel_matches_two_brackets(seed, d, offset, keep, form):
    # caps at and just below the largest pair degree, so some draws raise
    rng = np.random.default_rng(seed)
    wide = HamParams(d=d, degree_cap=64, mode_radius=2 if d == 1 else 1)
    G = random_hamiltonian(wide, rng, n_terms=8, max_factors=6,
                           max_actions=2).collected()
    F = random_hamiltonian(wide, rng, n_terms=5, max_factors=6,
                           max_actions=2)
    top = G.degree() + F.degree() - 2
    p = replace(wide, degree_cap=max(G.degree(), F.degree(), top + offset))
    G, F = Hamiltonian(p, tuple_terms(G)), Hamiltonian(p, tuple_terms(F))
    GE = G.expanded()
    # E: G's expanded keys with coefficients of its own, as a subsequence,
    # in a random order, or with keys G lacks put in at random places
    ge_keys = tuple_terms(GE)
    keys = [key for key in ge_keys if rng.random() < keep]
    if form == "reordered":
        keys = [keys[i] for i in rng.permutation(len(keys))]
    elif form == "foreign":
        X = random_hamiltonian(wide, rng, n_terms=4, max_factors=6,
                               max_actions=2).expanded()
        for key in tuple_terms(X):
            if key not in ge_keys and term_degree(key) <= p.degree_cap:
                keys.insert(rng.integers(len(keys) + 1), key)
    E = Hamiltonian(p, {key: complex(*rng.uniform(-1.0, 1.0, 2))
                        for key in keys})
    if form == "subsequence":
        assert _follows(E, GE)
    # the kernel raises as the first of the two brackets that raises
    want, error = [], None
    for X in (G, E):
        try:
            want.append(_bits(poisson_bracket(X, F)))
        except CapacityError as e:
            error = str(e)
            break
    if error is not None:
        with pytest.raises(CapacityError) as info:
            _bracket(GE, F.expanded(), E)
        assert str(info.value) == error
        return
    assert [_bits(X) for X in _bracket(GE, F.expanded(), E)] == want


@pytest.mark.parametrize("change", ["reordered", "e_only_key"])
def test_series_off_the_shared_pass_matches_frozen_loop(change, monkeypatch):
    # E's keys not a subsequence of G's: E-only rows follow G's rows
    _, _, sol, G, start = _step_inputs(CFG)
    terms = list(tuple_terms(sol.eliminated.expanded()).items())
    if change == "reordered":
        terms[0], terms[1] = terms[1], terms[0]
    else:
        # momentum 4 != 0: no key of the conserving G
        terms.append((((), (((2,), 1),), (((-2,), 1),), ()), 1e-7))
    E = Hamiltonian(G.params, dict(terms))
    assert not _follows(E, G)
    calls = _count_kernel_calls(monkeypatch)
    series = lie_transform(start, G, sol.F, 3, E=E, prune_tol=CFG.prune_tol)
    assert len(series.norms) == 2 and len(calls) == 2
    ref, charge, _ = _frozen_kam_series(start, G, E, sol.F, 3,
                                        CFG.prune_tol, TAIL_TOL)
    assert _bits(series.total) == _bits(ref)
    assert series.charge == charge


def test_one_kernel_pass_per_order_on_a_d2_step(monkeypatch):
    # the kam_d2 benchmark config: both Lie chains share every pass
    cfg = KamConfig(NlsConfig(HamParams(d=2, mode_radius=1), epsilon=1e-6),
                    gamma=0.01, seed=7, steps=1)
    _, _, sol, G, start = _step_inputs(cfg)
    calls = _count_kernel_calls(monkeypatch)
    series = lie_transform(start, G, sol.F, cfg.lie_order_cap,
                           E=sol.eliminated, prune_tol=cfg.prune_tol)
    assert not series.capped and len(series.norms) == 2
    assert len(calls) == 2
    assert calls[0] == (len(G), len(sol.eliminated.expanded()))


def test_one_kernel_pass_per_order_on_kam_exact_step_1(monkeypatch):
    # the kam_exact benchmark config at step 1, where E has more keys
    # than G and does not follow G's order; the order-1 bracket is over
    # the degree cap, and the one call that raises carried both chains
    cfg = replace(CFG, steps=2, prune_tol=0.0)
    _, _, sol, G, start = _step_inputs(cfg, s=1)
    E = sol.eliminated.expanded()
    assert len(E) > len(G) and not _follows(E, G)
    calls = _count_kernel_calls(monkeypatch)
    series = lie_transform(start, G, sol.F, cfg.lie_order_cap, E=E,
                           prune_tol=cfg.prune_tol)
    assert series.capped and not series.norms
    assert calls == [(len(G), len(E))]
