import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from nlskam import (
    CapacityError,
    HamParams,
    ValidationError,
    check_frequency,
    frequency_dumps,
    frequency_loads,
    resonance_measure,
    sample_frequency,
    sample_strong_frequency,
)
from nlskam import diophantine
from nlskam.diophantine import (
    _ell_distances,
    _ell_table,
    _products,
    _resonant_draws,
    _trial_blocks,
    condition2_applies,
    dioph_rhs,
    ell_sorted_norms,
    enumerate_ells,
)
from nlskam.lattice import angle_norm

LAT = HamParams(d=1, mode_radius=2)
GAMMA, BUDGET = 0.1, 3


def _no_work(*args):
    raise AssertionError("built a table or drew before checking its "
                         "arguments")


@pytest.mark.parametrize("gamma,budget,message", [
    (1.0, 3, r"^gamma must lie in \[0,1\), got 1.0$"),
    (-0.1, 3, r"^gamma must lie in \[0,1\), got -0.1$"),
    (math.nan, 3, r"^gamma must lie in \[0,1\), got nan$"),
    (0.1, 0, "^ell_budget must be >= 1$"),
])
@pytest.mark.parametrize("entry", ["check", "sample", "measure"])
def test_gamma_and_budget_checked_before_any_work(monkeypatch, entry, gamma,
                                                  budget, message):
    monkeypatch.setattr(diophantine, "_ell_table", _no_work)
    monkeypatch.setattr(diophantine, "_mode_rng", _no_work)
    call = {
        "check": lambda: check_frequency({(0,): 0.1}, gamma, budget, LAT),
        "sample": lambda: sample_strong_frequency(LAT, gamma, budget, 0),
        "measure": lambda: resonance_measure(
            [0.05, gamma], 10, 0, lattice=LAT, ell_budget=budget),
    }[entry]
    with pytest.raises(ValidationError, match=message) as e:
        call()
    assert "\n" not in str(e.value)


def _ell_tuples(L, modes):
    """The rows of the l-matrix ``L`` as l tuples over the sorted modes."""
    modes = sorted(modes)
    return [tuple((m, v) for m, v in zip(modes, row) if v)
            for row in L.tolist()]


def test_enumerate_ells_count_and_order():
    modes = [(0,), (1,)]
    ells = _ell_tuples(enumerate_ells(modes, 2), modes)
    # one l of each +-l pair of the l1-ball of radius 2 in Z^2 minus origin
    assert len(ells) == 6
    assert all(ell[0][1] > 0 for ell in ells)
    sizes = [sum(abs(v) for _, v in ell) for ell in ells]
    assert sizes == sorted(sizes)
    assert len(set(ells)) == len(ells)
    ball = {tuple((m, v) for m, v in zip(modes, vs) if v)
            for vs in itertools.product(range(-2, 3), repeat=2)
            if 0 < abs(vs[0]) + abs(vs[1]) <= 2}
    assert len(ball) == 12
    negs = {tuple((m, -v) for m, v in ell) for ell in ells}
    assert set(ells) | negs == ball


@pytest.mark.parametrize("d,radius,budget", [
    (1, 2, 6), (1, 0, 130), (2, 1, 4), (3, 1, 3), (2, 2, 2)])
def test_enumerate_ells_refusal_counts_the_rows_it_would_build(
        monkeypatch, d, radius, budget):
    modes = HamParams(d=d, mode_radius=radius).box_modes()
    L = enumerate_ells(modes, budget)
    # no memory at all: every table is refused before it is built, naming
    # its size: the values of l and one float64 bound per gamma
    monkeypatch.setattr(os, "sysconf", lambda name: 0)
    monkeypatch.setattr(diophantine, "enumerate_ells", _no_work)
    for gammas in ([0.1], [0.01, 0.05, 0.1]):
        with pytest.raises(CapacityError) as e:
            _ell_table(modes, d, budget, gammas)
        need = len(L) * (L.shape[1] * L.dtype.itemsize + 8 * len(gammas))
        assert str(e.value) == (
            f"l-table of {len(L):,} rows needs {need:,} B, "
            "more than the 0 B of physical memory")


def test_refusal_counts_20001_modes_from_a_few_terms(monkeypatch):
    # d=1 R=10000, |l| <= 6: the rows are summed per level, 2 min(n, t)
    # binomials at level t, 42 in all; a sum over j <= n took 40,002
    modes = HamParams(d=1, mode_radius=10_000).box_modes()
    assert len(modes) == 20_001
    calls, comb = [], math.comb
    monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
    monkeypatch.setattr(os, "sysconf", lambda name: 0)
    monkeypatch.setattr(diophantine, "enumerate_ells", _no_work)
    with pytest.raises(CapacityError) as e:
        _ell_table(modes, 1, 6, [0.1])
    rows = 2_845_724_782_275_560_693_612_006
    assert str(e.value) == (
        f"l-table of {rows:,} rows needs {rows * (20_001 + 8):,} B, "
        "more than the 0 B of physical memory")
    assert len(calls) <= 42


def test_resonance_measure_refuses_the_table_before_drawing(monkeypatch):
    draws = []

    def counting_rng(seed, mode):
        draws.append(mode)
        return np.random.default_rng(0)

    monkeypatch.setattr(diophantine, "_mode_rng", counting_rng)
    # the box is built, and cached, while there is memory: the table is
    # what is refused
    HamParams(d=1, mode_radius=10_000).box_modes()
    monkeypatch.setattr(os, "sysconf", lambda name: 0)
    with pytest.raises(CapacityError, match="^l-table "):
        resonance_measure([0.1], 10_000, 0,
                          lattice=HamParams(d=1, mode_radius=10_000),
                          ell_budget=6)
    assert draws == []
    monkeypatch.undo()
    monkeypatch.setattr(diophantine, "_mode_rng", counting_rng)
    resonance_measure([0.1], 10, 0, lattice=LAT, ell_budget=3)
    assert len(draws) == len(LAT.box_modes())


def test_enumerate_ells_len_is_the_stored_row_count():
    # perfbench's enumerate_ells.ells and resonance_measure.bytes_computed
    # counters read len() of the result
    for d, radius, budget in [(1, 2, 6), (2, 1, 4), (2, 2, 2)]:
        modes = HamParams(d=d, mode_radius=radius).box_modes()
        L = enumerate_ells(modes, budget)
        assert len(L) == L.shape[0] == len(_half(_reference_ells(modes,
                                                                 budget)))
        assert L.shape[1] == len(modes)
    # the columns follow the sorted modes whatever order they come in
    L = enumerate_ells([(1,), (0,)], 2)
    assert len(L) == 6
    assert np.array_equal(L, enumerate_ells([(0,), (1,)], 2))
    assert _ell_tuples(L, [(1,), (0,)]) == _half(
        _reference_ells([(0,), (1,)], 2))


def test_ell_sorted_norms_and_condition2():
    ell = (((2,), 1), ((1,), 1))
    assert ell_sorted_norms(ell) == [2.0, 1.0]
    assert condition2_applies(ell)          # n3* missing counts as 0 < n2*
    zero2 = (((2,), 1), ((0,), 1))
    assert not condition2_applies(zero2)    # n2* = n3* = 0
    single = (((1,), 1),)
    assert not condition2_applies(single)   # needs |l| >= 2
    flat = (((1,), 1), ((-1,), 2))
    assert ell_sorted_norms(flat) == [1.0, 1.0, 1.0]
    assert not condition2_applies(flat)     # n3* == n2*


def test_dioph_rhs_values():
    ell = (((1,), 1),)
    # 1/(1 + |l|^3 <n>^(d+4)) with <1> = 1
    assert dioph_rhs(ell, GAMMA, 1, 1) == pytest.approx(0.1 / 2.0)
    ell2 = (((2,), 2),)
    assert dioph_rhs(ell2, GAMMA, 1, 1) == pytest.approx(
        0.1 / (1.0 + 8.0 * 2.0 ** 5))
    with pytest.raises(ValidationError):
        dioph_rhs((), GAMMA, 1, 1)
    with pytest.raises(ValidationError):
        dioph_rhs(ell, GAMMA, 1, 3)


def test_condition2_rhs_products_small_modes_only():
    # modes with norm <= n3* contribute tenth powers; others do not
    ell = (((2,), 1), ((-2,), 1), ((1,), 1), ((0,), 1))
    norms = ell_sorted_norms(ell)
    n3 = norms[2]
    rhs = dioph_rhs(ell, GAMMA, 1, 2)
    expected = (GAMMA ** 5 / 100.0)
    for mode, v in ell:
        if math.sqrt(mode[0] ** 2) <= n3:
            expected *= (1.0 / (1.0 + abs(v) ** 3
                                * max(1.0, abs(mode[0])) ** 8)) ** 10
    assert rhs == pytest.approx(expected)


def test_check_frequency_flags_violation():
    modes = [(m,) for m in range(-2, 3)]
    omega = {m: 0.0 for m in modes}   # fully resonant
    violations, checked = check_frequency(omega, GAMMA, BUDGET, LAT)
    assert checked == 2 * len(enumerate_ells(modes, 3))
    assert violations
    ell, which, lhs, rhs = violations[0]
    assert lhs == 0.0 and rhs > 0.0 and which in (1, 2)


def test_check_frequency_refuses_an_empty_map_before_any_work(monkeypatch):
    monkeypatch.setattr(diophantine, "_ell_table", _no_work)
    with pytest.raises(ValidationError,
                       match="^frequency map is empty: nothing to check$"):
        check_frequency({}, GAMMA, BUDGET, LAT)


def test_sampling_is_order_independent_and_in_box():
    modes = [(m,) for m in range(-2, 3)]
    w1 = sample_frequency(modes, 42)
    w2 = sample_frequency(list(reversed(modes)), 42)
    assert w1 == w2
    for m, v in w1.items():
        assert 0.0 <= v <= 1.0 / max(1.0, abs(m[0]))


def test_sample_strong_frequency_passes_check():
    omega, tries = sample_strong_frequency(LAT, GAMMA, BUDGET, seed=7)
    assert list(omega) == [(m,) for m in range(-2, 3)]
    assert check_frequency(omega, GAMMA, BUDGET, LAT)[0] == []
    assert tries >= 0


def test_resonance_measure_deterministic_and_monotone():
    kw = dict(lattice=LAT, ell_budget=BUDGET)
    [(f1, s1, v1)] = resonance_measure([GAMMA], 400, seed=3, **kw)
    [(f1b, _, _)] = resonance_measure([GAMMA], 400, seed=3, **kw)
    assert f1 == f1b
    [(f2, _, _)] = resonance_measure([0.3], 400, seed=3, **kw)
    assert f2 >= f1
    assert 0.0 <= f1 <= 1.0 and s1 >= 0.0


def test_resonance_measure_shares_draws_across_gammas():
    # unsorted and repeated gammas: each entry equals its own one-gamma
    # call bit for bit, and the output follows the input order
    gammas = (0.1, 0.01, 0.3, 0.01, 0.05)
    kw = dict(lattice=LAT, ell_budget=4)
    got = resonance_measure(gammas, 3001, seed=5, **kw)
    alone = [resonance_measure([g], 3001, seed=5, **kw)[0] for g in gammas]
    assert len(got) == len(gammas)
    assert [tuple(map(float.hex, map(float, r))) for r in got] == [
        tuple(map(float.hex, map(float, r))) for r in alone]
    assert [r[2] for r in got] == [r[2] for r in alone]
    assert got[1] == got[3]
    v = {g: r[2] for g, r in zip(gammas, got)}
    assert 0 < v[0.01] < v[0.05] < v[0.1] < v[0.3] < 3001


@pytest.mark.parametrize("gammas,trials,message", [
    ([], 10, "^resonance_measure needs at least one gamma$"),
    ([GAMMA], 0, "^trials must be >= 1$"),
])
def test_resonance_measure_rejects_bad_arguments(monkeypatch, gammas, trials,
                                                 message):
    monkeypatch.setattr(diophantine, "_ell_table", _no_work)
    monkeypatch.setattr(diophantine, "_mode_rng", _no_work)
    with pytest.raises(ValidationError, match=message) as e:
        resonance_measure(gammas, trials, seed=0, lattice=LAT,
                          ell_budget=BUDGET)
    assert "\n" not in str(e.value)


def _dense_reference(draws, L, rhs):
    """Flags per bound in ``rhs`` from the whole trials x l product."""
    x = draws @ L.astype(float).T
    lhs = np.abs(x - np.rint(x))
    return x, [(lhs < r[None, :]).any(axis=1) for r in rhs]


def _box_table(d, ell_budget, mode_radius, gammas):
    """The box's modes, its l-table and one bound array per gamma."""
    modes = HamParams(d=d, mode_radius=mode_radius).box_modes()
    return (modes, *_ell_table(modes, d, ell_budget, gammas))


def _measure_draws(modes, trials, seed):
    """The draws resonance_measure makes at ``seed``."""
    draws = np.empty((trials, len(modes)))
    for i, m in enumerate(modes):
        draws[:, i] = diophantine._mode_rng(seed, m).uniform(
            0.0, 1.0 / angle_norm(m), size=trials)
    return draws


@pytest.mark.parametrize("block_rows", [7, 1])
@pytest.mark.parametrize("trials", [1, 8, 15, 50])
def test_resonant_draws_blocked_equals_full(monkeypatch, block_rows, trials):
    # trials = 1 mod 7: the short tail must not become a one-row product
    gammas = (0.1, 0.02, 0.3)
    modes, L, rhs = _box_table(d=1, ell_budget=4, mode_radius=2,
                               gammas=gammas)
    width = len(L)
    monkeypatch.setattr(diophantine, "_MEASURE_BLOCK", block_rows * width)
    draws = np.random.default_rng(trials).uniform(
        0.0, 1.0, (trials, len(modes)))
    Lt = L.astype(float).T
    x, full = _dense_reference(draws, L, rhs)
    blocks = _trial_blocks(draws, width)
    assert min(len(b) for b in blocks) >= min(2, trials)
    assert np.concatenate([b @ Lt for b in blocks]).tobytes() == x.tobytes()
    got = _resonant_draws(draws, L, rhs)
    assert got.shape == (len(gammas), trials)
    for row, ref in zip(got, full):
        assert np.array_equal(row, ref)
    if trials == 50:
        assert 0 < full[0].sum() < trials


@pytest.mark.parametrize("kw,trials,block_rows", [
    # the measure workload's table, 1,826 l wide: 10,000 = 285 * 35 + 25
    # rows, so the 25-row remainder spreads as one extra row over 25 blocks
    (dict(d=1, ell_budget=6, mode_radius=2), 10_000, 35),
    # a table wider than half a block (37,758 l): 2-row blocks, one of
    # them with the odd row
    (dict(d=2, ell_budget=6, mode_radius=1), 41, 2),
])
def test_resonant_draws_at_the_default_block(kw, trials, block_rows):
    gammas = (0.01, 0.05, 0.1)
    modes, L, rhs = _box_table(**kw, gammas=gammas)
    width = len(L)
    draws = _measure_draws(modes, trials, 1)
    blocks = _trial_blocks(draws, width)
    assert {len(b) for b in blocks} == {block_rows, block_rows + 1}
    Lt = L.astype(float).T
    x, full = _dense_reference(draws, L, rhs)
    assert np.concatenate([b @ Lt for b in blocks]).tobytes() == x.tobytes()
    got = _resonant_draws(draws, L, rhs)
    for row, ref in zip(got, full):
        assert row.tobytes() == ref.tobytes()


def _synthetic_bounds(case, r, lhs0):
    """Bound lists for ``_resonant_draws`` built from one table bound ``r``
    and ``lhs0``, the distances of the first draw."""
    odd = np.arange(len(r)) % 2 == 1
    zero = np.zeros_like(r)
    return {
        # neither crossing bound is the pointwise max, nor is r
        "crossing": [r * np.where(odd, 4.0, 0.5), r * np.where(odd, 0.5, 4.0),
                     r],
        "duplicate": [r, 0.2 * r, r, 0.2 * r],
        "zero_below": [zero, r],
        "zero_alone": [zero],
        "one": [r],
        # the first draw's distances lie at this bound, not below it
        "at_distance": [lhs0, 0.5 * lhs0],
    }[case]


@pytest.mark.parametrize("case", ["crossing", "duplicate", "zero_below",
                                  "zero_alone", "one", "at_distance"])
@pytest.mark.parametrize("trials", [1, 40])
@pytest.mark.parametrize("nan_draw", [False, True])
def test_resonant_draws_on_synthetic_bounds(monkeypatch, case, trials,
                                            nan_draw):
    # 40 draws in 7-row blocks: bound-below-the-top hits in later blocks
    modes, L, (r,) = _box_table(d=1, ell_budget=4, mode_radius=2,
                                gammas=(0.1,))
    monkeypatch.setattr(diophantine, "_MEASURE_BLOCK", 7 * len(L))
    draws = np.random.default_rng(5).uniform(0.0, 0.5, (trials, len(modes)))
    if case.startswith("zero"):
        # every distance of a 0 draw is 0, which a bound 0 does not flag
        draws[0] = 0.0
    if nan_draw:
        draws[-1, 0] = np.nan
    x, _ = _dense_reference(draws[:1], L, [])
    rhs = _synthetic_bounds(case, r, np.abs(x[0] - np.rint(x[0])))
    _, full = _dense_reference(draws, L, rhs)
    got = _resonant_draws(draws, L, rhs)
    assert got.dtype == bool and got.shape == (len(rhs), trials)
    assert got.tobytes() == np.array(full).tobytes()
    if nan_draw:
        assert not got[:, -1].any()
    if trials == 40 and case in ("crossing", "duplicate"):
        # every bound flags some draws and each differs from the next
        assert all(0 < f.sum() < trials for f in full)
        assert all((a != b).any() for a, b in zip(full, full[1:]))


@pytest.mark.parametrize("d,radius,budget,seed", [
    (1, 2, 6, 0), (1, 2, 6, 3), (1, 2, 6, 13),   # the measure workload
    (2, 1, 4, 0),
])
def test_resonance_measure_equals_the_full_reference(d, radius, budget,
                                                     seed):
    # the table holds one l per +-l pair; the reference tests every l
    gammas, trials = (0.01, 0.05, 0.1), 10_000
    lattice = HamParams(d=d, mode_radius=radius)
    modes = lattice.box_modes()
    ells = _reference_ells(modes, budget)
    L = _reference_matrix(ells, modes)
    rhs = [_reference_rhs(ells, g, d) for g in gammas]
    draws = _measure_draws(modes, trials, seed)
    # 500-row slices bound the float temporaries at a few tens of MB
    flags = [_dense_reference(draws[i:i + 500], L, rhs)[1]
             for i in range(0, trials, 500)]
    want = np.concatenate(flags, axis=1).sum(axis=1).tolist()
    got = resonance_measure(gammas, trials, seed, lattice=lattice,
                            ell_budget=budget)
    assert [v for *_, v in got] == want
    assert [f for f, *_ in got] == [v / trials for v in want]


def test_frequency_file_roundtrip():
    modes = [(m,) for m in range(-2, 3)]
    omega = sample_frequency(modes, 9)
    text = frequency_dumps(omega)
    assert frequency_loads(text) == omega
    with pytest.raises(ValidationError):
        frequency_loads('{"format": "nope"}')


def test_params_reject_bad_dimension_and_radius():
    # the Diophantine layer's lattice is a HamParams, which refuses these
    with pytest.raises(ValidationError,
                       match="^dimension must be >= 1, got 0$"):
        HamParams(d=0, mode_radius=2)
    with pytest.raises(ValidationError,
                       match="^mode_radius must be >= 0, got -1$"):
        HamParams(d=1, mode_radius=-1)


# ---------------------------------------------------------------------------
# The l-table against a frozen copy of the per-l reference path
# ---------------------------------------------------------------------------

def _reference_ells(modes, budget):
    """The recursive l enumeration the array builder replaced."""
    modes = sorted(tuple(m) for m in modes)

    def walk(idx, left, acc):
        if idx == len(modes):
            if left == 0 and acc:
                yield tuple(acc)
            return
        for v in range(-left, left + 1):
            if v == 0:
                yield from walk(idx + 1, left, acc)
            else:
                acc.append((modes[idx], v))
                yield from walk(idx + 1, left - abs(v), acc)
                acc.pop()

    out = []
    for total in range(1, budget + 1):
        out.extend(walk(0, total, []))
    return out


def _reference_matrix(ells, modes):
    idx = {m: i for i, m in enumerate(sorted(modes))}
    L = np.zeros((len(ells), len(modes)))
    for j, ell in enumerate(ells):
        for mode, v in ell:
            L[j, idx[mode]] = v
    return L


def _reference_rhs(ells, gamma, d):
    """Per-l bound of the reference sampler: rhs1, or max(rhs1, rhs2)."""
    rhs = np.zeros(len(ells))
    for j, ell in enumerate(ells):
        r = dioph_rhs(ell, gamma, d, 1)
        if condition2_applies(ell):
            r = max(r, dioph_rhs(ell, gamma, d, 2))
        rhs[j] = r
    return rhs


def _reference_sample(modes, ells, rhs, seed, max_tries=1000):
    modes = sorted(tuple(m) for m in modes)
    L = _reference_matrix(ells, modes)
    for t in range(max_tries):
        omega = sample_frequency(modes, (int(seed) << 20) + t)
        x = L @ np.array([omega[m] for m in modes])
        if (np.abs(x - np.rint(x)) >= rhs).all():
            return omega, t
    raise ValidationError("no draw")


def _reference_check(omega, gamma, ell_budget, d):
    ells = _reference_ells(omega.keys(), ell_budget)
    violations = []
    for ell in ells:
        x = sum(v * omega[mode] for mode, v in ell)
        lhs = abs(x - round(x))     # distance to the nearest integer
        rhs1 = dioph_rhs(ell, gamma, d, 1)
        if lhs < rhs1:
            violations.append((ell, 1, lhs, rhs1))
        if condition2_applies(ell):
            rhs2 = dioph_rhs(ell, gamma, d, 2)
            if lhs < rhs2:
                violations.append((ell, 2, lhs, rhs2))
    return violations, len(ells)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _half(ells):
    """One l of each +-l pair: the one whose first nonzero value is > 0."""
    return [ell for ell in ells if ell[0][1] > 0]


@pytest.mark.parametrize("d,radius,budget,gammas", [
    (1, 2, 6, (0.01, 0.1, 0.3, 0.9)),
    (1, 0, 4, (0.2,)),
    (2, 1, 4, (0.01, 0.1, 0.3, 0.9)),
    (3, 1, 3, (0.3,)),
    (1, 3, 4, (0.05, 0.9)),
])
def test_ell_table_matches_reference_bit_for_bit(d, radius, budget, gammas):
    modes, L, rhs = _box_table(d=d, ell_budget=budget, mode_radius=radius,
                               gammas=gammas)
    ref = _half(_reference_ells(modes, budget))
    assert _ell_tuples(L, modes) == ref
    assert L.dtype == np.int8
    assert np.array_equal(L, _reference_matrix(ref, modes))
    assert len(rhs) == len(gammas)
    for gamma, r in zip(gammas, rhs):
        assert _bits(r) == _bits(_reference_rhs(ref, gamma, d))


@pytest.mark.parametrize("d,radius,budget", [(1, 2, 6), (2, 1, 4), (3, 1, 3)])
def test_products_match_the_scalar_references(d, radius, budget):
    modes = HamParams(d=d, mode_radius=radius).box_modes()
    L = enumerate_ells(modes, budget)
    ref = _half(_reference_ells(modes, budget))
    prod1, prod2, cond2 = _products(L, modes, d, budget)
    assert cond2.tolist() == [condition2_applies(e) for e in ref]
    for gamma in (0.01, 0.3, 0.9):
        assert _bits(gamma * prod1) == _bits(
            [dioph_rhs(e, gamma, d, 1) for e in ref])
        assert _bits((gamma ** 5 / 100.0) * prod2) == _bits(
            [dioph_rhs(e, gamma, d, 2) for e in ref])
    # a row's products do not depend on the other rows passed with it
    pick = np.random.default_rng(budget).permutation(len(L))[:97]
    for got, full in zip(_products(L[pick], modes, d, budget),
                         (prod1, prod2, cond2)):
        assert got.tobytes() == full[pick].tobytes()


@pytest.mark.parametrize("radius,budget,binding,larger", [
    (2, 6, 4, 0),
    # the |l| = 1 rows at modes +-3, and l = (0) +- (3), whose n2* = n3*
    # = 0: their condition-2 side is the larger, but no bound
    (3, 4, 24, 6),
])
def test_condition2_binds_some_rows_at_a_large_gamma(radius, budget, binding,
                                                     larger):
    modes = HamParams(d=1, mode_radius=radius).box_modes()
    prod1, prod2, cond2 = _products(enumerate_ells(modes, budget), modes, 1,
                                    budget)
    rhs1, rhs2 = 0.9 * prod1, (0.9 ** 5 / 100.0) * prod2
    _, [rhs] = _ell_table(modes, 1, budget, [0.9])
    assert (cond2 & (rhs2 > rhs1)).sum() == binding
    assert (~cond2 & (rhs2 > rhs1)).sum() == larger
    assert rhs.tobytes() == np.where(cond2 & (rhs2 > rhs1), rhs2,
                                     rhs1).tobytes()


@pytest.fixture(scope="module")
def d2_reference():
    # the 9-mode, |l| <= 6 table a d=2 R=1 kam-run samples against
    lattice = HamParams(d=2, mode_radius=1)
    ells = _reference_ells(lattice.box_modes(), 6)
    return lattice, ells, _reference_rhs(ells, 0.01, 2)


def test_ell_table_d2_sampler_config_bit_for_bit(d2_reference):
    lattice, ref, rhs = d2_reference
    modes = lattice.box_modes()
    L, [got] = _ell_table(modes, lattice.d, 6, [0.01])
    half = _half(ref)
    assert len(ref) == 75516 and len(L) == len(half) == 37758
    assert _ell_tuples(L, modes) == half
    assert _bits(got) == _bits(rhs[[e[0][1] > 0 for e in ref]])


@pytest.mark.parametrize("budget,dtype", [
    (127, np.int8), (128, np.int16), (130, np.int16)])
def test_ell_matrix_dtype_holds_budget(budget, dtype):
    L, [rhs] = _ell_table([(0,)], 1, budget, [0.1])
    assert L.dtype == dtype
    assert L[:, 0].tolist() == list(range(1, budget + 1))
    ref = _half(_reference_ells([(0,)], budget))
    assert _ell_tuples(L, [(0,)]) == ref
    assert not _products(L, [(0,)], 1, budget)[2].any()
    assert _bits(rhs) == _bits(_reference_rhs(ref, 0.1, 1))


def test_enumerate_ells_over_one_mode_at_a_large_budget():
    L = enumerate_ells([(0,)], 3000)
    assert L.dtype == np.int16
    assert L.tolist() == [[t] for t in range(1, 3001)]


@pytest.mark.parametrize("d,radius,budget", [(1, 2, 6), (2, 1, 4)])
def test_negation_leaves_bounds_and_distances_unchanged(d, radius, budget):
    # why one row per +-l pair stands for both signs
    modes = HamParams(d=d, mode_radius=radius).box_modes()
    ells = _reference_ells(modes, budget)
    negs = [tuple((m, -v) for m, v in ell) for ell in ells]
    for gamma in (0.01, 0.3):
        for which in (1, 2):
            assert _bits([dioph_rhs(e, gamma, d, which) for e in ells]) == (
                _bits([dioph_rhs(e, gamma, d, which) for e in negs]))
    assert ([condition2_applies(e) for e in ells]
            == [condition2_applies(e) for e in negs])
    L = enumerate_ells(modes, budget)
    # drawn values, and values whose sums tie at k + 1/2 for np.rint
    ws = [list(sample_frequency(modes, seed).values()) for seed in range(4)]
    ws += [[0.5] * len(modes), [0.25 * (i % 3) for i in range(len(modes))]]
    for w in ws:
        assert _ell_distances(L, w).tobytes() == (
            _ell_distances(-L, w).tobytes())


@pytest.mark.parametrize("d,radius,budget,gamma,seeds", [
    (1, 2, 6, 0.15, (0, 1, 5)),
    (1, 2, 6, 0.05, (3, 4)),
    (2, 1, 4, 0.03, (1, 4, 6)),
])
def test_sample_strong_frequency_matches_reference(d, radius, budget, gamma,
                                                   seeds):
    lattice = HamParams(d=d, mode_radius=radius)
    modes = lattice.box_modes()
    ells = _reference_ells(modes, budget)
    rhs = _reference_rhs(ells, gamma, d)
    tries = []
    for seed in seeds:
        got = sample_strong_frequency(lattice, gamma, budget, seed)
        assert got == _reference_sample(modes, ells, rhs, seed)
        tries.append(got[1])
    assert max(tries) > 0           # some draws were rejected


def test_sample_strong_frequency_d2_sampler_config(d2_reference):
    lattice, ells, rhs = d2_reference
    modes = lattice.box_modes()
    for seed in (0, 2, 5, 7):
        assert (sample_strong_frequency(lattice, 0.01, 6, seed)
                == _reference_sample(modes, ells, rhs, seed))


def _first_violation_level(omega, gamma, budget, lattice):
    """The smallest |l| among the violations check_frequency reports."""
    violations, _ = check_frequency(omega, gamma, budget, lattice)
    return min((sum(abs(v) for _, v in ell) for ell, *_ in violations),
               default=None)


def test_sampler_rejects_a_violation_at_the_last_level():
    # draw 0 of seed 38 clears every l with |l| <= 5 and fails at |l| = 6
    lattice = HamParams(d=1, mode_radius=2)
    first = sample_frequency(lattice.box_modes(), 38 << 20)
    assert _first_violation_level(first, 0.05, 6, lattice) == 6
    assert sample_strong_frequency(lattice, 0.05, 5, 38) == (first, 0)
    assert sample_strong_frequency(lattice, 0.05, 6, 38)[1] > 0


@pytest.mark.parametrize("d,radius,budget,gamma,seeds", [
    (1, 2, 6, 0.2, (0, 1, 3, 5)),
    (2, 1, 4, 0.05, (0, 2, 4)),
])
def test_sampler_rejects_exactly_the_draws_check_frequency_flags(
        d, radius, budget, gamma, seeds):
    lattice = HamParams(d=d, mode_radius=radius)
    modes = lattice.box_modes()
    levels = set()
    for seed in seeds:
        omega, tries = sample_strong_frequency(lattice, gamma, budget, seed)
        for t in range(tries + 1):
            draw = sample_frequency(modes, (seed << 20) + t)
            level = _first_violation_level(draw, gamma, budget, lattice)
            assert (level is not None) == (t < tries)
            levels.add(level)
        assert draw == omega
    assert len(levels - {None}) > 1     # rejected at more than one level


def test_sampler_memory_peak_at_the_d2_config():
    # Peaks in a fresh interpreter: the l-table alone 2.9 MB, the sampler
    # 4.6 MB; with a float copy of the table and one whole-table product
    # per draw it was 10.6 MB.
    tracemalloc.start()
    try:
        sample_strong_frequency(HamParams(d=2, mode_radius=1), 0.01, 6, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def _traced_peak(call):
    """The traced peak of ``call()`` in bytes, and its result."""
    tracemalloc.start()
    try:
        got = call()
        return tracemalloc.get_traced_memory()[1], got
    finally:
        tracemalloc.stop()


def test_enumerate_ells_peak_is_its_result():
    # d=2 R=2, |l| <= 4: 141,700 rows of 25 modes, 3,542,500 B.  Writing
    # each level where it is stored allocates the matrix once; a new
    # matrix per added mode, with views of the last one alive, peaked at
    # 8,798,607 B (2.48x).
    modes = HamParams(d=2, mode_radius=2).box_modes()
    peak, L = _traced_peak(lambda: enumerate_ells(modes, 4))
    assert L.shape == (141_700, 25)
    assert peak <= 1.05 * L.nbytes


def test_sampler_memory_peak_is_the_table_its_bound_and_a_few_blocks():
    # d=2 R=2, |l| <= 4: the 3,542,500 B table, one 1,133,600 B bound
    # array, and one block's _products temporaries (about 21 blocks of
    # float64 over 25 modes of 6 distinct norms: |l| per mode and two
    # int64 columns per norm).  Bounded at 32 blocks, 6.77 MB; it peaks at
    # 6.22 MB.  Building a new matrix per added mode peaked at 8.8 MB
    # before the bound array was made.
    lattice = HamParams(d=2, mode_radius=2)
    modes = lattice.box_modes()
    L = enumerate_ells(modes, 4)
    sample_frequency(modes, 0)      # numpy's first draw allocates ~1 MB
    peak, got = _traced_peak(
        lambda: sample_strong_frequency(lattice, 0.01, 4, 7))
    assert got == (sample_frequency(modes, 7 << 20), 0)
    assert peak <= L.nbytes + 8 * len(L) + 32 * 8 * diophantine._ROW_BLOCK


def test_sampler_draw_loop_holds_a_few_blocks(monkeypatch):
    # d=2 R=2, |l| <= 4: 141,700 rows, 18 blocks.  Testing one |l| level
    # at a time held that level's distances and their temporaries, 2.2 MB
    # at |l| = 4; one block's take about 4 blocks of float64, 0.27 MB.
    lattice = HamParams(d=2, mode_radius=2)
    modes = lattice.box_modes()
    table = _ell_table(modes, lattice.d, 4, [0.01])
    monkeypatch.setattr(diophantine, "_ell_table", lambda *args: table)
    sample_frequency(modes, 0)      # numpy's first draw allocates ~1 MB
    peak, got = _traced_peak(
        lambda: sample_strong_frequency(lattice, 0.01, 4, 7))
    assert got == (sample_frequency(modes, 7 << 20), 0)
    assert peak < 6 * 8 * diophantine._ROW_BLOCK


def test_check_frequency_matches_reference():
    modes = LAT.box_modes()
    resonant = {m: 0.25 * (i % 3) for i, m in enumerate(modes)}
    drawn = sample_frequency(modes, 5)
    passing, _ = sample_strong_frequency(LAT, GAMMA, 4, seed=7)
    # d=2 R=1, |l| <= 6: 37,758 rows, 5 blocks, with violations in each
    d2 = HamParams(d=2, mode_radius=1)
    d2_resonant = {m: 0.25 * (i % 3) for i, m in enumerate(d2.box_modes())}
    cases = [(omega, 4, LAT) for omega in (resonant, drawn, passing)]
    for omega, budget, lattice in cases + [(d2_resonant, 6, d2)]:
        got = check_frequency(omega, GAMMA, budget, lattice)
        want = _reference_check(omega, GAMMA, budget, lattice.d)
        assert got == want
        assert all(type(v) is int for ell, *_ in got[0] for _, v in ell)
    assert check_frequency(resonant, GAMMA, 4, LAT)[0]
    assert check_frequency(passing, GAMMA, 4, LAT)[0] == []
    modes = d2.box_modes()
    L, [rhs] = _ell_table(modes, d2.d, 6, [GAMMA])
    found = diophantine._violations(L, [d2_resonant[m] for m in modes], rhs)
    assert [len(rows) > 0 for rows, _ in found] == [True] * 5


def test_an_overflowing_distance_is_a_violation():
    # every <l, omega> is a multiple of 1e308: 46 sums overflow and their
    # distance is NaN, which clears no bound; the other 16 are integers.
    # All 62 l fail condition 1, and 6 of the 16 condition 2 as well.
    lattice = HamParams(d=1, mode_radius=1)
    omega = {m: 1e308 for m in lattice.box_modes()}
    violations, checked = check_frequency(omega, 0.1, 3, lattice)
    assert checked == 62
    which = [w for _, w, *_ in violations]
    assert (len(violations), which.count(1), which.count(2)) == (68, 62, 6)
    lhs = [x for _, w, x, _ in violations if w == 1]
    assert sum(map(math.isnan, lhs)) == 46
    L, [rhs] = _ell_table(lattice.box_modes(), 1, 3, [0.1])
    rows = np.concatenate([r for r, _ in diophantine._violations(
        L, [1e308] * 3, rhs)])
    assert rows.tolist() == list(range(len(L)))


@pytest.mark.parametrize("d,radius,budget", [(1, 2, 6), (2, 1, 4)])
def test_check_frequency_matches_reference_at_many_levels(d, radius, budget):
    # a draw rounded to twelfths lies on many resonances, so both signs
    # of l are reported, merged back into the order of every l
    lattice = HamParams(d=d, mode_radius=radius)
    omega = {m: round(v * 12) / 12
             for m, v in sample_frequency(lattice.box_modes(), 0).items()}
    got = check_frequency(omega, GAMMA, budget, lattice)
    assert got == _reference_check(omega, GAMMA, budget, d)
    levels = {sum(abs(v) for _, v in ell) for ell, which, *_ in got[0]
              if which == 2}
    assert len(levels) > 1


def test_check_frequency_rejects_foreign_dimension():
    with pytest.raises(ValidationError, match="dimension"):
        check_frequency({(0, 0): 0.1, (1, 0): 0.2}, GAMMA, BUDGET, LAT)


@pytest.mark.parametrize("text,match", [
    ('[1, 2]', "not a frequency document"),
    ('{"format": "nlskam-frequency"}', "'omega' list"),
    ('{"format": "nlskam-frequency", "version": 1, "omega": []}',
     "'omega' list is empty"),
    ('{"format": "nlskam-frequency", "omega": [[[0], "x"]]}',
     "finite number"),
    ('{"format": "nlskam-frequency", "omega": [[[0], true]]}',
     "finite number"),
    ('{"format": "nlskam-frequency", "omega": [[[0], NaN]]}',
     "finite number"),
    ('{"format": "nlskam-frequency", "omega": [[[0], Infinity]]}',
     "finite number"),
    ('{"format": "nlskam-frequency", "omega": [[[0], 1' + '0' * 400 + ']]}',
     "finite number"),
    ('{"format": "nlskam-frequency", "omega": [[[0.5], 0.1]]}',
     "list of integers"),
    ('{"format": "nlskam-frequency", "omega": [["0", 0.1]]}',
     "list of integers"),
    ('{"format": "nlskam-frequency", "omega": [[[0], 0.1, 2]]}',
     "pair"),
    ('{"format": "nlskam-frequency", "omega": [[[0], 0.1], [[0, 1], 0.2]]}',
     "dimension"),
    ('{"format": "nlskam-frequency", "omega": [[[0], 0.1], [[0], 0.2]]}',
     "twice"),
    ('{"format": "nlskam-frequency"', "not JSON"),
    ('{"format": "nlskam-frequency", "version": 2, "omega": [[[0], 0.1]]}',
     "unsupported version 2"),
])
def test_frequency_loads_rejects_malformed(text, match):
    with pytest.raises(ValidationError, match=match):
        frequency_loads(text)


def test_frequency_loads_checks_requested_dimension():
    text = frequency_dumps({(0,): 0.1, (1,): 0.2})
    assert frequency_loads(text, 1) == {(0,): 0.1, (1,): 0.2}
    with pytest.raises(ValidationError, match="dimension"):
        frequency_loads(text, 2)
