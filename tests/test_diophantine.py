import math
import tracemalloc

import numpy as np
import pytest

from nlskam import (
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
    _ell_table,
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


def test_enumerate_ells_count_and_order():
    modes = [(0,), (1,)]
    ells = enumerate_ells(modes, 2)
    # |l| <= 2 over 2 modes: l1-ball of radius 2 in Z^2 minus origin
    assert len(ells) == 13 - 1
    sizes = [sum(abs(v) for _, v in ell) for ell in ells]
    assert sizes == sorted(sizes)
    assert len(set(ells)) == len(ells)


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
    assert checked == len(enumerate_ells(modes, 3))
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


def _dense_reference(draws, table, gammas):
    """Each gamma's flags from the whole trials x l product at once."""
    Lt = table.ells.matrix.astype(float).T
    x = draws @ Lt
    lhs = np.abs(x - np.rint(x))
    return x, [(lhs < table.rhs(g)[None, :]).any(axis=1) for g in gammas]


def _box_table(d, ell_budget, mode_radius):
    modes = HamParams(d=d, mode_radius=mode_radius).box_modes()
    return modes, _ell_table(modes, d, ell_budget)


@pytest.mark.parametrize("block_rows", [7, 1])
@pytest.mark.parametrize("trials", [1, 8, 15, 50])
def test_resonant_draws_blocked_equals_full(monkeypatch, block_rows, trials):
    # trials = 1 mod 7: the short tail must not become a one-row product
    gammas = (0.1, 0.02, 0.3)
    modes, table = _box_table(d=1, ell_budget=4, mode_radius=2)
    width = len(table.ells)
    monkeypatch.setattr(diophantine, "_MEASURE_BLOCK", block_rows * width)
    draws = np.random.default_rng(trials).uniform(
        0.0, 1.0, (trials, len(modes)))
    Lt = table.ells.matrix.astype(float).T
    x, full = _dense_reference(draws, table, gammas)
    blocks = _trial_blocks(draws, width)
    assert min(len(b) for b in blocks) >= min(2, trials)
    assert np.concatenate([b @ Lt for b in blocks]).tobytes() == x.tobytes()
    got = _resonant_draws(draws, table, gammas)
    assert got.shape == (len(gammas), trials)
    for row, ref in zip(got, full):
        assert np.array_equal(row, ref)
    if trials == 50:
        assert 0 < full[0].sum() < trials


@pytest.mark.parametrize("kw,trials,block_rows", [
    # the measure workload's table: 10,000 = 588 * 17 + 4 rows, so the
    # 4-row remainder spreads as one extra row over four blocks
    (dict(d=1, ell_budget=6, mode_radius=2), 10_000, 17),
    # a table wider than a block: 2-row blocks, one of them with the odd
    # row
    (dict(d=2, ell_budget=5, mode_radius=1), 41, 2),
])
def test_resonant_draws_at_the_default_block(kw, trials, block_rows):
    gammas = (0.01, 0.05, 0.1)
    modes, table = _box_table(**kw)
    width = len(table.ells)
    draws = np.empty((trials, len(modes)))
    for i, m in enumerate(modes):
        draws[:, i] = diophantine._mode_rng(1, m).uniform(
            0.0, 1.0 / angle_norm(m), size=trials)
    blocks = _trial_blocks(draws, width)
    assert {len(b) for b in blocks} == {block_rows, block_rows + 1}
    Lt = table.ells.matrix.astype(float).T
    x, full = _dense_reference(draws, table, gammas)
    assert np.concatenate([b @ Lt for b in blocks]).tobytes() == x.tobytes()
    got = _resonant_draws(draws, table, gammas)
    for row, ref in zip(got, full):
        assert row.tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("d,radius,budget,gammas", [
    (1, 2, 6, (0.01, 0.1, 0.3)),
    (1, 0, 4, (0.2,)),
    (2, 1, 4, (0.01, 0.1, 0.3)),
    (3, 1, 3, (0.3,)),
])
def test_ell_table_matches_reference_bit_for_bit(d, radius, budget, gammas):
    modes, table = _box_table(d=d, ell_budget=budget, mode_radius=radius)
    ells = _reference_ells(modes, budget)
    assert list(table.ells) == ells
    assert table.ells.matrix.dtype == np.int8
    assert np.array_equal(table.ells.matrix, _reference_matrix(ells, modes))
    assert table.cond2.tolist() == [condition2_applies(e) for e in ells]
    for gamma in gammas:
        rhs1, rhs2 = table.bounds(gamma)
        assert _bits(rhs1) == _bits([dioph_rhs(e, gamma, d, 1) for e in ells])
        assert _bits(rhs2) == _bits([dioph_rhs(e, gamma, d, 2) for e in ells])
        assert _bits(table.rhs(gamma)) == _bits(
            _reference_rhs(ells, gamma, d))


@pytest.fixture(scope="module")
def d2_reference():
    # the 9-mode, |l| <= 6 table a d=2 R=1 kam-run samples against
    lattice = HamParams(d=2, mode_radius=1)
    ells = _reference_ells(lattice.box_modes(), 6)
    return lattice, ells, _reference_rhs(ells, 0.01, 2)


def test_ell_table_d2_sampler_config_bit_for_bit(d2_reference):
    lattice, ells, rhs = d2_reference
    table = _ell_table(lattice.box_modes(), lattice.d, 6)
    assert len(table.ells) == len(ells) == 75516
    assert list(table.ells) == ells
    assert _bits(table.rhs(0.01)) == _bits(rhs)


@pytest.mark.parametrize("budget,dtype", [
    (127, np.int8), (128, np.int16), (130, np.int16)])
def test_ell_matrix_dtype_holds_budget(budget, dtype):
    table = _ell_table([(0,)], 1, budget)
    L = table.ells.matrix
    assert L.dtype == dtype
    assert L[:, 0].tolist() == [v for s in range(1, budget + 1)
                                for v in (-s, s)]
    ells = _reference_ells([(0,)], budget)
    assert list(table.ells) == ells
    assert _bits(table.rhs(0.1)) == _bits(_reference_rhs(ells, 0.1, 1))


def test_ell_rows_view():
    ells = enumerate_ells([(1,), (0,)], 2)
    ref = _reference_ells([(0,), (1,)], 2)
    assert len(ells) == len(ref)
    assert [ells[i] for i in range(len(ells))] == ref
    assert ells[-1] == ref[-1]
    assert list(ells)[2:5] == ref[2:5]
    assert ((((0,), 1), ((1,), 1)) in ells)


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


def test_check_frequency_matches_reference():
    modes = LAT.box_modes()
    resonant = {m: 0.25 * (i % 3) for i, m in enumerate(modes)}
    drawn = sample_frequency(modes, 5)
    passing, _ = sample_strong_frequency(LAT, GAMMA, 4, seed=7)
    for omega in (resonant, drawn, passing):
        got = check_frequency(omega, GAMMA, 4, LAT)
        want = _reference_check(omega, GAMMA, 4, LAT.d)
        assert got == want
        assert all(type(v) is int for ell, *_ in got[0] for _, v in ell)
    assert check_frequency(resonant, GAMMA, 4, LAT)[0]
    assert check_frequency(passing, GAMMA, 4, LAT)[0] == []


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
