"""Frequency box, strong nonresonance conditions, sampling, measure.

Frequencies live in the product box Pi = prod_n [0, 1/<n>].  A frequency
is "strongly nonresonant" when |||sum_n l_n w_n||| (distance to the
nearest integer) clears two families of product lower bounds: the first
with factor gamma and per-mode decay 1/(1+|l_n|^3 <n>^(d+4)); the second,
active when the third-largest mode of l is strictly smaller than the
second-largest, with prefactor gamma^5/100 and a tenth-power product over
small modes with <n>^(d+7).
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .lattice import (
    _is_int,
    _mode_sort_key,
    _refuse_beyond_memory,
    angle_norm,
    check_box_modes,
    check_doc_version,
    check_mode,
    mode_from_json,
)

MEASURE_CSV_SCHEMA = (
    "gamma,trials,violations,fraction,stderr,ell_budget,mode_radius,seed")


def _check_gammas(gammas, ell_budget):
    """Refuse a gamma outside [0, 1) or an l-budget below 1."""
    for gamma in gammas:
        if not 0 <= gamma < 1:
            raise ValidationError(f"gamma must lie in [0,1), got {gamma}")
    if ell_budget < 1:
        raise ValidationError("ell_budget must be >= 1")


def _ell_dtype(budget):
    """The least signed int type that holds +-budget."""
    return np.min_scalar_type(-budget - 1)


def _level_rows(k, t):
    """Rows of level |l| = t over k modes: of the sum_j C(k, j) C(t - 1,
    j - 1) 2^j vectors with j nonzero entries, the half led by a + value."""
    return sum(math.comb(k, j) * math.comb(t - 1, j - 1) * 2 ** (j - 1)
               for j in range(1, min(k, t) + 1))


def enumerate_ells(modes, budget):
    """One l of each +-l pair with 0 < |l| <= budget, as an int matrix.

    Row i holds one l, its value at ``sorted(modes)[j]`` in column j, in
    the least signed int type that holds +-budget; ``len()`` is the
    stored row count.  This is the one place that drops -l: it keeps the
    l whose first nonzero value is positive, ordered by |l|, then
    lexicographically in the values over the sorted mode list.  The
    matrix is allocated once, and each level is written where it is kept.
    """
    n = len(modes)
    starts = [0, *accumulate(_level_rows(n, t) for t in range(1, budget + 1))]
    L = np.zeros((starts[-1], n), _ell_dtype(budget))
    # Level t over the modes from column c on fills the first rows of its
    # span: 0 before level t from c + 1 on (already there), then each v in
    # 1..t-1 before -(level t - v) reversed and level t - v, read back from
    # that level's first rows (negation reverses the order); then t.
    for c in reversed(range(n)):
        below = [_level_rows(n - 1 - c, t) for t in range(budget + 1)]
        for t in range(1, budget + 1):
            i = starts[t - 1] + below[t]
            # over the last mode every tail is empty: no row comes from it
            for v in range(1, t) if c < n - 1 else ():
                s, m = starts[t - v - 1], below[t - v]
                tail = L[s:s + m, c + 1:]
                L[i:i + 2 * m, c] = v
                np.negative(tail[::-1], out=L[i:i + m, c + 1:])
                L[i + m:i + 2 * m, c + 1:] = tail
                i += 2 * m
            L[i, c] = t
    return L


def ell_sorted_norms(ell):
    """Euclidean norms of the multiplicity-expanded modes of l, descending."""
    expanded = []
    for mode, v in ell:
        expanded.extend([mode] * abs(v))
    expanded.sort(key=_mode_sort_key)
    return [math.sqrt(sum(c * c for c in m)) for m in expanded]


def condition2_applies(ell) -> bool:
    """True when ||n3*(l)|| < ||n2*(l)|| (missing entries count as 0)."""
    norms = ell_sorted_norms(ell)
    if len(norms) < 2:
        return False
    n2 = norms[1]
    n3 = norms[2] if len(norms) >= 3 else 0.0
    return n3 < n2


def dioph_rhs(ell, gamma, d, which: int) -> float:
    """Right-hand side of condition 1 or 2 for l at ``gamma`` in Z^d."""
    if not ell:
        raise ValidationError("l must be nonzero")
    if which == 1:
        prod = 1.0
        for mode, v in ell:
            prod *= 1.0 / (1.0 + abs(v) ** 3 * angle_norm(mode) ** (d + 4))
        return gamma * prod
    if which == 2:
        norms = ell_sorted_norms(ell)
        n3 = norms[2] if len(norms) >= 3 else -1.0
        prod = 1.0
        for mode, v in ell:
            if math.sqrt(sum(c * c for c in mode)) <= n3:
                prod *= (1.0 / (1.0 + abs(v) ** 3
                                * angle_norm(mode) ** (d + 7))) ** 10
        return (gamma ** 5 / 100.0) * prod
    raise ValidationError(f"which must be 1 or 2, got {which}")


# Rows per block of every pass over the l-table, its bounds and its
# distances; bounds their temporaries at about a MB whatever the table
# size (1.4 MB over the 25 modes of d=2 R=2).
_ROW_BLOCK = 8192


@lru_cache(maxsize=8)
def _factors(modes, d, budget):
    """``_products``' per-mode tables, built once per sorted mode tuple."""
    powers = range(budget + 1)
    fac1 = [np.array([1.0 / (1.0 + a ** 3 * angle_norm(m) ** (d + 4))
                      for a in powers]) for m in modes]
    fac2 = [np.array([(1.0 / (1.0 + a ** 3 * angle_norm(m) ** (d + 7)))
                      ** 10 for a in powers]) for m in modes]
    sq = [sum(c * c for c in m) for m in modes]
    levels = sorted(set(sq), reverse=True)
    return (fac1, fac2, [math.sqrt(q) for q in sq],
            [levels.index(q) for q in sq], np.sqrt(levels))


def _products(L, modes, d, budget):
    """(prod1, prod2, cond2) per row l of ``L``, over the sorted ``modes``.

    gamma * prod1[i] and (gamma^5 / 100) * prod2[i] equal ``dioph_rhs(l,
    gamma, d, 1)`` and ``dioph_rhs(l, gamma, d, 2)`` bit for bit, and
    cond2[i] equals ``condition2_applies(l)``: each product walks l's
    entries in mode order, as ``dioph_rhs`` does, with factors looked up
    by |l_n| <= budget (a zero entry multiplies by exactly 1.0).
    """
    fac1, fac2, norms, level_of, level_norm = _factors(tuple(modes), d,
                                                       budget)
    # ell_sorted_norms(l)[k] is the norm of the first level (distinct
    # mode norm, largest first) whose cumulative |l| count exceeds k
    A = np.abs(L)
    counts = np.zeros((len(A), len(level_norm)), dtype=np.int64)
    prod1 = np.ones(len(A))
    for j, f in enumerate(fac1):
        prod1 *= f[A[:, j]]
        counts[:, level_of[j]] += A[:, j]
    cum = np.cumsum(counts, axis=1)
    total = cum[:, -1]
    n2 = level_norm[np.argmax(cum >= 2, axis=1)]
    n3 = np.where(total >= 3, level_norm[np.argmax(cum >= 3, axis=1)], -1.0)
    prod2 = np.ones(len(A))
    for j, f in enumerate(fac2):
        prod2 *= np.where(norms[j] <= n3, f[A[:, j]], 1.0)
    return prod1, prod2, (total >= 2) & (np.maximum(n3, 0.0) < n2)


def _ell_table(modes, d, ell_budget, gammas):
    """(L, rhs): ``enumerate_ells``' matrix and one bound per l per gamma.

    ``modes`` must be sorted, as ``L``'s columns are.  ``rhs[k][i]`` is
    what |||<l, omega>||| must clear at l = row i and gamma =
    ``gammas[k]``: condition 1's side, or the larger side where condition
    2 applies.  It is formed per ``_ROW_BLOCK`` rows, in place.  The table
    drops -l; both conditions read l only through |l_n| and |||<l,
    omega>|||, which negation leaves unchanged bit for bit, so a row
    stands for -l too.  Raises CapacityError, before allocating anything,
    when the rows, counted per level as ``enumerate_ells`` lays them out,
    and their bounds would not fit in physical memory.
    """
    n = len(modes)
    rows = sum(_level_rows(n, t) for t in range(1, ell_budget + 1))
    _refuse_beyond_memory(
        f"l-table of {rows:,} rows",
        rows * (n * _ell_dtype(ell_budget).itemsize + 8 * len(gammas)))
    L = enumerate_ells(modes, ell_budget)
    rhs = [np.empty(len(L)) for _ in gammas]
    for i0 in range(0, len(L), _ROW_BLOCK):
        block = slice(i0, i0 + _ROW_BLOCK)
        prod1, prod2, cond2 = _products(L[block], modes, d, ell_budget)
        for gamma, r in zip(gammas, rhs):
            r1 = np.multiply(gamma, prod1, out=r[block])
            np.maximum(r1, (gamma ** 5 / 100.0) * prod2, out=r1, where=cond2)
    return L, rhs


def _ell_distances(L, w):
    """|||<l, omega>||| for every row l of the integer l-matrix ``L``.

    ``w`` holds omega's values in the column order of ``L``.  The sum runs
    column by column, as a left-to-right sum over the entries of l would,
    so a row's value does not depend on which other rows ``L`` holds.  A
    sum that overflows gives NaN, quietly: the callers count it as a
    violation.
    """
    x = np.zeros(len(L))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, wj in enumerate(w):
            x += L[:, j] * wj
        x -= np.rint(x)
    return np.abs(x, out=x)


def _violations(L, w, rhs):
    """(rows, lhs) per ``_ROW_BLOCK`` rows of ``L``, in row order.

    rows holds the indices of the block's rows whose distance
    ``_ell_distances(L, w)`` does not clear their bound in ``rhs`` (lies
    below it, or is NaN), and lhs those distances.  Only one block's
    distances are held at a time.
    """
    for i0 in range(0, len(L), _ROW_BLOCK):
        block = slice(i0, i0 + _ROW_BLOCK)
        lhs = _ell_distances(L[block], w)
        bad = np.flatnonzero(~(lhs >= rhs[block]))
        yield i0 + bad, lhs[bad]


def check_frequency(omega: dict, gamma, ell_budget, lattice):
    """Test both conditions at ``gamma`` over all l with |l| <= ell_budget.

    Every mode of ``omega`` must lie in the box of the
    :class:`~nlskam.hamiltonian.HamParams` ``lattice``.  Returns
    (violations, checked) where violations is a list of (ell, which, lhs,
    rhs) for every failed inequality, ordered by |l|, then by l's values
    in mode order and, per l, condition 1 before condition 2; checked
    counts every l.  The rows ``_violations`` finds below ``_ell_table``'s
    bound fail some condition; ``_products`` of those rows says which.
    The table drops -l, so a violating row is reported as l and as -l.  An
    empty ``omega`` is refused: it would pass having checked nothing.
    """
    _check_gammas([gamma], ell_budget)
    if not omega:
        raise ValidationError("frequency map is empty: nothing to check")
    check_box_modes(omega, lattice.d, lattice.mode_radius)
    modes = sorted(omega)
    L, (rhs,) = _ell_table(modes, lattice.d, ell_budget, [gamma])
    w = [float(omega[m]) for m in modes]
    rows, lhs = map(np.concatenate, zip(*_violations(L, w, rhs)))
    stored = L[rows]
    prod1, prod2, cond2 = _products(stored, modes, lattice.d, ell_budget)
    rhs1, rhs2 = gamma * prod1, (gamma ** 5 / 100.0) * prod2
    # a NaN distance clears nothing: it is reported under condition 1
    bad1, bad2 = ~(lhs >= rhs1), cond2 & (lhs < rhs2)
    signed = np.concatenate([stored, -stored])
    # by |l|, then by the values in mode order, as enumerate_ells orders l
    order = np.lexsort((*signed.T[::-1], np.abs(signed).sum(axis=1)))
    i, violations = order % len(rows), []
    ells = [tuple((m, v) for m, v in zip(modes, row) if v)
            for row in signed[order].tolist()]
    for ell, b1, b2, x, r1, r2 in zip(
            ells, *(a[i].tolist() for a in (bad1, bad2, lhs, rhs1, rhs2))):
        if b1:
            violations.append((ell, 1, x, r1))
        if b2:
            violations.append((ell, 2, x, r2))
    return violations, 2 * len(L)


def _mode_rng(seed, mode):
    return np.random.default_rng(
        (int(seed), *(int(c) + 2 ** 31 for c in mode)))


def sample_frequency(modes, seed) -> dict:
    """One frequency draw: omega_n uniform on [0, 1/<n>].

    The generator is keyed by (seed, n) so the draw at a mode does not
    depend on enumeration order.
    """
    out = {}
    for m in sorted(tuple(mm) for mm in modes):
        out[m] = float(_mode_rng(seed, m).uniform(0.0, 1.0 / angle_norm(m)))
    return out


def sample_strong_frequency(lattice, gamma, ell_budget, seed):
    """First strongly nonresonant draw from the first 1000 sub-seeds.

    Draws over the box of the HamParams ``lattice``; returns (omega, t)
    with t the index of the accepted sub-seed.  A draw is tested against
    ``_ell_table``'s bound at ``gamma`` by ``check_frequency``'s block
    walk, ``_violations``, and rejected at the first block holding a
    violation.  The table's one row per +-l pair has the distance and
    bound of both signs, so a draw is accepted exactly when it clears
    every l.
    """
    _check_gammas([gamma], ell_budget)
    modes = lattice.box_modes()
    L, (rhs,) = _ell_table(modes, lattice.d, ell_budget, [gamma])
    for t in range(1000):
        omega = sample_frequency(modes, (int(seed) << 20) + t)
        w = [omega[m] for m in modes]
        if not any(len(rows) for rows, _ in _violations(L, w, rhs)):
            return omega, t
    raise ValidationError(
        "no strongly nonresonant frequency found in 1000 tries")


def frequency_dumps(omega: dict) -> str:
    """JSON document for a frequency map; modes serialized as int lists."""
    entries = [[list(m), float(v)] for m, v in sorted(omega.items())]
    return json.dumps({"format": "nlskam-frequency", "version": 1,
                       "omega": entries}, indent=1)


def frequency_loads(text: str, d: int | None = None) -> dict:
    """Parse a frequency document; every mode must have dimension ``d``.

    Without ``d``, every mode must have the dimension of the first one.
    Raises ValidationError on any malformed document.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"frequency document is not JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != "nlskam-frequency":
        raise ValidationError("not a frequency document")
    check_doc_version(doc, "frequency document")
    entries = doc.get("omega")
    if not isinstance(entries, list):
        raise ValidationError("frequency document needs an 'omega' list")
    if not entries:
        raise ValidationError("frequency document's 'omega' list is empty")
    omega = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValidationError(
                f"omega entry {entry!r} is not a [mode, value] pair")
        m, v = entry
        mode = mode_from_json(m)
        try:
            val = float(v) if _is_int(v) or isinstance(v, float) else math.nan
        except OverflowError:           # an integer beyond float range
            val = math.inf
        if not math.isfinite(val):
            raise ValidationError(
                f"frequency at mode {m} is not a finite number: {v!r}")
        if d is None:
            d = len(mode)
        check_mode(mode, d)
        if mode in omega:
            raise ValidationError(f"mode {mode} appears twice")
        omega[mode] = val
    return omega


# Entries of one trials x l float64 block of the measure's product
# (512 kB, about an L2 cache); the block's row count follows from the
# table's width.
_MEASURE_BLOCK = 1 << 16


def _trial_blocks(draws, width):
    """``draws`` split into row blocks of about _MEASURE_BLOCK / width rows.

    No block has a single row unless ``draws`` has: a one-row product
    runs through BLAS gemv, whose sums can differ in the last bit from
    the gemm of the whole product.
    """
    rows = max(2, _MEASURE_BLOCK // max(1, width))
    return np.array_split(draws, max(1, len(draws) // rows))


def _resonant_draws(draws, L, rhs) -> np.ndarray:
    """Which rows of ``draws`` violate a bound of the l-matrix ``L``.

    Row k of the result flags the draws whose distance lies below
    ``rhs[k]``, one of ``_ell_table``'s bounds, at some l.  ``draws @ L.T``
    and its distance to the integers are formed once per block of rows,
    in place, so no trials x l matrix is held whole.  ``L`` holds one l
    of each +-l pair: the product's column for -l is the bitwise negative
    of l's, so its distance to the integers, and the flags, are the same.

    Each block is compared once, with ``top``, the pointwise largest
    bound.  A bound equal to ``top`` takes its flags from that comparison;
    any other bound is tested only at the entries that lie below ``top``.
    That is exact: rhs[k] <= top, so x < rhs[k] implies x < top, and a
    NaN distance lies below neither; so every flag is the one a test of
    the whole block against rhs[k] gives.
    """
    Lt = L.astype(float).T
    top = reduce(np.maximum, rhs)
    at_top = [k for k, r in enumerate(rhs) if np.array_equal(r, top)]
    under = [(k, r) for k, r in enumerate(rhs) if k not in at_top]
    bad = np.zeros((len(rhs), len(draws)), dtype=bool)
    i0 = 0
    for block in _trial_blocks(draws, Lt.shape[1]):
        x = block @ Lt
        x -= np.rint(x)
        np.abs(x, out=x)
        near = x < top
        bad[at_top, i0:i0 + len(block)] = near.any(axis=1)
        if under:
            flat = np.flatnonzero(near)
            rows, cols = np.divmod(flat, x.shape[1])
            xs = x.ravel()[flat]
            for k, r in under:
                bad[k, i0 + rows[xs < r[cols]]] = True
        i0 += len(block)
    return bad


def resonance_measure(gammas: Sequence[float], trials: int, seed, *,
                      lattice, ell_budget):
    """Monte Carlo estimate of the resonant-set measure, per gamma.

    Every gamma is estimated from the same ``trials`` draws over the box
    of the :class:`~nlskam.hamiltonian.HamParams` ``lattice``, against
    every l with |l| <= ell_budget.  Returns one (fraction, stderr,
    violations) per gamma, in order, where fraction is the share of
    sampled frequencies violating at least one condition.
    """
    _check_gammas(gammas, ell_budget)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if not gammas:
        raise ValidationError("resonance_measure needs at least one gamma")
    modes = lattice.box_modes()
    # the table, or its refusal, before the trials x modes draws
    L, rhs = _ell_table(modes, lattice.d, ell_budget, gammas)
    # beside the table: the draws, one mode's uniform draws, the table's
    # float copy, and one bool flag per draw per gamma, written in place
    _refuse_beyond_memory(
        f"measure of {trials:,} draws of {len(modes):,}-mode frequencies",
        trials * (8 * len(modes) + 8 + len(gammas)) + L.nbytes
        + 8 * L.size + sum(r.nbytes for r in rhs))
    draws = np.empty((trials, len(modes)))
    for i, m in enumerate(modes):
        draws[:, i] = _mode_rng(seed, m).uniform(
            0.0, 1.0 / angle_norm(m), size=trials)
    bad = _resonant_draws(draws, L, rhs)
    out = []
    for violations in bad.sum(axis=1).tolist():
        fraction = violations / trials
        stderr = math.sqrt(fraction * (1.0 - fraction) / trials)
        out.append((fraction, stderr, violations))
    return out
