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
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .lattice import (
    _is_int,
    _mode_sort_key,
    angle_norm,
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


class EllRows(Sequence):
    """The rows of an l-matrix, each read as an l tuple.

    ``matrix[i, j]`` is the value of row i at ``modes[j]``.  Row i reads as
    the tuple of (mode, value) pairs with nonzero value, in mode order.
    The rows are ordered by |l|, and ``levels`` holds one row slice per
    |l| = 1, 2, ...
    """

    def __init__(self, modes, matrix, levels):
        self.modes = modes
        self.matrix = matrix
        self.levels = levels

    def __len__(self):
        return len(self.matrix)

    def __getitem__(self, i):
        return self._ell(self.matrix[i].tolist())

    def __iter__(self):
        return map(self._ell, self.matrix.tolist())

    def _ell(self, row):
        return tuple((m, v) for m, v in zip(self.modes, row) if v)


def _ell_dtype(budget):
    """The smallest signed integer dtype that holds +-budget."""
    for dt in (np.int8, np.int16, np.int32):
        if budget <= np.iinfo(dt).max:
            return dt
    return np.int64


def enumerate_ells(modes, budget):
    """All signed integer vectors l != 0 with |l| <= budget, as EllRows.

    Ordered by |l| first, then lexicographically in the per-mode values
    over the sorted mode list.  Each l reads as a tuple of (mode, value)
    pairs with nonzero values only.
    """
    modes = sorted(tuple(m) for m in modes)
    dtype = _ell_dtype(budget)
    # sphere[t]: every vector over the last k modes with |v| == t, in
    # lexicographic order; grown one mode at a time by prepending each
    # value v in [-t, t] to the (t - |v|)-sphere of the modes after it.
    sphere = [np.zeros((1 if t == 0 else 0, 0), dtype)
              for t in range(budget + 1)]
    for k in range(1, len(modes) + 1):
        nxt = []
        for t in range(budget + 1):
            blocks = []
            for v in range(-t, t + 1):
                tail = sphere[t - abs(v)]
                block = np.empty((len(tail), k), dtype)
                block[:, 0] = v
                block[:, 1:] = tail
                blocks.append(block)
            nxt.append(np.concatenate(blocks))
        sphere = nxt
    ends = np.cumsum([0] + [len(s) for s in sphere[1:]]).tolist()
    levels = tuple(map(slice, ends[:-1], ends[1:]))
    return EllRows(modes, np.concatenate(sphere[1:]), levels)


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


# Rows per block of the l-table's right-hand-side pass; bounds its float
# temporaries at a few hundred kB whatever the table size.
_ROW_BLOCK = 8192


class EllTable(NamedTuple):
    """Every l with 0 < |l| <= ell_budget and its gamma-free products.

    Row i of ``ells.matrix`` is l.  Entry i of the two arrays of
    ``bounds(gamma)`` equals ``dioph_rhs(l, gamma, d, 1)`` and
    ``dioph_rhs(l, gamma, d, 2)`` bit for bit, and ``cond2[i]`` equals
    ``condition2_applies(l)``.
    """

    ells: EllRows
    prod1: np.ndarray
    prod2: np.ndarray
    cond2: np.ndarray

    def bounds(self, gamma):
        """The right-hand sides of conditions 1 and 2 at ``gamma``, per l."""
        return gamma * self.prod1, (gamma ** 5 / 100.0) * self.prod2

    def rhs(self, gamma):
        """The bound a strongly nonresonant frequency must clear per l."""
        rhs1, rhs2 = self.bounds(gamma)
        return np.where(self.cond2, np.maximum(rhs1, rhs2), rhs1)


def _ell_table(modes, d, ell_budget) -> EllTable:
    """The l-table over ``modes``, with columns in sorted-mode order.

    The products depend only on l, so they are computed once and reused
    across candidate draws and values of gamma.  Each product runs column
    by column in sorted-mode order, the order in which ``dioph_rhs`` walks
    the nonzero entries of l; a zero entry multiplies by exactly 1.0.
    Per-mode factors are looked up by |l_n| in tables built with the
    scalar expressions of ``dioph_rhs``.
    """
    ells = enumerate_ells(modes, ell_budget)
    L, modes = ells.matrix, ells.modes
    powers = range(ell_budget + 1)
    fac1 = [np.array([1.0 / (1.0 + a ** 3 * angle_norm(m) ** (d + 4))
                      for a in powers]) for m in modes]
    fac2 = [np.array([(1.0 / (1.0 + a ** 3 * angle_norm(m) ** (d + 7)))
                      ** 10 for a in powers]) for m in modes]
    norms = [math.sqrt(sum(c * c for c in m)) for m in modes]
    # Distinct mode norms, largest first: ell_sorted_norms(l)[k] is the
    # norm of the first level whose cumulative |l| count exceeds k.
    sq = [sum(c * c for c in m) for m in modes]
    levels = sorted(set(sq), reverse=True)
    level_of = [levels.index(q) for q in sq]
    level_norm = np.array([math.sqrt(q) for q in levels])

    n = len(L)
    prod1, prod2 = np.empty(n), np.empty(n)
    cond2 = np.empty(n, dtype=bool)
    for i0 in range(0, n, _ROW_BLOCK):
        A = np.abs(L[i0:i0 + _ROW_BLOCK])
        counts = np.zeros((len(A), len(levels)), dtype=np.int64)
        p1 = np.ones(len(A))
        for j, f in enumerate(fac1):
            p1 *= f[A[:, j]]
            counts[:, level_of[j]] += A[:, j]
        cum = np.cumsum(counts, axis=1)
        total = cum[:, -1]
        n2 = level_norm[np.argmax(cum >= 2, axis=1)]
        n3 = np.where(total >= 3, level_norm[np.argmax(cum >= 3, axis=1)],
                      -1.0)
        p2 = np.ones(len(A))
        for j, f in enumerate(fac2):
            p2 *= np.where(norms[j] <= n3, f[A[:, j]], 1.0)
        block = slice(i0, i0 + len(A))
        prod1[block], prod2[block] = p1, p2
        cond2[block] = (total >= 2) & (np.maximum(n3, 0.0) < n2)
    return EllTable(ells, prod1, prod2, cond2)


def _ell_distances(L, w):
    """|||<l, omega>||| for every row l of the integer l-matrix ``L``.

    ``w`` holds omega's values in the column order of ``L``.  The sum runs
    column by column, as a left-to-right sum over the entries of l would,
    so a row's value does not depend on which other rows ``L`` holds.
    """
    x = np.zeros(len(L))
    for j, wj in enumerate(w):
        x += L[:, j] * wj
    return np.abs(x - np.rint(x))


def check_frequency(omega: dict, gamma, ell_budget, lattice):
    """Test both conditions at ``gamma`` over all l with |l| <= ell_budget.

    Every mode of ``omega`` must lie in the box of the
    :class:`~nlskam.hamiltonian.HamParams` ``lattice``.  Returns
    (violations, checked) where violations is a list of (ell, which, lhs,
    rhs) for every failed inequality, ordered by l and, per l, condition 1
    before condition 2.  An empty ``omega`` is refused: it would pass
    having checked nothing.
    """
    _check_gammas([gamma], ell_budget)
    if not omega:
        raise ValidationError("frequency map is empty: nothing to check")
    modes = sorted(omega)
    for m in modes:
        check_mode(m, lattice.d)
        if any(abs(c) > lattice.mode_radius for c in m):
            raise ValidationError(f"mode {m} lies outside the box of "
                                  f"radius {lattice.mode_radius}")
    table = _ell_table(modes, lattice.d, ell_budget)
    rhs1, rhs2 = table.bounds(gamma)
    lhs = _ell_distances(table.ells.matrix, [float(omega[m]) for m in modes])
    bad1 = lhs < rhs1
    bad2 = table.cond2 & (lhs < rhs2)
    violations = []
    for i in np.flatnonzero(bad1 | bad2).tolist():
        ell = table.ells[i]
        if bad1[i]:
            violations.append((ell, 1, float(lhs[i]), float(rhs1[i])))
        if bad2[i]:
            violations.append((ell, 2, float(lhs[i]), float(rhs2[i])))
    return violations, len(lhs)


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
    with t the index of the accepted sub-seed.  A draw is tested one |l|
    level at a time, with ``check_frequency``'s arithmetic, and rejected
    at the first level holding a violation.
    """
    _check_gammas([gamma], ell_budget)
    modes = lattice.box_modes()
    table = _ell_table(modes, lattice.d, ell_budget)
    rhs = table.rhs(gamma)
    L, levels = table.ells.matrix, table.ells.levels
    for t in range(1000):
        omega = sample_frequency(modes, (int(seed) << 20) + t)
        w = [omega[m] for m in table.ells.modes]
        if all((_ell_distances(L[rows], w) >= rhs[rows]).all()
               for rows in levels):
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


def _resonant_draws(draws, table, gammas) -> np.ndarray:
    """Which rows of ``draws`` violate a condition of ``table``, per gamma.

    Row k of the result flags the draws that violate some l at
    ``gammas[k]``.  ``draws @ L.T`` and its distance to the integers are
    formed once per block of rows, in place, and tested against every
    gamma's bound, so no trials x l matrix is held whole.
    """
    Lt = table.ells.matrix.astype(float).T
    rhs = [table.rhs(g) for g in gammas]
    bad = []
    for block in _trial_blocks(draws, Lt.shape[1]):
        x = block @ Lt
        x -= np.rint(x)
        np.abs(x, out=x)
        bad.append([(x < r).any(axis=1) for r in rhs])
    return np.concatenate(bad, axis=1)


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
    draws = np.empty((trials, len(modes)))
    for i, m in enumerate(modes):
        draws[:, i] = _mode_rng(seed, m).uniform(
            0.0, 1.0 / angle_norm(m), size=trials)
    table = _ell_table(modes, lattice.d, ell_budget)
    bad = _resonant_draws(draws, table, gammas)
    out = []
    for violations in bad.sum(axis=1).tolist():
        fraction = violations / trials
        stderr = math.sqrt(max(fraction * (1.0 - fraction), 1e-300) / trials)
        out.append((fraction, stderr, violations))
    return out
