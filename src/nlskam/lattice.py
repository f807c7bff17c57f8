"""Lattice modes, multi-indices, sorted systems and log-power weights.

Modes are points of Z^d stored as plain integer tuples.  A multi-index
(exponent vector over modes) is stored in a canonical immutable form: a
tuple of (mode, exponent) pairs, sorted lexicographically by mode, with
all exponents strictly positive.  Everything downstream (norms, brackets,
serialization) relies on that canonical form being unique.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DimensionMismatchError, ValidationError

# Multi-index representing the empty exponent vector.
MI_ZERO = ()


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def mode_from_json(m, where="") -> tuple:
    """A mode read from a JSON document (a list of integers) as a tuple."""
    if not (isinstance(m, list) and all(_is_int(c) for c in m)):
        raise ValidationError(f"{where}mode {m!r} is not a list of integers")
    return tuple(m)


def check_doc_version(doc, what):
    """Refuse a document whose "version" is not the integer 1; a document
    without one is read as version 1."""
    if "version" in doc and not (_is_int(doc["version"])
                                 and doc["version"] == 1):
        raise ValidationError(
            f"{what} has unsupported version {doc['version']!r}")


def check_mode(n, d):
    if len(n) != d:
        raise DimensionMismatchError(
            f"mode {n!r} has dimension {len(n)}, expected {d}")


@lru_cache(maxsize=None)
def _weight_cached(n, sigma, floor_const):
    euclid = math.sqrt(sum(c * c for c in n))
    return math.log(max(floor_const, euclid)) ** sigma


def angle_norm(n) -> float:
    """max(1, ||n||)."""
    return max(1.0, math.sqrt(sum(c * c for c in n)))


@lru_cache(maxsize=8)
def _box_enumeration(d: int, radius: int) -> tuple:
    rng = range(-radius, radius + 1)
    modes = [()]
    for _ in range(d):
        modes = [m + (c,) for m in modes for c in rng]
    return tuple(sorted(modes))


def box_modes(d: int, radius: int) -> list:
    """All modes of Z^d with every coordinate in [-radius, radius], sorted.

    Each call returns a fresh list copied from a cached enumeration, so a
    caller may mutate or keep the list without affecting later calls.
    """
    return list(_box_enumeration(d, radius))


# ---------------------------------------------------------------------------
# Multi-index helpers (canonical tuple-of-pairs form)
# ---------------------------------------------------------------------------

def mi(entries) -> tuple:
    """Build a canonical multi-index from (mode, exponent) pairs.

    Zero exponents are dropped; negative exponents are rejected.
    """
    acc = {}
    for mode, e in entries:
        mode = tuple(mode)
        acc[mode] = acc.get(mode, 0) + e
    for mode, e in acc.items():
        if e < 0:
            raise ValidationError(f"negative exponent {e} at mode {mode}")
    return tuple(sorted((m, e) for m, e in acc.items() if e > 0))


def mi_get(m: tuple, mode) -> int:
    for mm, e in m:
        if mm == mode:
            return e
    return 0


def mi_degree(m: tuple) -> int:
    return sum(e for _, e in m)


def mi_signed(pos: tuple, neg: tuple) -> dict:
    """Combine a (positive, negative) multi-index pair into a signed map."""
    acc = {}
    for mode, e in pos:
        acc[mode] = acc.get(mode, 0) + e
    for mode, e in neg:
        acc[mode] = acc.get(mode, 0) - e
    return {m: v for m, v in acc.items() if v != 0}


# ---------------------------------------------------------------------------
# Sorted systems and conservation laws
# ---------------------------------------------------------------------------

def _mode_sort_key(mode):
    # Descending Euclidean norm; ties broken by ascending lexicographic
    # order on coordinates so that equal-norm runs are deterministic.
    return (-sum(c * c for c in mode), mode)


def sorted_system(a: tuple, k: tuple, k_bar: tuple, jmodes=()) -> tuple:
    """Multiplicity-expanded mode list of a monomial, largest norm first.

    Mode n appears 2*a_n + k_n + k'_n times, plus twice per occurrence in
    ``jmodes`` (a J-factor at m counts like an extra action exponent).
    """
    if len(jmodes) > 2:
        raise ValidationError("at most two J-factors per term")
    counts = {}
    for m, e in a:
        counts[m] = counts.get(m, 0) + 2 * e
    for src in (k, k_bar):
        for m, e in src:
            counts[m] = counts.get(m, 0) + e
    for m in jmodes:
        m = tuple(m)
        counts[m] = counts.get(m, 0) + 2
    out = []
    for m in sorted(counts, key=_mode_sort_key):
        out.extend([m] * counts[m])
    return tuple(out)


def conservation_check(k: tuple, k_bar: tuple):
    """Return (mass, momentum) conservation flags for the pair (k, k')."""
    mass, mom = 0, {}
    for sign, src in ((1, k), (-1, k_bar)):
        for mode, e in src:
            mass += sign * e
            for i, c in enumerate(mode):
                mom[i] = mom.get(i, 0) + sign * e * c
    return mass == 0, not any(mom.values())


def weighted_gap(a: tuple, k: tuple, k_bar: tuple, p) -> float:
    """Weighted gap S - 2*L1 - tail/2 of a momentum-conserving monomial.

    S is the multiplicity-weighted sum of the weights ``p.weight`` of the
    :class:`~nlskam.hamiltonian.HamParams` ``p``, L1 the weight of the
    largest mode, and the tail sums the weights of the third-largest mode
    onward.  Momentum conservation guarantees the value is >= 0.
    """
    _, mom = conservation_check(k, k_bar)
    if not mom:
        raise ValidationError(
            "gap inequality requires momentum conservation")
    system = sorted_system(a, k, k_bar)
    if not system:
        return 0.0
    ws = [p.weight(m) for m in system]
    return sum(ws) - 2.0 * ws[0] - 0.5 * sum(ws[2:])
