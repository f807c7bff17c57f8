"""Lattice modes, multi-indices, sorted systems and log-power weights.

Modes are points of Z^d stored as plain integer tuples.  A multi-index
(exponent vector over modes) is stored in a canonical immutable form: a
tuple of (mode, exponent) pairs, sorted lexicographically by mode, with
all exponents strictly positive.  Everything downstream (norms, brackets,
serialization) relies on that canonical form being unique.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

from .errors import CapacityError, DimensionMismatchError, ValidationError


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


def check_box_modes(modes, d, radius):
    """Refuse, in mode order, a mode of another dimension or off the box."""
    for m in sorted(modes):
        check_mode(m, d)
        if any(abs(c) > radius for c in m):
            raise ValidationError(
                f"mode {m} lies outside the box of radius {radius}")


def angle_norm(n) -> float:
    """max(1, ||n||)."""
    return max(1.0, math.sqrt(sum(c * c for c in n)))


def _refuse_beyond_memory(what, need):
    """Raise CapacityError when ``need`` bytes exceed physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise CapacityError(f"{what} needs {need:,} B, more than the "
                            f"{memory:,} B of physical memory")


@lru_cache(maxsize=8)
def box_modes(d: int, radius: int) -> tuple:
    """All modes of Z^d with every coordinate in [-radius, radius], sorted.

    Cached: equal arguments return the same tuple.  Raises CapacityError,
    before building anything, when the (2 radius + 1)^d modes exceed
    physical memory at 48 + 8 d B each: a d-tuple and its slot in the box.
    """
    n = (2 * radius + 1) ** d
    _refuse_beyond_memory(f"box of {n:,} modes", n * (48 + 8 * d))
    rng = range(-radius, radius + 1)
    modes = [()]
    for _ in range(d):
        modes = [m + (c,) for m in modes for c in rng]
    return tuple(sorted(modes))


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


def mi_charge(m: tuple, d: int) -> tuple:
    """(mass, momentum) of multi-index m over Z^d: the sums of e and of
    e * mode over its entries, the momentum as a list of d ints."""
    mass, mom = 0, [0] * d
    for mode, e in m:
        mass += e
        for i, c in enumerate(mode):
            mom[i] += e * c
    return mass, mom


def conservation_check(k: tuple, k_bar: tuple):
    """Return (mass, momentum) conservation flags for the pair (k, k')."""
    d = max((len(mode) for mode, _ in k + k_bar), default=0)
    (mass, mom), (mass_bar, mom_bar) = mi_charge(k, d), mi_charge(k_bar, d)
    return mass == mass_bar, mom == mom_bar


def weighted_gap(a: tuple, k: tuple, k_bar: tuple, p) -> float:
    """Weighted gap S - 2*L1 - tail/2 of a momentum-conserving monomial.

    S is the multiplicity-weighted sum of the weights ``p.weight`` of the
    :class:`~nlskam.hamiltonian.HamParams` ``p``, L1 the weight of the
    largest mode, and the tail sums the weights of the third-largest mode
    onward.  Below floor_const = c*(sigma) (see HamParams) it can be < 0:
    q_42 qbar_21^2 at (sigma 2.5, floor 21) reads -2.7487.
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
