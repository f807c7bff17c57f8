"""Sparse Hamiltonians on the truncated lattice.

A Hamiltonian is a finite sum of monomials

    c * prod_n I_n(0)^{a_n} * prod_n q_n^{k_n} * prod_n qbar_n^{k'_n} * prod J_m

where I_n(0) = e^{-2 r w(n)} are the frozen initial actions (w the
log-power weight), and J_m = |q_m|^2 - I_m(0) is the action deviation.
Terms are stored in a dict keyed by the canonical tuple (a, k, k_bar, j)
with complex coefficients; at most two J-factors per term are permitted.

Two canonical representations are used.  ``expanded`` has no J-factors and
keeps every |q_n|^2 pair inside (k, k_bar); ``j_collected`` regroups pairs
as I_n(0) + J_n up to total J-degree 2, leaving excess pairs in place.
Both carry the same coefficients after expansion.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .errors import CapacityError, DivergenceRiskError, ValidationError
from .lattice import (
    LatticeParams,
    MI_ZERO,
    _mode_sort_key,
    _weight_cached,
    box_modes,
    mi,
    mi_add,
    mi_degree,
    mi_get,
    sorted_system,
)

COEFF_FLOOR = 1e-300


@dataclass(frozen=True)
class HamParams:
    """Global parameters shared by every term of a Hamiltonian."""

    d: int
    sigma: float
    r: float
    floor_const: float = 1024.0
    degree_cap: int = 16
    mode_radius: int = 2

    def __post_init__(self):
        if not self.r >= 1:
            raise ValidationError(f"r must be >= 1, got {self.r}")
        # delegate sigma / floor validation
        LatticeParams(self.d, self.sigma, self.floor_const)

    @property
    def lattice(self) -> LatticeParams:
        return LatticeParams(self.d, self.sigma, self.floor_const)

    def weight(self, mode) -> float:
        return _weight_cached(tuple(mode), self.sigma, self.floor_const)

    def action0(self, mode) -> float:
        """Frozen initial action I_n(0) = exp(-2 r w(n))."""
        return math.exp(-2.0 * self.r * self.weight(mode))

    def box_modes(self):
        """All modes of the truncation box, in lexicographic order."""
        return box_modes(self.d, self.mode_radius)


def term_degree(key) -> int:
    a, k, kb, j = key
    return 2 * mi_degree(a) + mi_degree(k) + mi_degree(kb) + 2 * len(j)


def _check_key(key, params):
    a, k, kb, j = key
    if len(j) > 2:
        raise ValidationError("at most two J-factors per term")
    rad = params.mode_radius
    for src in (a, k, kb):
        for mode, _ in src:
            if len(mode) != params.d:
                raise ValidationError(f"mode {mode} has wrong dimension")
            if any(abs(c) > rad for c in mode):
                raise ValidationError(f"mode {mode} outside radius {rad}")
    for mode in j:
        if len(mode) != params.d or any(abs(c) > rad for c in mode):
            raise ValidationError(f"J-mode {mode} outside radius {rad}")
    if term_degree(key) > params.degree_cap:
        raise CapacityError(
            f"term degree {term_degree(key)} exceeds cap {params.degree_cap}")


class Hamiltonian:
    """Immutable sparse Hamiltonian over the truncated mode set.

    Parameters
    ----------
    params : HamParams
        Lattice and truncation parameters shared by all terms.
    terms : dict, optional
        Map from (a, k, k_bar, j) keys to complex coefficients.  Keys must
        be canonical (see :func:`nlskam.lattice.mi`); coefficients with
        magnitude below 1e-300 are dropped.
    error_budget : float
        Accumulated star-norm mass removed by pruning, carried along so
        norm reports stay honest.
    """

    __slots__ = ("params", "terms", "error_budget", "_expanded")

    def __init__(self, params: HamParams, terms=None, error_budget=0.0,
                 validate=True):
        self.params = params
        clean = {}
        if terms:
            for key, c in terms.items():
                if validate and not cmath.isfinite(c):
                    raise ValidationError(
                        f"non-finite coefficient {c} at term {key}")
                if abs(c) < COEFF_FLOOR:
                    continue
                if validate:
                    _check_key(key, params)
                clean[key] = complex(c)
        self.terms = clean
        self.error_budget = float(error_budget)
        self._expanded = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def from_terms(cls, params, items, error_budget=0.0):
        """Build from an iterable of (a, k, k_bar, j, coeff) tuples."""
        acc = {}
        for a, k, kb, j, c in items:
            key = (mi(a), mi(k), mi(kb), tuple(sorted(tuple(m) for m in j)))
            acc[key] = acc.get(key, 0j) + c
        return cls(params, acc, error_budget)

    @classmethod
    def monomial(cls, params, a=(), k=(), k_bar=(), j=(), coeff=1.0):
        return cls.from_terms(params, [(a, k, k_bar, j, coeff)])

    # -- basics ------------------------------------------------------------

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def is_zero(self):
        return not self.terms

    def degree(self) -> int:
        return max((term_degree(key) for key in self.terms), default=0)

    def _assert_compatible(self, other):
        if self.params != other.params:
            raise ValidationError("Hamiltonian parameter mismatch")

    def __add__(self, other):
        return linear_combine(1.0, self, 1.0, other)

    def __sub__(self, other):
        return linear_combine(1.0, self, -1.0, other)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, c):
        return Hamiltonian(
            self.params, {k: c * v for k, v in self.terms.items()},
            self.error_budget, validate=False)

    def __mul__(self, other):
        if isinstance(other, Hamiltonian):
            return multiply(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def check_reality(self) -> float:
        """Max deviation from coeff(a,k,k') = conj(coeff(a,k',k))."""
        worst = 0.0
        for (a, k, kb, j), c in self.terms.items():
            mirror = self.terms.get((a, kb, k, j), 0j)
            worst = max(worst, abs(c - mirror.conjugate()))
        return worst

    # -- canonical forms ---------------------------------------------------

    def expanded(self) -> "Hamiltonian":
        """Replace every J_m by q_m qbar_m - I_m(0); cached."""
        if self._expanded is None:
            if all(not key[3] for key in self.terms):
                self._expanded = self
            else:
                acc = {}
                for key, c in self.terms.items():
                    for ekey, ec in _expand_term(key, c):
                        acc[ekey] = acc.get(ekey, 0j) + ec
                self._expanded = Hamiltonian(
                    self.params, acc, self.error_budget, validate=False)
        return self._expanded

    def collected(self) -> "Hamiltonian":
        """Regroup |q_n|^2 pairs as I_n(0) + J_n, J-degree capped at 2."""
        acc = {}
        for key, c in self.expanded().terms.items():
            a, k, kb, _ = key
            for ckey, cc in _collect_term(a, k, kb, c, cap=2):
                acc[ckey] = acc.get(ckey, 0j) + cc
        return Hamiltonian(self.params, acc, self.error_budget,
                           validate=False)

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        p = self.params
        terms = []
        for key in sorted(self.terms):
            a, k, kb, j = key
            c = self.terms[key]
            terms.append({
                "a": [[list(m), e] for m, e in a],
                "k": [[list(m), e] for m, e in k],
                "k_bar": [[list(m), e] for m, e in kb],
                "j": [list(m) for m in j],
                "re": c.real,
                "im": c.imag,
            })
        return {
            "format": "nlskam-hamiltonian",
            "version": 1,
            "d": p.d,
            "sigma": p.sigma,
            "r": p.r,
            "floor_const": p.floor_const,
            "degree_cap": p.degree_cap,
            "mode_radius": p.mode_radius,
            "terms": terms,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_dict(cls, doc) -> "Hamiltonian":
        if doc.get("format") != "nlskam-hamiltonian":
            raise ValidationError("not a Hamiltonian document")
        params = HamParams(
            d=int(doc["d"]), sigma=float(doc["sigma"]), r=float(doc["r"]),
            floor_const=float(doc["floor_const"]),
            degree_cap=int(doc["degree_cap"]),
            mode_radius=int(doc["mode_radius"]))
        items = []
        for t in doc["terms"]:
            items.append((
                [(tuple(m), e) for m, e in t["a"]],
                [(tuple(m), e) for m, e in t["k"]],
                [(tuple(m), e) for m, e in t["k_bar"]],
                [tuple(m) for m in t["j"]],
                complex(t["re"], t["im"]),
            ))
        return cls.from_terms(params, items)

    @classmethod
    def loads(cls, text) -> "Hamiltonian":
        return cls.from_dict(json.loads(text))


def canonicalize(H: Hamiltonian, target: str) -> Hamiltonian:
    """Convert to ``expanded`` or ``j_collected`` form."""
    if target == "expanded":
        return H.expanded()
    if target == "j_collected":
        return H.collected()
    raise ValidationError(f"unknown representation {target!r}")


def _expand_term(key, coeff):
    """Expand J-factors of one term into pure (a, k, k_bar) terms."""
    a, k, kb, j = key
    out = [(a, k, kb, coeff)]
    for m in j:
        nxt = []
        for aa, kk, kkb, c in out:
            nxt.append((aa, mi_add(kk, ((m, 1),)), mi_add(kkb, ((m, 1),)), c))
            nxt.append((mi_add(aa, ((m, 1),)), kk, kkb, -c))
        out = nxt
    return [((aa, kk, kkb, ()), c) for aa, kk, kkb, c in out]


def _collect_term(a, k, kb, coeff, cap=2, pre_j=()):
    """Regroup |q_n|^2 pairs of an expanded term, total J-degree <= cap.

    Processes overlap modes in descending-norm order.  Per mode with b
    pairs the exact identities used are (X = I(0) + J):

        cap 2:  X^b = I^b + b J I^(b-1) + sum_s (s+1) I^s J^2 X^(b-2-s)
        cap 1:  X^b = I^b + J sum_j I^j X^(b-1-j)
        cap 0:  X^b left in place.

    X-powers remain as |q|^2 pairs inside (k, k_bar), so every output term
    with J-degree < 2 has disjoint (k, k_bar) supports.
    """
    overlap = sorted(
        (m for m, _ in k if mi_get(kb, m) >= 1 and mi_get(k, m) >= 1),
        key=_mode_sort_key)
    kd = dict(k)
    kbd = dict(kb)
    results = []

    def emit(a_acc, j_acc, removed, c):
        nk = mi(tuple((m, e - removed.get(m, 0)) for m, e in kd.items()))
        nkb = mi(tuple((m, e - removed.get(m, 0)) for m, e in kbd.items()))
        key = (mi_add(a, mi(a_acc)), nk, nkb,
               tuple(sorted(pre_j + tuple(j_acc))))
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
        # I^b branch
        rec(idx + 1, cap_left, a_acc + [(m, b)], j_acc,
            {**removed, m: b}, c)
        if cap_left >= 2:
            # b * J * I^(b-1)
            rec(idx + 1, cap_left - 1, a_acc + [(m, b - 1)], j_acc + [m],
                {**removed, m: b}, b * c)
            # (s+1) * I^s * J^2 * X^(b-2-s)
            for s in range(b - 1):
                rec(idx + 1, cap_left - 2, a_acc + [(m, s)],
                    j_acc + [m, m], {**removed, m: s + 2}, (s + 1) * c)
        else:
            # J * I^jp * X^(b-1-jp)
            for jp in range(b):
                rec(idx + 1, cap_left - 1, a_acc + [(m, jp)], j_acc + [m],
                    {**removed, m: jp + 1}, c)

    rec(0, cap, [], [], {}, coeff)
    return results


# ---------------------------------------------------------------------------
# Linear algebra, products, brackets
# ---------------------------------------------------------------------------

def linear_combine(c1, H1: Hamiltonian, c2, H2: Hamiltonian) -> Hamiltonian:
    """Termwise c1*H1 + c2*H2."""
    H1._assert_compatible(H2)
    acc = {k: c1 * v for k, v in H1.terms.items()}
    for k, v in H2.terms.items():
        acc[k] = acc.get(k, 0j) + c2 * v
    return Hamiltonian(H1.params, acc,
                       H1.error_budget + H2.error_budget, validate=False)


def multiply(H1: Hamiltonian, H2: Hamiltonian) -> Hamiltonian:
    """Product of two Hamiltonians; J-lists concatenate per term pair.

    A pairwise product whose J-list would exceed two factors is expanded
    on the spot so the class invariant survives.
    """
    H1._assert_compatible(H2)
    cap = H1.params.degree_cap
    if H1.terms and H2.terms and H1.degree() + H2.degree() > cap:
        raise CapacityError(f"product degree exceeds cap {cap}")
    acc = {}
    for (a1, k1, kb1, j1), c1 in H1.terms.items():
        for (a2, k2, kb2, j2), c2 in H2.terms.items():
            key = (mi_add(a1, a2), mi_add(k1, k2), mi_add(kb1, kb2),
                   tuple(sorted(j1 + j2)))
            c = c1 * c2
            if len(key[3]) > 2:
                for ekey, ec in _expand_term(key, c):
                    acc[ekey] = acc.get(ekey, 0j) + ec
            else:
                acc[key] = acc.get(key, 0j) + c
    return Hamiltonian(H1.params, acc,
                       H1.error_budget + H2.error_budget, validate=False)


def _mi_dec(m: tuple, mode) -> tuple:
    """Canonical multi-index m with the exponent at ``mode`` (>= 1) less 1."""
    for i, (mm, e) in enumerate(m):
        if mm == mode:
            if e == 1:
                return m[:i] + m[i + 1:]
            return m[:i] + ((mm, e - 1),) + m[i + 1:]


def poisson_bracket(H1: Hamiltonian, H2: Hamiltonian) -> Hamiltonian:
    """Canonical bracket on expanded forms.

    On monomial pairs the coefficient rule is
    sqrt(-1) * sum_j (k_j K'_j - k'_j K_j) with exponents merged as
    a+A, k+K-e_j, k'+K'-e_j.

    A pair contributes when some common mode j has a nonzero factor; its
    output degree is d1 + d2 - 2.  Before accumulating anything, a
    capacity probe walks only the pairs whose degree sum exceeds the cap,
    in the main loop's order (H1 terms outer, H2 terms inner), and raises
    CapacityError on the first contributing one.  So the bracket raises
    exactly when a contributing pair is over the cap, names the degree
    of the first such pair, and builds no partial result.
    """
    H1._assert_compatible(H2)
    A = H1.expanded()
    cap = H1.params.degree_cap
    # Per-term data of the inner operand, computed once per call.  The
    # outer and inner supports are built by different expressions on
    # purpose: the iteration order of their intersection depends on how
    # each set was built, and it fixes the insertion order of the result.
    inner = []
    for (a2, k2, kb2, _), c2 in H2.expanded().terms.items():
        inner.append((a2, k2, kb2, dict(k2), dict(kb2),
                      {m for m, _ in k2} | {m for m, _ in kb2},
                      2 * mi_degree(a2) + mi_degree(k2) + mi_degree(kb2),
                      c2))
    # A nonempty common support needs d1, d2 >= 1, so only pairs with
    # d1 + d2 >= 2 can contribute.
    max_d2 = max((row[6] for row in inner), default=0)
    for a1, k1, kb1, _ in A.terms:
        d1 = 2 * mi_degree(a1) + mi_degree(k1) + mi_degree(kb1)
        if d1 + max_d2 - 2 <= cap:
            continue
        k1d, kb1d = dict(k1), dict(kb1)
        sup1 = set(k1d) | set(kb1d)
        for _, _, _, k2d, kb2d, sup2, d2, _ in inner:
            if d1 + d2 - 2 <= cap:
                continue
            for m in sup1 & sup2:
                if (k1d.get(m, 0) * kb2d.get(m, 0)
                        != kb1d.get(m, 0) * k2d.get(m, 0)):
                    raise CapacityError(
                        f"bracket degree {d1 + d2 - 2} exceeds cap {cap}")
    acc = {}
    for (a1, k1, kb1, _), c1 in A.terms.items():
        k1d, kb1d = dict(k1), dict(kb1)
        sup1 = set(k1d) | set(kb1d)
        for a2, k2, kb2, k2d, kb2d, sup2, _, c2 in inner:
            common = sup1 & sup2
            if not common:
                continue
            base = c1 * c2 * 1j
            merged = None
            for m in common:
                f = (k1d.get(m, 0) * kb2d.get(m, 0)
                     - kb1d.get(m, 0) * k2d.get(m, 0))
                if f == 0:
                    continue
                if merged is None:
                    merged = (mi_add(a1, a2), mi_add(k1, k2),
                              mi_add(kb1, kb2))
                key = (merged[0], _mi_dec(merged[1], m),
                       _mi_dec(merged[2], m), ())
                acc[key] = acc.get(key, 0j) + base * f
    return Hamiltonian(H1.params, acc,
                       H1.error_budget + H2.error_budget, validate=False)


def prune(H: Hamiltonian, tol) -> Hamiltonian:
    """Drop terms whose star-norm contribution at rho=0 is below tol.

    The removed mass is added to the error budget.
    """
    if tol <= 0:
        return H
    keep = {}
    lost = 0.0
    for key, c in H.terms.items():
        a, _, _, j = key
        contrib = abs(c) * math.exp(
            -2.0 * H.params.r
            * sum(e * H.params.weight(m) for m, e in a)) * (2.0 ** len(j))
        if contrib < tol:
            lost += contrib
        else:
            keep[key] = c
    return Hamiltonian(H.params, keep, H.error_budget + lost, validate=False)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _term_S_L1(params, a, k, kb, jmodes=()):
    """(S, L1): weighted multiplicity sum and largest-mode weight."""
    S = 0.0
    L1 = 0.0
    for m, e in a:
        w = params.weight(m)
        S += 2 * e * w
        L1 = max(L1, w)
    for src in (k, kb):
        for m, e in src:
            w = params.weight(m)
            S += e * w
            L1 = max(L1, w)
    for m in jmodes:
        w = params.weight(m)
        S += 2 * w
        L1 = max(L1, w)
    return S, L1


def norm(H: Hamiltonian, kind: str, rho: float) -> float:
    """Weighted norm of a Hamiltonian.

    kind ``sup_rho``: sup over expanded terms of |c| e^{-rho (S - 2 L1)}.
    kind ``star_rho``: sum over expanded terms of
        |c| e^{-2 r sum a w} e^{-rho sum (k + k') w};  requires rho < r.
    kind ``plus_rho``: max over J-collected classes of the class-wise sup
        with the J-mode corrected exponent; requires rho < r.
    """
    p = H.params
    if rho < 0:
        raise ValidationError("rho must be >= 0")
    if kind in ("star_rho", "plus_rho") and not rho < p.r:
        raise ValidationError(f"need rho < r for {kind}, got rho={rho}")
    if kind == "sup_rho":
        best = 0.0
        for (a, k, kb, _), c in H.expanded().terms.items():
            S, L1 = _term_S_L1(p, a, k, kb)
            best = max(best, abs(c) * math.exp(-rho * (S - 2.0 * L1)))
        return best
    if kind == "star_rho":
        total = 0.0
        for (a, k, kb, _), c in H.expanded().terms.items():
            wa = sum(e * p.weight(m) for m, e in a)
            wk = sum(e * p.weight(m) for m, e in k)
            wk += sum(e * p.weight(m) for m, e in kb)
            total += abs(c) * math.exp(-2.0 * p.r * wa - rho * wk)
        return total
    if kind == "plus_rho":
        best = 0.0
        for (a, k, kb, j), c in H.collected().terms.items():
            S, L1 = _term_S_L1(p, a, k, kb, j)
            best = max(best, abs(c) * math.exp(-rho * (S - 2.0 * L1)))
        return best
    raise ValidationError(f"unknown norm kind {kind!r}")


def class_split(H: Hamiltonian):
    """Partition a J-collected Hamiltonian into classes 0 / 1 / 2.

    Terms with fewer than two J-factors but overlapping (k, k_bar)
    supports are re-collected first, wrapping excess pairs, so the
    class-0/1 disjoint-support constraint holds on output.
    """
    parts = [{}, {}, {}]
    for key, c in H.terms.items():
        a, k, kb, j = key
        overlap = any(mi_get(kb, m) >= 1 for m, _ in k)
        if len(j) < 2 and overlap:
            fixed = _collect_term(a, k, kb, c, cap=2 - len(j), pre_j=j)
        else:
            fixed = [(key, c)]
        for (fa, fk, fkb, fj), fc in fixed:
            d = parts[len(fj)]
            fkey = (fa, fk, fkb, fj)
            d[fkey] = d.get(fkey, 0j) + fc
    return tuple(
        Hamiltonian(H.params, part, validate=False) for part in parts)


# ---------------------------------------------------------------------------
# Derivatives, vector fields, evaluation
# ---------------------------------------------------------------------------

def partial(H: Hamiltonian, n, conjugate: bool) -> Hamiltonian:
    """Formal derivative with respect to q_n (or qbar_n)."""
    n = tuple(n)
    acc = {}
    for (a, k, kb, _), c in H.expanded().terms.items():
        src = kb if conjugate else k
        e = mi_get(src, n)
        if not e:
            continue
        reduced = mi(tuple((m, v - (1 if m == n else 0)) for m, v in src))
        key = (a, k, reduced, ()) if conjugate else (a, reduced, kb, ())
        acc[key] = acc.get(key, 0j) + e * c
    return Hamiltonian(H.params, acc, validate=False)


def second_partial(H, n, m, conj_n: bool, conj_m: bool) -> Hamiltonian:
    return partial(partial(H, n, conj_n), m, conj_m)


def evaluate(H: Hamiltonian, x: dict) -> complex:
    """Evaluate an expanded Hamiltonian at a state q = x."""
    p = H.params
    total = 0j
    for (a, k, kb, _), c in H.expanded().terms.items():
        val = c
        for mode, e in a:
            val *= p.action0(mode) ** e
        for mode, e in k:
            val *= x.get(mode, 0j) ** e
        for mode, e in kb:
            val *= x.get(mode, 0j).conjugate() ** e
        total += val
    return total


def vector_field(H: Hamiltonian, x: dict) -> dict:
    """The Hamiltonian vector field at x: qdot_n = i dH/dqbar_n."""
    out = {}
    for n in _field_support(H):
        out[n] = 1j * evaluate(partial(H, n, True), x)
    return out


def _field_support(H):
    modes = set()
    for (_, k, kb, _) in H.expanded().terms:
        modes.update(m for m, _ in k)
        modes.update(m for m, _ in kb)
    return sorted(modes)


def vf_sup_norm(H: Hamiltonian, x: dict, rho: float) -> float:
    """sup_n of the field component magnitude weighted by e^{rho w(n)}."""
    best = 0.0
    for n in _field_support(H):
        mag = max(abs(evaluate(partial(H, n, True), x)),
                  abs(evaluate(partial(H, n, False), x)))
        best = max(best, mag * math.exp(rho * H.params.weight(n)))
    return best


# ---------------------------------------------------------------------------
# Lie series
# ---------------------------------------------------------------------------

def lie_transform(H: Hamiltonian, F: Hamiltonian, order_cap: int,
                  tail_tol: float = 1e-16):
    """Time-1 Lie transform H o Phi_F as the series sum ad_F^n H / n!.

    Stops once the scaled term's star norm (at rho=0) drops below
    ``tail_tol`` or the order cap is reached.  Returns the partial sum and
    a geometric tail bound estimated from the last two term norms.  Raises
    if the computed term norms fail to decay, which is the operational
    smallness guard on F.
    """
    if order_cap < 1:
        raise ValidationError("order_cap must be >= 1")
    H1 = H.expanded()
    total = H1
    current = H1
    prev_norm = norm(H1, "star_rho", 0.0)
    tail = 0.0
    fact = 1.0
    for n in range(1, order_cap + 1):
        current = poisson_bracket(current, F)
        fact *= n
        scaled = current.scale(1.0 / fact)
        total = total + scaled
        t_norm = norm(scaled, "star_rho", 0.0)
        if t_norm < tail_tol or t_norm == 0.0:
            tail = t_norm
            break
        if prev_norm > 0.0 and t_norm >= prev_norm and n > 1:
            raise DivergenceRiskError(
                f"Lie-series term norms not decaying at order {n}: "
                f"{prev_norm:.3e} -> {t_norm:.3e}")
        q = t_norm / prev_norm if prev_norm > 0 else 0.5
        q = min(q, 0.5) if n == 1 else q
        tail = t_norm * q / (1.0 - q) if q < 1.0 else t_norm
        prev_norm = t_norm
    return total, tail


def flow_smallness_lhs(d: int, sigma: float, delta: float,
                       f_norm: float) -> float:
    """Log of the flow lemma's smallness expression (2e/delta) C ||F||.

    The closed-form constant overflows double precision for any feasible
    delta, so the hypothesis is only ever evaluated in log space.
    """
    return (math.log(2.0 * math.e / delta)
            + log_bracket_constant_factor(d, sigma, delta)
            + (math.log(f_norm) if f_norm > 0 else -math.inf))


def log_bracket_constant_factor(d: int, sigma: float, delta: float) -> float:
    """log of exp{3 (14400 d / delta^2)^d exp{d (24 d / delta)^(1/(sigma-1))}}."""
    inner = d * (24.0 * d / delta) ** (1.0 / (sigma - 1.0))
    return 3.0 * (14400.0 * d / delta ** 2) ** d * math.exp(inner)
