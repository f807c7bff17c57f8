"""Sparse Hamiltonians on the truncated lattice.

A Hamiltonian is a finite sum of monomials

    c * prod_n I_n(0)^{a_n} * prod_n q_n^{k_n} * prod_n qbar_n^{k'_n} * prod J_m

where I_n(0) = e^{-2 r w(n)} are the frozen initial actions (w the
log-power weight), and J_m = |q_m|^2 - I_m(0) is the action deviation.
Terms are stored in a dict keyed by the canonical tuple (a, k, k_bar, j)
with complex coefficients; at most two J-factors per term are permitted.

Two canonical representations are used, each cached.  ``expanded`` has no
J-factors and keeps every |q_n|^2 pair inside (k, k_bar); ``collected``
regroups pairs as I_n(0) + J_n up to total J-degree 2, leaving excess
pairs in place.  Both carry the same coefficients after expansion.

Inside the hot loops (``expanded``, ``collected``, ``multiply``,
``poisson_bracket``) a triple (a, k, k_bar) is packed into
one int by :class:`_Packer`: every mode of the operands gets a w-bit
field, modes in lexicographic order, one block of fields each for a, k
and k_bar.  Merging two monomials is then one int addition and removing
a q_m qbar_m pair one subtraction.  w is derived per call from the
operands' largest term degrees, so no field can carry and packed keys
map one-to-one onto tuple keys: accumulation order, insertion order and
every floating-point operation are those of the tuple form.  Each
distinct output key is unpacked once into its canonical tuple.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .errors import CapacityError, ValidationError
from .lattice import (
    LatticeParams,
    _is_int,
    _mode_sort_key,
    _weight_cached,
    box_modes,
    mi,
    mi_degree,
    mi_get,
    mode_from_json,
)

COEFF_FLOOR = 1e-300
# The cached form of a Hamiltonian that is its own expanded or collected
# form: a marker, since a self-reference would make a reference cycle.
_SELF = object()
# A Lie-series order whose star norm is below this ends the sum.
TAIL_TOL = 1e-30


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
        for name in ("degree_cap", "mode_radius"):
            if getattr(self, name) < 0:
                raise ValidationError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
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
    """

    __slots__ = ("params", "terms", "_expanded", "_collected")

    def __init__(self, params: HamParams, terms=None, validate=True):
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
        self._expanded = None
        self._collected = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def from_terms(cls, params, items):
        """Build from an iterable of (a, k, k_bar, j, coeff) tuples."""
        acc = {}
        for a, k, kb, j, c in items:
            key = (mi(a), mi(k), mi(kb), tuple(sorted(tuple(m) for m in j)))
            acc[key] = acc.get(key, 0j) + c
        return cls(params, acc)

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
            validate=False)

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
                self._expanded = _SELF
            else:
                pk = _Packer(self.terms)
                acc = {}
                for (a, k, kb, j), c in self.terms.items():
                    for x, ec in _expand_term(pk, pk.pack(a, k, kb), j, c):
                        acc[x] = acc.get(x, 0j) + ec
                self._expanded = Hamiltonian(
                    self.params, {pk.unpack(x): c for x, c in acc.items()},
                    validate=False)
        return self if self._expanded is _SELF else self._expanded

    def collected(self) -> "Hamiltonian":
        """Regroup |q_n|^2 pairs as I_n(0) + J_n, J-degree capped at 2.

        Cached, like ``expanded``.  A collected form is its own collected
        form, and so is ``prune`` or ``class_split`` of one.
        """
        if self._collected is None:
            E = self.expanded()
            pk = _Packer(E.terms)
            acc = {}
            for (a, k, kb, _), c in E.terms.items():
                for ckey, cc in _collect_term(pk, pk.pack(a, k, kb), k, kb, c):
                    acc[ckey] = acc.get(ckey, 0j) + cc
            self._collected = _collected_form(
                self.params, {pk.unpack(x, j): c for (x, j), c in acc.items()})
        return self if self._collected is _SELF else self._collected

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
        """The text of ``json.dumps(self.to_dict(), indent=1)``.

        Written directly: json's indenting encoder is pure Python.  Each
        distinct multi-index and J-list is formatted once per call, and
        floats are written as json writes them.
        """
        p = self.params
        head = [f' "{name}": {json.dumps(v)}' for name, v in (
            ("format", "nlskam-hamiltonian"), ("version", 1), ("d", p.d),
            ("sigma", p.sigma), ("r", p.r), ("floor_const", p.floor_const),
            ("degree_cap", p.degree_cap), ("mode_radius", p.mode_radius))]
        mis, jls = {}, {}
        terms = []
        for key in sorted(self.terms):
            a, k, kb, j = key
            c = self.terms[key]
            texts = []
            for entries in (a, k, kb):
                t = mis.get(entries)
                if t is None:
                    t = mis[entries] = _json_list([_json_list(
                        [_json_list(map(str, m), 6), str(e)], 5)
                        for m, e in entries], 4)
                texts.append(t)
            t = jls.get(j)
            if t is None:
                t = jls[j] = _json_list(
                    [_json_list(map(str, m), 5) for m in j], 4)
            terms.append(
                f'{{\n   "a": {texts[0]},\n   "k": {texts[1]},\n'
                f'   "k_bar": {texts[2]},\n   "j": {t},\n'
                f'   "re": {_json_float(c.real)},\n'
                f'   "im": {_json_float(c.imag)}\n  }}')
        return ("{\n" + ",\n".join(head)
                + f',\n "terms": {_json_list(terms, 2)}\n}}')

    @classmethod
    def from_dict(cls, doc) -> "Hamiltonian":
        """Parse a v1 document; ValidationError on any malformed one."""
        if (not isinstance(doc, dict)
                or doc.get("format") != "nlskam-hamiltonian"):
            raise ValidationError("not a Hamiltonian document")
        _require(doc, _DOC_FIELDS, "Hamiltonian document")
        params = HamParams(
            d=_int(doc["d"], "d"), sigma=_num(doc["sigma"], "sigma"),
            r=_num(doc["r"], "r"),
            floor_const=_num(doc["floor_const"], "floor_const"),
            degree_cap=_int(doc["degree_cap"], "degree_cap"),
            mode_radius=_int(doc["mode_radius"], "mode_radius"))
        if not isinstance(doc["terms"], list):
            raise ValidationError("'terms' is not a list")
        items = []
        for i, t in enumerate(doc["terms"]):
            where = f"term {i}"
            if not isinstance(t, dict):
                raise ValidationError(f"{where} is not an object")
            _require(t, _TERM_FIELDS, where)
            if not isinstance(t["j"], list):
                raise ValidationError(f"{where}: 'j' is not a list")
            items.append((
                _mi_entries(t["a"], f"{where}: 'a'"),
                _mi_entries(t["k"], f"{where}: 'k'"),
                _mi_entries(t["k_bar"], f"{where}: 'k_bar'"),
                [mode_from_json(m, f"{where}: 'j': ") for m in t["j"]],
                complex(_num(t["re"], f"{where}: 're'"),
                        _num(t["im"], f"{where}: 'im'")),
            ))
        return cls.from_terms(params, items)

    @classmethod
    def loads(cls, text) -> "Hamiltonian":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(
                f"Hamiltonian document is not JSON: {e}") from e
        return cls.from_dict(doc)


def _collected_form(params, terms) -> Hamiltonian:
    """A Hamiltonian of collected terms, marked as its own collected form."""
    H = Hamiltonian(params, terms, validate=False)
    H._collected = _SELF
    return H


def _json_list(items, depth) -> str:
    """A json list as ``indent=1`` writes it, of already written items,
    each on its own line at ``depth`` spaces."""
    items = list(items)
    if not items:
        return "[]"
    pad = "\n" + " " * depth
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x) -> str:
    """A float as json writes it: ``float.__repr__``, or NaN / Infinity."""
    s = float.__repr__(x)
    return _JSON_NONFINITE.get(s, s)


_DOC_FIELDS = ("d", "sigma", "r", "floor_const", "degree_cap", "mode_radius",
               "terms")
_TERM_FIELDS = ("a", "k", "k_bar", "j", "re", "im")


def _require(obj, fields, where):
    for f in fields:
        if f not in obj:
            raise ValidationError(f"{where} lacks {f!r}")


def _int(v, what) -> int:
    if not _is_int(v):
        raise ValidationError(f"{what} is not an integer: {v!r}")
    return v


def _num(v, what) -> float:
    if not (_is_int(v) or isinstance(v, float)):
        raise ValidationError(f"{what} is not a number: {v!r}")
    try:
        return float(v)
    except OverflowError as e:          # an integer beyond float range
        raise ValidationError(f"{what} is out of range: {v!r}") from e


def _mi_entries(entries, what) -> list:
    """[[mode, exponent], ...] of a document as (mode, exponent) pairs."""
    if not isinstance(entries, list):
        raise ValidationError(f"{what} is not a list")
    out = []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValidationError(
                f"{what}: {entry!r} is not a [mode, exponent] pair")
        out.append((mode_from_json(entry[0], f"{what}: "),
                    _int(entry[1], what)))
    return out


class _Packer:
    """Packed exponent keys for the operands of one call.

    Built from the operands' term keys.  Every mode of the operands gets a
    ``w``-bit field, modes in lexicographic order; a triple (a, k, k_bar)
    is one int made of three blocks of those fields.  ``w`` holds the sum
    of the operands' largest term degrees, which bounds every exponent the
    call can form (a J-factor counts 2, like the pair it expands to), so
    no field carries and equal packed ints mean equal tuple keys.
    """

    __slots__ = ("modes", "w", "span", "ua", "uk", "ukb", "uq", "_parts")

    def __init__(self, *key_sets):
        pairs = set()
        jmodes = set()
        top = 0
        for keys in key_sets:
            deg = 0
            for a, k, kb, j in keys:
                pairs.update(a, k, kb)
                jmodes.update(j)
                n = 2 * len(j)
                for _, e in a:
                    n += 2 * e
                for _, e in k:
                    n += e
                for _, e in kb:
                    n += e
                if n > deg:
                    deg = n
            top += deg
        self.modes = sorted(jmodes.union(m for m, _ in pairs))
        self.w = w = max(top.bit_length(), 1)
        self.span = span = w * len(self.modes)
        self.ua = {m: 1 << (w * i) for i, m in enumerate(self.modes)}
        self.uk = {m: u << span for m, u in self.ua.items()}
        self.ukb = {m: u << (2 * span) for m, u in self.ua.items()}
        # one q_m qbar_m pair
        self.uq = {m: self.uk[m] + self.ukb[m] for m in self.modes}
        self._parts = {}

    def pack(self, a, k, kb) -> int:
        ua, uk, ukb = self.ua, self.uk, self.ukb
        x = 0
        for m, e in a:
            x += e * ua[m]
        for m, e in k:
            x += e * uk[m]
        for m, e in kb:
            x += e * ukb[m]
        return x

    def _part(self, x) -> tuple:
        """Canonical multi-index of one block, memoized per call."""
        out = self._parts.get(x)
        if out is None:
            w, fmask, y = self.w, (1 << self.w) - 1, x
            items = []
            for m in self.modes:
                if not y:
                    break
                e = y & fmask
                if e:
                    items.append((m, e))
                y >>= w
            out = self._parts[x] = tuple(items)
        return out

    def unpack(self, x, j=()) -> tuple:
        """The canonical (a, k, k_bar, j) key of packed triple ``x``."""
        span = self.span
        mask = (1 << span) - 1
        return (self._part(x & mask), self._part((x >> span) & mask),
                self._part(x >> (2 * span)), j)


def _expand_term(pk, x, j, coeff):
    """Expand the J-factors ``j`` of packed term ``x`` into pure terms."""
    out = [(x, coeff)]
    for m in j:
        uq, ua = pk.uq[m], pk.ua[m]
        nxt = []
        for y, c in out:
            nxt.append((y + uq, c))
            nxt.append((y + ua, -c))
        out = nxt
    return out


def _collect_term(pk, x, k, kb, coeff):
    """Regroup |q_n|^2 pairs of an expanded term, total J-degree <= 2.

    ``x`` is the term's packed (a, k, k_bar); ``k`` and ``kb`` are its
    tuple multi-indices.  Returns ((packed, j), coeff) pairs.

    Processes overlap modes in descending-norm order.  Per mode with b
    pairs, L being the J-degree still free, the exact identities used are
    (X = I(0) + J):

        L = 2:  X^b = I^b + b J I^(b-1) + sum_s (s+1) I^s J^2 X^(b-2-s)
        L = 1:  X^b = I^b + J sum_j I^j X^(b-1-j)
        L = 0:  X^b left in place.

    X-powers remain as |q|^2 pairs inside (k, k_bar), so every output term
    with J-degree < 2 has disjoint (k, k_bar) supports.
    """
    kbd = dict(kb)
    overlap = sorted((m for m, _ in k if m in kbd), key=_mode_sort_key)
    kd = dict(k)
    # Partial expansions (packed, J-modes, coeff, J-degree left), expanded
    # mode by mode, each into its branches in order: the final list is in
    # depth-first order of the branch tree.
    states = [(x, (), coeff, 2)]
    for m in overlap:
        b = min(kd[m], kbd[m])
        ua, uq = pk.ua[m], pk.uq[m]
        nxt = []
        for st in states:
            y, j_acc, c, left = st
            if left == 0:
                nxt.append(st)
                continue
            # I^b branch
            nxt.append((y + b * ua - b * uq, j_acc, c, left))
            if left >= 2:
                # b * J * I^(b-1)
                nxt.append((y + (b - 1) * ua - b * uq, j_acc + (m,), b * c,
                            left - 1))
                # (s+1) * I^s * J^2 * X^(b-2-s)
                for s in range(b - 1):
                    nxt.append((y + s * ua - (s + 2) * uq, j_acc + (m, m),
                                (s + 1) * c, left - 2))
            else:
                # J * I^jp * X^(b-1-jp)
                for jp in range(b):
                    nxt.append((y + jp * ua - (jp + 1) * uq, j_acc + (m,),
                                c, left - 1))
        states = nxt
    return [((y, tuple(sorted(j_acc))), c) for y, j_acc, c, _ in states]


# ---------------------------------------------------------------------------
# Linear algebra, products, brackets
# ---------------------------------------------------------------------------

def linear_combine(c1, H1: Hamiltonian, c2, H2: Hamiltonian) -> Hamiltonian:
    """Termwise c1*H1 + c2*H2."""
    H1._assert_compatible(H2)
    acc = {k: c1 * v for k, v in H1.terms.items()}
    for k, v in H2.terms.items():
        acc[k] = acc.get(k, 0j) + c2 * v
    return Hamiltonian(H1.params, acc, validate=False)


def multiply(H1: Hamiltonian, H2: Hamiltonian) -> Hamiltonian:
    """Product of two Hamiltonians; J-lists concatenate per term pair.

    A pairwise product whose J-list would exceed two factors is expanded
    on the spot so the class invariant survives.
    """
    H1._assert_compatible(H2)
    cap = H1.params.degree_cap
    if H1.terms and H2.terms and H1.degree() + H2.degree() > cap:
        raise CapacityError(f"product degree exceeds cap {cap}")
    pk = _Packer(H1.terms, H2.terms)
    inner = [(pk.pack(a2, k2, kb2), j2, c2)
             for (a2, k2, kb2, j2), c2 in H2.terms.items()]
    acc = {}
    for (a1, k1, kb1, j1), c1 in H1.terms.items():
        x1 = pk.pack(a1, k1, kb1)
        for x2, j2, c2 in inner:
            j = tuple(sorted(j1 + j2))
            c = c1 * c2
            if len(j) > 2:
                for ex, ec in _expand_term(pk, x1 + x2, j, c):
                    acc[ex, ()] = acc.get((ex, ()), 0j) + ec
            else:
                key = (x1 + x2, j)
                acc[key] = acc.get(key, 0j) + c
    return Hamiltonian(
        H1.params, {pk.unpack(x, j): c for (x, j), c in acc.items()},
        validate=False)


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
    B = H2.expanded()
    cap = H1.params.degree_cap
    pk = _Packer(A.terms, B.terms)
    uq = pk.uq
    # Per-term data of both operands, computed once per call: packed
    # triple, exponents (k_m, k'_m) on the support, support, degree.  The
    # outer and inner supports are built by different expressions on
    # purpose: the iteration order of their intersection depends on how
    # each set was built, and it fixes the insertion order of the result.
    outer = []
    for (a1, k1, kb1, _), c1 in A.terms.items():
        k1d, kb1d = dict(k1), dict(kb1)
        sup1 = set(k1d) | set(kb1d)
        outer.append((pk.pack(a1, k1, kb1),
                      {m: (k1d.get(m, 0), kb1d.get(m, 0)) for m in sup1},
                      sup1,
                      2 * mi_degree(a1) + mi_degree(k1) + mi_degree(kb1),
                      c1))
    inner = []
    for (a2, k2, kb2, _), c2 in B.terms.items():
        k2d, kb2d = dict(k2), dict(kb2)
        sup2 = {m for m, _ in k2} | {m for m, _ in kb2}
        inner.append((pk.pack(a2, k2, kb2),
                      {m: (k2d.get(m, 0), kb2d.get(m, 0)) for m in sup2},
                      sup2,
                      2 * mi_degree(a2) + mi_degree(k2) + mi_degree(kb2),
                      c2))
    # A nonempty common support needs d1, d2 >= 1, so only pairs with
    # d1 + d2 >= 2 can contribute.
    max_d2 = max((row[3] for row in inner), default=0)
    for _, e1, sup1, d1, _ in outer:
        if d1 + max_d2 - 2 <= cap:
            continue
        for _, e2, sup2, d2, _ in inner:
            if d1 + d2 - 2 <= cap:
                continue
            for m in sup1 & sup2:
                k1m, kb1m = e1[m]
                k2m, kb2m = e2[m]
                if k1m * kb2m != kb1m * k2m:
                    raise CapacityError(
                        f"bracket degree {d1 + d2 - 2} exceeds cap {cap}")
    # A contributing mode m has k_m >= 1 and k'_m >= 1 in the merged
    # exponents, so subtracting one q_m qbar_m pair never borrows.
    acc = {}
    for x1, e1, sup1, _, c1 in outer:
        for x2, e2, sup2, _, c2 in inner:
            common = sup1 & sup2
            if not common:
                continue
            base = c1 * c2 * 1j
            merged = x1 + x2
            for m in common:
                k1m, kb1m = e1[m]
                k2m, kb2m = e2[m]
                f = k1m * kb2m - kb1m * k2m
                if f == 0:
                    continue
                key = merged - uq[m]
                acc[key] = acc.get(key, 0j) + base * f
    return Hamiltonian(H1.params, {pk.unpack(x): c for x, c in acc.items()},
                       validate=False)


def prune(H: Hamiltonian, tol, ledger=None) -> Hamiltonian:
    """Drop terms whose star-norm contribution at rho=0 is below tol.

    When ``tol`` > 0 the dropped mass is appended to ``ledger``, if given.
    The pruned form of a collected form is collected.
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
    if ledger is not None:
        ledger.append(lost)
    if H._collected is _SELF:
        return _collected_form(H.params, keep)
    return Hamiltonian(H.params, keep, validate=False)


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
    if not rho >= 0:
        raise ValidationError(f"rho must be >= 0, got {rho}")
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
    """Partition ``H.collected()`` into classes 0 / 1 / 2 by J-degree.

    Each part keeps its terms' order and is its own collected form, so a
    class norm reads exactly its terms.  Collected terms with fewer than
    two J-factors have disjoint (k, k_bar) supports, so parts 0 and 1 do.
    """
    parts = ({}, {}, {})
    for key, c in H.collected().terms.items():
        parts[len(key[3])][key] = c
    return tuple(_collected_form(H.params, part) for part in parts)


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


def _field_values(H: Hamiltonian, x: dict):
    """dH/dq_n and dH/dqbar_n at x for every field mode n, in one pass.

    Returns (modes, d_q, d_qbar): the sorted modes of the expanded terms'
    k and k_bar, and the two derivatives' values by mode (a mode no term
    contributes to is absent).  Each value is, bit for bit,
    ``evaluate(partial(H, n, conjugate), x)``: contributions in term
    order, each ``0j + e*c`` (dropped below COEFF_FLOOR, as the
    Hamiltonian constructor drops it) times the a-, k- and k_bar-factors
    in that order, the differentiated factor at its reduced exponent and
    left out when that is 0.
    """
    p = H.params
    powers = {}

    def power(m, e, conj):
        # action0(m)**e for conj None, else x[m]**e or conj(x[m])**e
        v = powers.get((m, e, conj))
        if v is None:
            if conj is None:
                v = p.action0(m) ** e
            else:
                z = x.get(m, 0j)
                v = (z.conjugate() if conj else z) ** e
            powers[m, e, conj] = v
        return v

    modes, d_q, d_qbar = set(), {}, {}
    for (a, k, kb, _), c in H.expanded().terms.items():
        facs = ([power(m, e, None) for m, e in a]
                + [power(m, e, False) for m, e in k]
                + [power(m, e, True) for m, e in kb])
        for conj, src, start, acc in ((False, k, len(a), d_q),
                                      (True, kb, len(a) + len(k), d_qbar)):
            for i, (n, e) in enumerate(src, start):
                modes.add(n)
                val = 0j + e * c
                if abs(val) < COEFF_FLOOR:
                    continue
                for f in facs[:i]:
                    val *= f
                if e > 1:
                    val *= power(n, e - 1, conj)
                for f in facs[i + 1:]:
                    val *= f
                acc[n] = acc.get(n, 0j) + val
    return sorted(modes), d_q, d_qbar


def vector_field(H: Hamiltonian, x: dict) -> dict:
    """The Hamiltonian vector field at x: qdot_n = i dH/dqbar_n."""
    modes, _, d_qbar = _field_values(H, x)
    return {n: 1j * d_qbar.get(n, 0j) for n in modes}


def vf_sup_norm(H: Hamiltonian, x: dict, rho: float) -> float:
    """sup_n of the field component magnitude weighted by e^{rho w(n)}."""
    modes, d_q, d_qbar = _field_values(H, x)
    best = 0.0
    for n in modes:
        mag = max(abs(d_qbar.get(n, 0j)), abs(d_q.get(n, 0j)))
        best = max(best, mag * math.exp(rho * H.params.weight(n)))
    return best


# ---------------------------------------------------------------------------
# Lie series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieSeries:
    """Partial sum of a Lie series and how it stopped.

    ``norms`` holds the star norm (rho = 0) of each order actually added,
    so ``len(norms)`` is the number of orders applied.  ``charge`` is the
    star norm charged for the part left out: the last order's norm at the
    order cap, 0 when an order fell below ``TAIL_TOL``, and ||T|| / (n-1)!
    when a bracket of order n raised CapacityError (``capped``), T being
    the last ad_F^m G computed (m = n-1, or n if only the E bracket
    raised).
    """

    total: Hamiltonian
    charge: float
    norms: tuple
    capped: bool

    @property
    def decays(self) -> bool:
        """The smallness guard on F: no order n > 1 has a norm at least
        that of order n-1."""
        return not any(0.0 < prev <= cur
                       for prev, cur in zip(self.norms, self.norms[1:]))


def lie_transform(start: Hamiltonian, G: Hamiltonian, F: Hamiltonian,
                  order_cap: int, E: Hamiltonian | None = None,
                  prune_tol: float = 0.0, ledger=None) -> LieSeries:
    """Time-1 Lie series of F: the one Lie-series loop of the package.

    Returns start + sum_{n>=1} [ad_F^n G / n! - ad_F^n E / (n+1)!] with
    ad_F X = {X, F}, each order pruned at ``prune_tol`` into ``ledger``
    before it is added.  With start = G = H and no E this is H o Phi_F; a
    KAM step passes its remainder as G and the eliminated part {N,F} = -E.

    The sum stops after the first order whose star norm (rho = 0) is
    below ``TAIL_TOL``, at ``order_cap``, or when a bracket raises
    CapacityError; see :class:`LieSeries` for what each stop charges.
    """
    if order_cap < 1:
        raise ValidationError("order_cap must be >= 1")
    total, TG, TE = start, G, E
    fact = 1.0
    norms = []
    for n in range(1, order_cap + 1):
        try:
            TG = poisson_bracket(TG, F)
            if TE is not None:
                TE = poisson_bracket(TE, F)
        except CapacityError:
            return LieSeries(total, norm(TG, "star_rho", 0.0) / fact,
                             tuple(norms), True)
        fact *= n
        if TE is None:
            term = TG.scale(1.0 / fact)
        else:
            term = linear_combine(1.0 / fact, TG,
                                  -1.0 / (fact * (n + 1)), TE)
        term = prune(term, prune_tol, ledger)
        norms.append(norm(term, "star_rho", 0.0))
        total = linear_combine(1.0, total, 1.0, term)
        if norms[-1] < TAIL_TOL:
            return LieSeries(total, 0.0, tuple(norms), False)
    return LieSeries(total, norms[-1], tuple(norms), False)
