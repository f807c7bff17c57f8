"""Sparse Hamiltonians on the truncated lattice.

A Hamiltonian is a finite sum of monomials

    c * prod_n I_n(0)^{a_n} * prod_n q_n^{k_n} * prod_n qbar_n^{k'_n} * prod J_m

where I_n(0) = e^{-2 r w(n)} are the frozen initial actions (w the
log-power weight), and J_m = |q_m|^2 - I_m(0) is the action deviation.
A term's canonical tuple key is (a, k, k_bar, j); at most two J-factors
per term are permitted.

Two canonical representations are used, each cached.  ``expanded`` has no
J-factors and keeps every |q_n|^2 pair inside (k, k_bar); ``collected``
regroups pairs as I_n(0) + J_n up to total J-degree 2, leaving excess
pairs in place.  Both carry the same coefficients after expansion.

Terms are stored in a dict from one packed int per term to its complex
coefficient.  The int holds the term's a, k, k_bar and J exponents in
per-mode interleaved fields: the i-th mode of the params' :class:`_Layout`
owns fields 4i .. 4i+3, each w = max(bit_length(2 * degree_cap), 1) bits
wide (a J-factor costs two degrees, so its count fits too).  There is one
layout per ``HamParams`` value for the life of the process, and it gives a
mode its fields the first time it sees the mode, so no field ever moves
and a sparse document gets fields only for the modes it holds.  Merging
two monomials is one int addition and removing a q_m qbar_m pair one
subtraction.  w holds the sum of two in-cap exponents, so no field carries
and packed keys map one-to-one onto tuple keys.  Key values never order
anything: an op visits its operands' terms in store order, and the
bracket a pair's common modes in mode order, so neither set layout nor
the order in which modes were registered changes a result's keys,
insertion order or bits.  An op reads what it needs from a
key's four blocks (its a, k, k_bar and J fields, see :class:`_Layout`)
through memos of the layout, which decode each block once per params value
and plan each term's work once per block: J-expansion per J block, and
J-collection and the bracket's row data per (k, k_bar) pair.  No op
decodes a whole key.  Tuple keys come in only from documents and callers,
through the constructor, which checks every key, mode and coefficient;
the program packs its own Hamiltonians.  They go out only as the
text of ``dumps`` and as a key the homological solver reports
(``_Layout.decode``).  The layout is also the one holder of what depends
only on the params: the mode -> weight memo ``weights`` and the per-block
weight memos through which the norms and ``prune`` read a key's weights,
so each weight is computed once per params value, not per call.  Outside
this module, packed keys and blocks are only read: ``split_terms`` routes
existing terms into parts by their blocks, each under its own packed key,
and ``term_blocks`` yields them.

The bracket kernel ``_bracket`` brackets two operands against a third in
one pass: ``lie_transform`` calls it once per order on the G and E chains
of a Lie series, and ``poisson_bracket`` with an empty second operand.
It pairs a term of the two only with the terms of the third that share
one of its modes, read from a per-call index of the third by mode, and
visits them in the third's store order, then mode order, as a loop over
all pairs would.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import CapacityError, ValidationError
from .lattice import (
    _is_int,
    _mode_sort_key,
    box_modes,
    check_doc_version,
    mi,
    mi_degree,
    mode_from_json,
)

COEFF_FLOOR = 1e-300
# ln of the largest finite double, less a margin for the rounding of
# ln ln x and of the power, so a weight below it never overflows
_LOG_MAX = math.log(sys.float_info.max) - 1e-9
# The cached form of a Hamiltonian that is its own expanded or collected
# form: a marker, since a self-reference would make a reference cycle.
_SELF = object()
# A Lie-series order whose star norm is below this ends the sum.
TAIL_TOL = 1e-30
# The collect plan of every (k, k_bar) without a common mode.
_NO_OVERLAP = ((0, None),)


class _Memo(dict):
    """``memo[x]`` is ``fn(x)``, computed on the first lookup of x."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


@dataclass(frozen=True)
class HamParams:
    """The lattice's one record, shared by every term of a Hamiltonian.

    Checked in order: 1 <= r < inf, degree_cap and mode_radius ints >= 0,
    d an int >= 1, 2 < sigma < inf, 21 <= floor_const < inf (above
    e^3), and a sigma for which the box's largest weight, ln^sigma
    max(floor_const, sqrt(d) mode_radius), is a finite double; an int is
    an ``int`` and not a ``bool``.  The gap
    inequality's log-superadditivity needs floor_const >= c*(sigma) =
    exp(ln 2 / (1.5^(1/sigma) - 1)): 25.9 at sigma 2.1, 51.2 at 2.5, 663 at 4.
    """

    d: int
    sigma: float = 2.5
    r: float = 1.0
    floor_const: float = 1024.0
    degree_cap: int = 16
    mode_radius: int = 2

    def __post_init__(self):
        if not 1 <= self.r < math.inf:
            raise ValidationError(f"r must be finite and >= 1, got {self.r}")
        for name in ("degree_cap", "mode_radius"):
            if _int(getattr(self, name), name) < 0:
                raise ValidationError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if _int(self.d, "d") < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.d}")
        if not 2 < self.sigma < math.inf:
            raise ValidationError(
                f"sigma must be finite and > 2, got {self.sigma}")
        if not 21 <= self.floor_const < math.inf:
            raise ValidationError("floor_const must be finite and >= 21, "
                                  f"got {self.floor_const}")
        # ln x of the largest weight's x = max(floor_const, sqrt(d) R),
        # whose ln^sigma is compared with the largest double in log space
        top = math.log(self.floor_const)
        if self.mode_radius:
            top = max(top, 0.5 * math.log(self.d)
                      + math.log(self.mode_radius))
        if self.sigma * math.log(top) > _LOG_MAX:
            x = f"{math.exp(top):g}" if top < _LOG_MAX else f"e^{top:g}"
            raise ValidationError(
                f"sigma {self.sigma} overflows the weight ln^sigma({x}) of "
                "the box's largest mode")

    def weight(self, mode) -> float:
        """The log-power weight w(n) = ln^sigma max(floor_const, ||n||).

        Not cached: the layout's ``weights`` memo holds each registered
        mode's weight for the ops.
        """
        euclid = math.sqrt(sum(c * c for c in mode))
        return math.log(max(self.floor_const, euclid)) ** self.sigma

    def action0(self, mode) -> float:
        """Frozen initial action I_n(0) = exp(-2 r w(n))."""
        return math.exp(-2.0 * self.r * self.weight(mode))

    def box_modes(self):
        """All modes of the truncation box, in lexicographic order."""
        return box_modes(self.d, self.mode_radius)


def _check_key(key, params):
    """Raise unless ``key`` is a canonical in-cap key of ``params``'
    lattice: at most two J-factors, positive int exponents, multi-indices
    strictly increasing by mode, a sorted J-list, and modes that
    ``_check_mode`` passes."""
    a, k, kb, j = key
    if len(j) > 2:
        raise ValidationError("at most two J-factors per term")
    degree = 2 * len(j)
    for src, mult in ((a, 2), (k, 1), (kb, 1)):
        prev = ()                   # below every mode of dimension >= 1
        for mode, e in src:
            if type(e) is not int or e < 1:
                raise ValidationError(
                    f"exponent {e!r} at mode {mode} is not a positive int")
            degree += mult * e
            _check_mode(mode, params, "mode")
            if not prev < mode:
                raise ValidationError(
                    f"multi-index {src} is not canonical: "
                    + (f"mode {mode} repeats" if prev == mode
                       else "modes are not sorted"))
            prev = mode
    prev = ()
    for mode in j:
        _check_mode(mode, params, "J-mode")
        if mode < prev:
            raise ValidationError(f"J-list {j} is not sorted")
        prev = mode
    if degree > params.degree_cap:
        raise CapacityError(
            f"term degree {degree} exceeds cap {params.degree_cap}")


def _check_mode(mode, params, what):
    """Raise unless ``mode`` is a d-tuple of ints inside the radius."""
    rad = params.mode_radius
    if what == "mode" and len(mode) != params.d:
        raise ValidationError(f"mode {mode} has wrong dimension")
    if len(mode) == params.d and any(type(c) is not int for c in mode):
        raise ValidationError(f"mode {mode!r} has a non-int coordinate")
    if len(mode) != params.d or any(abs(c) > rad for c in mode):
        raise ValidationError(f"{what} {mode} outside radius {rad}")


class _Layout:
    """Where each mode's exponents sit in a packed key, for one HamParams,
    and every lookup that depends only on those params.

    The i-th mode registered owns fields 4i (a), 4i+1 (k), 4i+2 (k_bar)
    and 4i+3 (J count), each ``w`` bits wide; ``ua`` and ``uq`` map a
    mode to the packed unit of one action and of one q_m qbar_m pair.
    Only the modes of checked keys and of the box are registered.  A
    block is one of a key's four field sets shifted onto the a fields,
    ``(x >> i * w) & amask`` for block i (0 a, 1 k, 2 k_bar, 3 J), as
    ``term_blocks`` yields them; any int whose only set bits lie in a
    fields, such as 2a + k + k_bar + 2J of an in-cap key, is one.  A kk
    int holds a key's k and k_bar blocks together, the k block in the a
    fields and the k_bar block in the k fields:
    ``(x >> w) & (amask | amask << w)``.

    Memos, each filled once per mode, block or kk int: ``blocks`` decodes
    a block to its canonical multi-index, ``jlists`` to its sorted J-mode
    list and ``degrees`` to the sum of its exponents, and ``decode``
    assembles a packed key's canonical (a, k, k_bar, j) tuple from them;
    ``weights`` maps a mode to its weight (``HamParams.weight``),
    ``wsums`` a block to the sum of e * w(m) over its multi-index, and
    ``ews`` a block to its e * w(m) values in mode order with their
    largest w(m) (0.0 for the empty block).  Three plan the step's
    algebra per term: ``expands`` maps a J block to the (key offset,
    negate) pairs of its J-expansion, ``collects`` a kk int to the (key
    offset, integer factor or None) pairs of its J-collection (every
    (k, k_bar) without a common mode shares one plan), and
    ``bracket_rows`` a kk int to a bracket row's data: its (k_m, k_bar_m)
    by support mode, its support as a block with exponent 1 per mode (the
    sum of ``ua`` over it), and deg k + deg k_bar.

    A layout holds no coefficient and no result.  It lives for the
    process, so it holds every mode any Hamiltonian of its params has
    held, and its memos every block met.
    """

    __slots__ = ("w", "modes", "ua", "uq", "amask", "blocks", "jlists",
                 "degrees", "weights", "wsums", "ews", "expands", "collects",
                 "bracket_rows")

    def __init__(self, params):
        self.w = w = max((2 * params.degree_cap).bit_length(), 1)
        self.modes = modes = []
        self.ua = ua = {}
        self.uq = uq = {}
        self.amask = 0          # every registered mode's a field, all ones
        span, fmask = 4 * w, (1 << w) - 1
        pairs = {}                  # one (mode, exponent) tuple each
        shared = {}                 # one of each small plan or row tuple

        def decode_block(b):
            items = []
            for m in modes:
                if not b:
                    break
                if b & fmask:
                    pair = (m, b & fmask)
                    items.append(pairs.setdefault(pair, pair))
                b >>= span
            items.sort()            # by mode: modes are distinct
            return tuple(items)

        def split(kk):
            # decode_block reads only a fields, which hold k in kk and
            # k_bar in kk >> w; the block memo gets no kk int
            return decode_block(kk), decode_block(kk >> w)

        def expand_plan(jb):
            # each J_m = q_m qbar_m - I_m(0), J-modes in the J-list's order
            plan = ((0, False),)
            for m in jlists[jb]:
                uq_m, ua_m = uq[m], ua[m]
                plan = tuple(step for d, neg in plan for step in (
                    (d + uq_m, neg), (d + ua_m, not neg)))
            return plan

        def collect_plan(kk):
            """Regroup the |q_n|^2 pairs of (k, k_bar), J-degree <= 2.

            Processes overlap modes in descending-norm order.  Per mode
            with b pairs, L being the J-degree still free, the exact
            identities used are (X = I(0) + J):

                L = 2:  X^b = I^b + b J I^(b-1)
                              + sum_s (s+1) I^s J^2 X^(b-2-s)
                L = 1:  X^b = I^b + J sum_j I^j X^(b-1-j)
                L = 0:  X^b left in place.

            X-powers remain as |q|^2 pairs inside (k, k_bar), so every
            output term with J-degree < 2 has disjoint (k, k_bar)
            supports.  Only an L = 2 branch takes a factor, and it leaves
            L < 2, so an output takes at most one.
            """
            k, kb = split(kk)
            kbd = dict(kb)
            overlap = sorted((m for m, _ in k if m in kbd),
                             key=_mode_sort_key)
            if not overlap:
                return _NO_OVERLAP
            kd = dict(k)
            # Partial plans (offset, factor, J-degree left), expanded mode
            # by mode, each into its branches in order: the final list is
            # in depth-first order of the branch tree.
            states = [(0, None, 2)]
            for m in overlap:
                b = min(kd[m], kbd[m])
                ua_m, uq_m = ua[m], uq[m]
                uj = ua_m << (3 * w)
                nxt = []
                for st in states:
                    y, f, left = st
                    if left == 0:
                        nxt.append(st)
                        continue
                    # I^b branch
                    nxt.append((y + b * ua_m - b * uq_m, f, left))
                    if left == 2:
                        # b * J * I^(b-1)
                        nxt.append((y + (b - 1) * ua_m - b * uq_m + uj, b, 1))
                        # (s+1) * I^s * J^2 * X^(b-2-s)
                        for s in range(b - 1):
                            nxt.append((y + s * ua_m - (s + 2) * uq_m
                                        + 2 * uj, s + 1, 0))
                    else:
                        # J * I^jp * X^(b-1-jp)
                        for jp in range(b):
                            nxt.append((y + jp * ua_m - (jp + 1) * uq_m + uj,
                                        f, 0))
                states = nxt
            return tuple(shared.setdefault((y, f), (y, f))
                         for y, f, _ in states)

        def bracket_row(kk):
            k, kb = split(kk)
            kd, kbd = dict(k), dict(kb)
            e, support = {}, 0
            for m in kd.keys() | kbd.keys():
                ekb = kd.get(m, 0), kbd.get(m, 0)
                e[m] = shared.setdefault(ekb, ekb)
                support += ua[m]
            return e, support, mi_degree(k) + mi_degree(kb)

        self.blocks = blocks = _Memo(decode_block)
        self.jlists = jlists = _Memo(lambda b: tuple(
            m for m, e in blocks[b] for _ in range(e)))
        self.degrees = _Memo(lambda b: mi_degree(blocks[b]))
        self.weights = weights = _Memo(params.weight)
        self.wsums = _Memo(
            lambda b: sum(e * weights[m] for m, e in blocks[b]))
        self.ews = _Memo(lambda b: (
            tuple(e * weights[m] for m, e in blocks[b]),
            max((weights[m] for m, _ in blocks[b]), default=0.0)))
        self.expands = _Memo(expand_plan)
        self.collects = _Memo(collect_plan)
        self.bracket_rows = _Memo(bracket_row)

    def unit(self, mode) -> int:
        """``ua[mode]``, registering the mode on first sight."""
        u = self.ua.get(mode)
        if u is None:
            w = self.w
            u = self.ua[mode] = 1 << (4 * w * len(self.modes))
            self.modes.append(mode)
            self.uq[mode] = (u << w) + (u << (2 * w))
            self.amask += ((1 << w) - 1) * u
        return u

    def pack(self, key) -> int:
        """The packed int of canonical in-cap key ``key``."""
        a, k, kb, j = key
        ua, unit, w = self.ua, self.unit, self.w
        x = 0
        for m in j:
            x += ua.get(m) or unit(m)
        # Horner's scheme over the blocks: j, k_bar, k, then a
        for entries in (kb, k, a):
            x <<= w
            for m, e in entries:
                x += e * (ua.get(m) or unit(m))
        return x

    def decode(self, x) -> tuple:
        """The canonical (a, k, k_bar, j) key of packed key ``x``."""
        w, amask, blocks = self.w, self.amask, self.blocks
        return (blocks[x & amask], blocks[(x >> w) & amask],
                blocks[(x >> (2 * w)) & amask],
                self.jlists[(x >> (3 * w)) & amask])


# One layout per HamParams value, shared by all its Hamiltonians and
# kept for the process, so its registered modes and memos serve every
# later Hamiltonian of those params.
_LAYOUTS = _Memo(_Layout)


class Hamiltonian:
    """Immutable sparse Hamiltonian over the truncated mode set.

    Parameters
    ----------
    params : HamParams
        Lattice and truncation parameters shared by all terms.
    terms : dict, optional
        Map from canonical (a, k, k_bar, j) keys (see
        :func:`nlskam.lattice.mi`) to complex coefficients.  Every kept key
        is checked for its J count, exponents, mode order, modes and
        ``degree_cap``, and every coefficient for finiteness; coefficients
        with magnitude below 1e-300 are dropped.  Each kept key's modes
        are registered in the layout of ``params``, which lives for the
        process.  Tuple keys come from documents and callers; the program's
        own Hamiltonians (``_from_box_products``), the ops' results and
        ``split_terms``' parts are built from packed keys, unchecked.
    """

    __slots__ = ("params", "_layout", "_store", "_expanded", "_collected")

    def __init__(self, params: HamParams, terms=None):
        lay = _LAYOUTS[params]
        store = {}
        if terms:
            for key, c in terms.items():
                if not cmath.isfinite(c):
                    raise ValidationError(
                        f"non-finite coefficient {c} at term {key}")
                if abs(c) < COEFF_FLOOR:
                    continue
                _check_key(key, params)
                store[lay.pack(key)] = complex(c)
        self._set(params, lay, store, None)

    def _set(self, params, layout, store, collected):
        self.params = params
        self._layout = layout
        self._store = store
        self._expanded = None
        self._collected = collected

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
    def _from_box_products(cls, params, products):
        """``cls(params, acc)``, where ``acc`` maps the canonical key of
        each (a, k, k_bar, c) that ``products`` yields to the sum of its
        c in yield order; a, k and k_bar are lists of ``params.box_modes()``
        tuples, one entry per factor, and c is finite.  The callers:
        ``build_cubic_nls``, ``as_hamiltonian`` and ``random_hamiltonian``.

        No tuple key is built: each product in the cap is packed as it
        comes, the sum of its modes' units at the shifts of
        ``_Layout.pack``, and its new modes are registered in the order
        ``pack`` registers them, except that a term whose coefficients sum
        below COEFF_FLOOR (two unit-disk draws cancelling to 1e-300, or
        every NLS term at ``--eps 1e-320``) has its new modes registered
        all the same, which changes no output.  The modes are not checked:
        the box's are valid.  From the first product above the cap on, the
        terms go through the constructor's checks, so it raises
        CapacityError on the first kept term above the cap.
        """
        lay = _LAYOUTS[params]
        ua, w, cap = lay.ua, lay.w, params.degree_cap
        acc = {}
        products = iter(products)
        for a, k, kb, c in products:
            if 2 * len(a) + len(k) + len(kb) > cap:
                break
            try:
                x = _box_product_key(ua, w, a, k, kb)
            except KeyError:
                for m in chain(sorted(kb), sorted(k), sorted(a)):
                    lay.unit(m)
                x = _box_product_key(ua, w, a, k, kb)
            acc[x] = acc.get(x, 0j) + c
        else:
            H = cls.__new__(cls)
            H._set(params, lay, {x: c for x, c in acc.items()
                                 if not abs(c) < COEFF_FLOOR}, None)
            return H
        terms = {lay.decode(x): v for x, v in acc.items()}
        for a, k, kb, c in chain([(a, k, kb, c)], products):
            key = (mi((m, 1) for m in a), mi((m, 1) for m in k),
                   mi((m, 1) for m in kb), ())
            terms[key] = terms.get(key, 0j) + c
        return cls(params, terms)

    # -- basics ------------------------------------------------------------

    def __len__(self):     # perfbench's tracer counts terms with len()
        return len(self._store)

    def degree(self) -> int:
        degrees = self._layout.degrees
        return max((degrees[2 * a + k + kb + 2 * j]
                    for _, a, k, kb, j, _ in term_blocks(self)), default=0)

    def _assert_compatible(self, other):
        if self.params != other.params:
            raise ValidationError("Hamiltonian parameter mismatch")

    def scale(self, c):
        return _packed(self, {x: c * v for x, v in self._store.items()})

    def check_reality(self) -> float:
        """Max deviation from coeff(a,k,k') = conj(coeff(a,k',k))."""
        w = self._layout.w
        kmask = self._layout.amask << w
        kbmask = kmask << w
        store = self._store
        worst = 0.0
        for x, c in store.items():
            xk, xkb = x & kmask, x & kbmask
            mirror = store.get(x - xk - xkb + (xk << w) + (xkb >> w), 0j)
            worst = max(worst, abs(c - mirror.conjugate()))
        return worst

    # -- canonical forms ---------------------------------------------------

    def expanded(self) -> "Hamiltonian":
        """Replace every J_m by q_m qbar_m - I_m(0); cached."""
        if self._expanded is None:
            lay = self._layout
            jshift = 3 * lay.w
            jmask = lay.amask << jshift
            if not any(x & jmask for x in self._store):
                self._expanded = _SELF
            else:
                plans, amask, nojmask = lay.expands, lay.amask, ~jmask
                acc = {}
                for x, c in self._store.items():
                    x0 = x & nojmask
                    for dx, neg in plans[x >> jshift & amask]:
                        y = x0 + dx
                        acc[y] = acc.get(y, 0j) + (-c if neg else c)
                self._expanded = _packed(self, acc)
        return self if self._expanded is _SELF else self._expanded

    def collected(self) -> "Hamiltonian":
        """Regroup |q_n|^2 pairs as I_n(0) + J_n, J-degree capped at 2.

        Cached, like ``expanded``.  A collected form is its own collected
        form, and so is ``prune`` or ``class_split`` of one.
        """
        if self._collected is None:
            E = self.expanded()
            lay = self._layout
            plans, w, amask = lay.collects, lay.w, lay.amask
            kkmask = amask | amask << w
            acc = {}
            # f * c even for f == 1: the tuple form multiplies there
            for x, c in E._store.items():
                for dx, f in plans[x >> w & kkmask]:
                    y = x + dx
                    acc[y] = acc.get(y, 0j) + (c if f is None else f * c)
            self._collected = _packed(self, acc, collected=True)
        return self if self._collected is _SELF else self._collected

    # -- serialization -----------------------------------------------------

    def dump(self, fh) -> None:
        """Write the v1 document to the open text file ``fh``, one term at
        a time, as ``json.dump(doc, fh, indent=1)`` writes it.

        The document is an object of "format" ("nlskam-hamiltonian"),
        "version" (1), the six ``HamParams`` fields and "terms": one
        object per term in sorted key order, with "a", "k" and "k_bar" as
        lists of [mode, exponent] pairs, "j" as a list of modes, and the
        coefficient as "re" and "im".  ``tests/mi_helpers.to_dict`` builds
        that document, and the tests check these bytes against it.

        Written directly: json's indenting encoder is pure Python.  No key
        is decoded: the terms are sorted by the ranks of their blocks among
        the distinct multi-index blocks and J blocks, each ranked by its
        decoded tuple, so the ranks order as the tuples do.  Each distinct
        block is formatted once per call, and floats are written as json
        writes them.  Only one term's text is held at a time.
        """
        p = self.params
        head = [f' "{name}": {json.dumps(v)}' for name, v in (
            ("format", "nlskam-hamiltonian"), ("version", 1), ("d", p.d),
            ("sigma", p.sigma), ("r", p.r), ("floor_const", p.floor_const),
            ("degree_cap", p.degree_cap), ("mode_radius", p.mode_radius))]
        lay, store = self._layout, self._store
        blocks, jlists, w, amask = lay.blocks, lay.jlists, lay.w, lay.amask
        w2, w3 = 2 * w, 3 * w
        # the texts of the distinct blocks, in rank order
        mis = {b: _json_list([_json_list(
            [_json_list(map(str, m), 6), str(e)], 5) for m, e in blocks[b]], 4)
            for b in sorted({(x >> s) & amask for x in store
                             for s in (0, w, w2)}, key=blocks.__getitem__)}
        jls = {b: _json_list([_json_list(map(str, m), 5)
                              for m in jlists[b]], 4)
               for b in sorted({(x >> w3) & amask for x in store},
                               key=jlists.__getitem__)}
        mrank = {b: i for i, b in enumerate(mis)}
        jrank = {b: i for i, b in enumerate(jls)}
        n, nj = len(mrank), len(jrank)

        def rank(x):
            return (((mrank[x & amask] * n + mrank[(x >> w) & amask]) * n
                     + mrank[(x >> w2) & amask]) * nj
                    + jrank[(x >> w3) & amask])

        fh.write("{\n" + ",\n".join(head) + ',\n "terms": ')
        # _json_list(terms, 2), one term at a time; only the sorted keys
        # are held
        sep = "[\n  "
        for x in sorted(store, key=rank):
            c = store[x]
            fh.write(f'{sep}{{\n   "a": {mis[x & amask]},\n'
                     f'   "k": {mis[(x >> w) & amask]},\n'
                     f'   "k_bar": {mis[(x >> w2) & amask]},\n'
                     f'   "j": {jls[(x >> w3) & amask]},\n'
                     f'   "re": {_json_float(c.real)},\n'
                     f'   "im": {_json_float(c.imag)}\n  }}')
            sep = ",\n  "
        fh.write("\n ]\n}" if store else "[]\n}")

    def dumps(self) -> str:
        """The v1 document that ``dump`` writes, as a string."""
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def loads(cls, text) -> "Hamiltonian":
        """Parse a v1 document; ValidationError on any malformed one."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(
                f"Hamiltonian document is not JSON: {e}") from e
        if (not isinstance(doc, dict)
                or doc.get("format") != "nlskam-hamiltonian"):
            raise ValidationError("not a Hamiltonian document")
        check_doc_version(doc, "Hamiltonian document")
        _require(doc, _DOC_FIELDS, "Hamiltonian document")
        params = HamParams(
            d=doc["d"], sigma=_num(doc["sigma"], "sigma"),
            r=_num(doc["r"], "r"),
            floor_const=_num(doc["floor_const"], "floor_const"),
            degree_cap=doc["degree_cap"], mode_radius=doc["mode_radius"])
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


def _box_product_key(ua, w, a, k, kb) -> int:
    """The packed key of the product of modes a, k and k_bar, each a list
    with one entry per factor; KeyError if a mode is not registered."""
    x = 0
    # Horner's scheme over the blocks, as in ``_Layout.pack``
    for m in kb:
        x += ua[m]
    x <<= w
    for m in k:
        x += ua[m]
    x <<= w
    for m in a:
        x += ua[m]
    return x


def _packed(like, acc, collected=False) -> Hamiltonian:
    """A Hamiltonian with ``like``'s params holding the packed-key sums
    ``acc``, less those below COEFF_FLOOR as the constructor drops them;
    marked as its own collected form when ``collected``."""
    H = Hamiltonian.__new__(Hamiltonian)
    H._set(like.params, like._layout,
           {x: c for x, c in acc.items() if not abs(c) < COEFF_FLOOR},
           _SELF if collected else None)
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


# ---------------------------------------------------------------------------
# Linear algebra, products, brackets
# ---------------------------------------------------------------------------

def linear_combine(c1, H1: Hamiltonian, c2, H2: Hamiltonian) -> Hamiltonian:
    """Termwise c1*H1 + c2*H2."""
    H1._assert_compatible(H2)
    acc = {x: c1 * v for x, v in H1._store.items()}
    for x, v in H2._store.items():
        acc[x] = acc.get(x, 0j) + c2 * v
    return _packed(H1, acc)


def multiply(H1: Hamiltonian, H2: Hamiltonian) -> Hamiltonian:
    """Product of two Hamiltonians; J-lists concatenate per term pair.

    A pairwise product whose J-list would exceed two factors is expanded
    on the spot so the class invariant survives.
    """
    H1._assert_compatible(H2)
    cap = H1.params.degree_cap
    if H1._store and H2._store and H1.degree() + H2.degree() > cap:
        raise CapacityError(f"product degree exceeds cap {cap}")
    lay = H1._layout
    jcount, plans, amask = lay.degrees, lay.expands, lay.amask
    jshift = 3 * lay.w
    nojmask = ~(amask << jshift)
    inner = [(x2, jcount[x2 >> jshift & amask], c2)
             for x2, c2 in H2._store.items()]
    acc = {}
    for x1, c1 in H1._store.items():
        n1 = jcount[x1 >> jshift & amask]
        for x2, n2, c2 in inner:
            c = c1 * c2
            key = x1 + x2
            if n1 + n2 > 2:
                # the J block of the sum lists sorted(j1 + j2)
                x0 = key & nojmask
                for dx, neg in plans[key >> jshift & amask]:
                    y = x0 + dx
                    acc[y] = acc.get(y, 0j) + (-c if neg else c)
            else:
                acc[key] = acc.get(key, 0j) + c
    return _packed(H1, acc)


def poisson_bracket(H1: Hamiltonian, H2: Hamiltonian) -> Hamiltonian:
    """Canonical bracket on expanded forms.

    On monomial pairs the coefficient rule is
    sqrt(-1) * sum_j (k_j K'_j - k'_j K_j) with exponents merged as
    a+A, k+K-e_j, k'+K'-e_j.  A pair contributes when some common mode j
    has a nonzero factor; its output degree is d1 + d2 - 2.  Raises
    CapacityError, before building anything, when a contributing pair is
    over ``degree_cap``; see :func:`_bracket` for which pair it names.
    """
    H1 = H1.expanded()
    return _bracket(H1, H2.expanded(), Hamiltonian.zero(H1.params))[0]


def _bracket(A: Hamiltonian, B: Hamiltonian, E: Hamiltonian) -> tuple:
    """The bracket kernel: ({A, B}, {E, B}) in one pass.

    A, B and E are expanded.  The outer rows are A's terms in A's order;
    E's terms join the rows of their keys while E's keys follow A's
    order, and E's remaining terms follow as rows of their own, in E's
    order.  Each row visits B's terms in B's order and, per term, the
    common modes in mode order, so the visiting order depends on the
    operands' store orders alone, not on set layout or the order in which
    the layout registered the modes.  Each result accumulates only from
    the rows that carry its coefficient, so each visits its own terms in
    its own order and holds exactly the keys, insertion order and sums of
    its bracket computed alone.

    A row meets only the terms of B that share one of its modes, through
    a mode index of B built once per call: per mode m, B's terms whose
    support holds m, in B's order.  A per-call memo keyed by (m,
    (k_m, k_bar_m)) of the row holds that mode's plan: the indexed terms
    whose factor f at m is nonzero, with their positions in B.  A row takes
    the plans of its support modes, in mode order, and when more than one
    is nonempty sorts their join stably by position, which restores the
    visiting order above.  Each contribution is c1 * c2 * 1j * f, as a
    pair loop over all of B forms it, so the results keep their bits.

    Before accumulating anything, a capacity probe walks only the pairs
    whose degree sum exceeds the cap, in the visiting order (rows outer,
    B's terms inner), and raises CapacityError on the first contributing
    one, before the index is built.  So the kernel raises exactly when a
    contributing pair is over the cap and builds no partial result.  A's
    rows come first, so the error names the pair {A, B} alone would name
    if that raises, and else the one {E, B} alone would name.

    No key is decoded: a term's exponents on its support, its support and
    its degree come from the layout's ``bracket_rows`` memo of its
    (k, k_bar) and the ``degrees`` memo of its a block, so B (F in every
    order of a Lie series) costs two lookups per term per call.
    """
    A._assert_compatible(B)
    A._assert_compatible(E)
    cap = A.params.degree_cap
    lay = A._layout
    w, amask, degrees, uq = lay.w, lay.amask, lay.degrees, lay.uq
    data, jlists = lay.bracket_rows, lay.jlists
    kkmask = amask | amask << w
    acc, acc_e = {}, {}
    # Rows (key, coefficient, result it accumulates into, E's coefficient
    # or None): A's rows feed {A, B} and, when they carry E's coefficient,
    # {E, B} too; E-only rows feed {E, B}.
    e_items = list(E._store.items())
    i = 0
    rows = []
    for x, c in A._store.items():
        ce = None
        if i < len(e_items) and e_items[i][0] == x:
            ce = e_items[i][1]
            i += 1
        rows.append((x, c, acc, ce))
    rows += [(x, c, acc_e, None) for x, c in e_items[i:]]
    # Per-term data of B and of the rows, two lookups per term: the row
    # memo of the key's (k, k_bar) gives exponents (k_m, k'_m) on the
    # support, the support block and deg k + deg k', and the a block's
    # degree completes the term's.  Order: rows, then B's terms, then
    # common modes by mode.
    inner = []
    for x2, c2 in B._store.items():
        e2, sup2, dk2 = data[x2 >> w & kkmask]
        inner.append((x2, e2, sup2, 2 * degrees[x2 & amask] + dk2, c2))
    # A nonempty common support needs d1, d2 >= 1, so only pairs with
    # d1 + d2 >= 2 can contribute.  Each row is probed as it is built, so
    # a raise on one of A's rows builds no E-only row.
    max_d2 = max((row[3] for row in inner), default=0)
    outer = []
    for x1, c1, sink, ce in rows:
        e1, sup1, dk1 = data[x1 >> w & kkmask]
        d1 = 2 * degrees[x1 & amask] + dk1
        if d1 + max_d2 - 2 > cap:
            for _, e2, sup2, d2, _ in inner:
                if d1 + d2 - 2 <= cap or not sup1 & sup2:
                    continue
                for m in jlists[sup1 & sup2]:
                    k1m, kb1m = e1[m]
                    k2m, kb2m = e2[m]
                    if k1m * kb2m != kb1m * k2m:
                        raise CapacityError(
                            f"bracket degree {d1 + d2 - 2} exceeds cap {cap}")
        outer.append((x1, e1, sup1, c1, sink, ce))
    # The mode index of B: per mode, the positions of B's terms whose
    # support holds the mode, in B's order.
    index = {}
    for pos, term in enumerate(inner):
        for m in term[1]:
            index.setdefault(m, []).append(pos)
    # A row's plan at mode m depends only on (m, (k_m, k'_m)): B's terms
    # with a nonzero factor f there, as columns of position, key offset,
    # coeff and f.  Columns, not a tuple per term: plans live for the
    # call, and a tuple each would add to the cyclic collector's work.
    # A contributing mode m has k_m >= 1 and k'_m >= 1 in the merged
    # exponents, so subtracting one q_m qbar_m pair never borrows.
    plans = {}
    for x1, e1, sup1, c1, sink, ce in outer:
        found = []
        for m in jlists[sup1]:
            e1m = e1[m]
            plan = plans.get((m, e1m))
            if plan is None:
                k1m, kb1m = e1m
                uqm = uq[m]
                plan = plans[m, e1m] = ([], [], [], [])
                poss, ys, cs, fs = plan
                for pos in index.get(m, ()):
                    x2, e2, _, _, c2 = inner[pos]
                    k2m, kb2m = e2[m]
                    f = k1m * kb2m - kb1m * k2m
                    if f:
                        poss.append(pos)
                        ys.append(x2 - uqm)
                        cs.append(c2)
                        fs.append(f)
            if plan[0]:
                found.append(plan)
        if not found:
            continue
        if len(found) == 1:
            seq = zip(*found[0])
        else:
            # B's order, then mode order: a stable sort by position of the
            # plans joined in mode order
            seq = sorted(chain.from_iterable(zip(*p) for p in found),
                         key=itemgetter(0))
        for _, y, c2, f in seq:
            key = x1 + y
            sink[key] = sink.get(key, 0j) + c1 * c2 * 1j * f
            if ce is not None:
                acc_e[key] = acc_e.get(key, 0j) + ce * c2 * 1j * f
    return _packed(A, acc), _packed(A, acc_e)


def prune(H: Hamiltonian, tol, ledger=None) -> Hamiltonian:
    """Drop terms whose star-norm contribution at rho=0 is below tol.

    When ``tol`` > 0 the dropped mass is appended to ``ledger``, if given.
    The pruned form of a collected form is collected.
    """
    if tol <= 0:
        return H
    keep = {}
    lost = 0.0
    lay = H._layout
    wsum, jcount, amask, jshift = lay.wsums, lay.degrees, lay.amask, 3 * lay.w
    for x, c in H._store.items():
        # r * wa first: once -2 r overflows, (-2 r) * 0 would be nan
        wa = wsum[x & amask]
        contrib = (abs(c) * math.exp(-2.0 * (H.params.r * wa))
                   * (2.0 ** jcount[(x >> jshift) & amask]))
        if contrib < tol:
            lost += contrib
        else:
            keep[x] = c
    if ledger is not None:
        ledger.append(lost)
    return _packed(H, keep, collected=H._collected is _SELF)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def norm(H: Hamiltonian, kind: str, rho: float) -> float:
    """Weighted norm of a Hamiltonian.

    kind ``sup_rho``: sup over expanded terms of |c| e^{-rho (S - 2 L1)}.
    kind ``star_rho``: sum over expanded terms of
        |c| e^{-2 r sum a w} e^{-rho sum (k + k') w};  requires rho < r.
    kind ``plus_rho``: max over J-collected classes of the class-wise sup
        with the J-mode corrected exponent; requires rho < r.

    S is the weighted multiplicity sum 2 sum a w + sum (k + k') w plus 2w
    per J-factor, added in that order (each multi-index in mode order),
    and L1 the largest weight of the term's modes.
    """
    p = H.params
    if not rho >= 0:
        raise ValidationError(f"rho must be >= 0, got {rho}")
    if rho == math.inf:
        raise ValidationError("rho must be finite, got inf")
    if kind in ("star_rho", "plus_rho") and not rho < p.r:
        raise ValidationError(f"need rho < r for {kind}, got rho={rho}")
    lay = H._layout
    w, amask = lay.w, lay.amask
    if kind in ("sup_rho", "plus_rho"):
        form = H.expanded() if kind == "sup_rho" else H.collected()
        ews, weights, jlists, jshift = lay.ews, lay.weights, lay.jlists, 3 * w
        best = 0.0
        for x, c in form._store.items():
            ea, la = ews[x & amask]
            ek, lk = ews[(x >> w) & amask]
            eb, lb = ews[(x >> (2 * w)) & amask]
            S = 0.0
            for v in ea:
                S += 2 * v          # 2 (e w) is (2 e) w, bit for bit
            for v in ek:
                S += v
            for v in eb:
                S += v
            L1 = max(la, lk, lb)
            for m in jlists[(x >> jshift) & amask]:
                wm = weights[m]
                S += 2 * wm
                L1 = max(L1, wm)
            v = abs(c) * math.exp(-rho * (S - 2.0 * L1))
            if v != v:              # max would drop a NaN term
                return v
            best = max(best, v)
        return best
    if kind == "star_rho":
        wsum = lay.wsums
        total = 0.0
        for x, c in H.expanded()._store.items():
            wa = wsum[x & amask]
            wk = wsum[(x >> w) & amask]
            wk += wsum[(x >> (2 * w)) & amask]
            total += abs(c) * math.exp(-2.0 * (p.r * wa) - rho * wk)
        return total
    raise ValidationError(f"unknown norm kind {kind!r}")


def key_layout(H: Hamiltonian) -> _Layout:
    """The :class:`_Layout` of H's packed keys, whose memos read the
    blocks that :func:`term_blocks` yields."""
    return H._layout


def term_blocks(H: Hamiltonian):
    """Yield H's terms in store order as (x, a, k, k_bar, j, c): the
    packed key, its four blocks and the coefficient."""
    lay = H._layout
    w, amask = lay.w, lay.amask
    w2, w3 = 2 * w, 3 * w
    for x, c in H._store.items():
        yield (x, x & amask, (x >> w) & amask, (x >> w2) & amask,
               (x >> w3) & amask, c)


def split_terms(sources, route, parts: int) -> tuple:
    """Route the terms of the disjoint ``sources``, in order, into parts.

    ``route(x, a, k, k_bar, j, c)`` gets each term as :func:`term_blocks`
    yields it and returns (part, coefficient) pairs, each filed in that
    part under the term's own packed key x.  A route reads what it needs
    from the block ints through the layout's memos (:func:`key_layout`),
    and decodes x only for a key it reports.  A part is its own collected
    form when every source is.
    """
    first = sources[0]
    accs = [{} for _ in range(parts)]
    for S in sources:
        first._assert_compatible(S)
        for t in term_blocks(S):
            for i, v in route(*t):
                accs[i][t[0]] = v
    collected = all(S._collected is _SELF for S in sources)
    return tuple(_packed(first, acc, collected) for acc in accs)


def class_split(H: Hamiltonian):
    """Partition ``H.collected()`` into classes 0 / 1 / 2 by J-degree.

    Each part is its own collected form, so a class norm reads exactly its
    terms.  Collected terms with fewer than two J-factors have disjoint
    (k, k_bar) supports, so parts 0 and 1 do.  The J-degree is read from
    the J block.
    """
    jcount = H._layout.degrees
    return split_terms((H.collected(),),
                       lambda x, a, k, kb, j, c: ((jcount[j], c),), 3)


# ---------------------------------------------------------------------------
# Derivatives, vector fields, evaluation
# ---------------------------------------------------------------------------

def partial(H: Hamiltonian, n, conjugate: bool) -> Hamiltonian:
    """Formal derivative with respect to q_n (or qbar_n)."""
    lay = H._layout
    acc = {}
    u = lay.ua.get(tuple(n))        # an unregistered mode is in no term
    if u is not None:
        one = u << (2 * lay.w if conjugate else lay.w)
        shift = one.bit_length() - 1
        fmask = (1 << lay.w) - 1
        for x, c in H.expanded()._store.items():
            e = (x >> shift) & fmask
            if e:
                key = x - one
                acc[key] = acc.get(key, 0j) + e * c
    return _packed(H, acc)


def second_partial(H, n, m, conj_n: bool, conj_m: bool) -> Hamiltonian:
    return partial(partial(H, n, conj_n), m, conj_m)


def evaluate(H: Hamiltonian, x: dict) -> complex:
    """Evaluate an expanded Hamiltonian at a state q = x."""
    _, fa, fk, fkb = _state_factors(H, x)
    total = 0j
    for _, a, k, kb, _, c in term_blocks(H.expanded()):
        val = c
        for f in fa[a] + fk[k] + fkb[kb]:
            val *= f
        total += val
    return total


def _state_factors(H: Hamiltonian, x: dict) -> tuple:
    """Per-call memos of the factors of H's terms at state x.

    Returns (power, fa, fk, fkb): ``power(m, e, conj)`` is I_m(0)**e for
    conj None, else x[m]**e or conj(x[m])**e, and ``fa``, ``fk`` and
    ``fkb`` map an a, k or k_bar block to the list of its factors
    I_m(0)**e, x[m]**e or conj(x[m])**e in mode order.
    """
    p, blocks = H.params, H._layout.blocks
    powers = {}

    def power(m, e, conj):
        v = powers.get((m, e, conj))
        if v is None:
            if conj is None:
                v = p.action0(m) ** e
            else:
                z = x.get(m, 0j)
                v = (z.conjugate() if conj else z) ** e
            powers[m, e, conj] = v
        return v

    def factors(conj):
        return _Memo(lambda b: [power(m, e, conj) for m, e in blocks[b]])

    return power, factors(None), factors(False), factors(True)


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
    power, fa, fk, fkb = _state_factors(H, x)
    blocks = H._layout.blocks
    modes, d_q, d_qbar = set(), {}, {}
    for _, a, k, kb, _, c in term_blocks(H.expanded()):
        facs = fa[a] + fk[k] + fkb[kb]
        ks, kbs = blocks[k], blocks[kb]
        na = len(facs) - len(ks) - len(kbs)
        for conj, src, start, acc in ((False, ks, na, d_q),
                                      (True, kbs, na + len(ks), d_qbar)):
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
        if mag:  # e^{rho w(n)} may overflow where the field is 0
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
    order cap, 0 when an order fell below ``TAIL_TOL``, and
    ||ad_F^(n-1) G|| / (n-1)! when the bracket of order n raised
    CapacityError (``capped``).
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
    before it is added.  E defaults to zero.  With start = G = H and no E
    this is H o Phi_F; a KAM step passes its remainder as G and the
    eliminated part {N,F} = -E.

    Each order brackets both chains against F in one pass of the kernel
    :func:`_bracket`, and each result is, bit for bit, its own
    ``poisson_bracket``.  The sum stops after the first order whose star
    norm (rho = 0) is below ``TAIL_TOL``, at ``order_cap``, or when the
    bracket raises CapacityError; see :class:`LieSeries` for what each
    stop charges.
    """
    if order_cap < 1:
        raise ValidationError("order_cap must be >= 1")
    TG, F = G.expanded(), F.expanded()
    TE = (Hamiltonian.zero(G.params) if E is None else E).expanded()
    total = start
    fact = 1.0
    norms = []
    for n in range(1, order_cap + 1):
        try:
            TG, TE = _bracket(TG, F, TE)
        except CapacityError:
            return LieSeries(total, norm(TG, "star_rho", 0.0) / fact,
                             tuple(norms), True)
        fact *= n
        term = linear_combine(1.0 / fact, TG, -1.0 / (fact * (n + 1)), TE)
        term = prune(term, prune_tol, ledger)
        norms.append(norm(term, "star_rho", 0.0))
        total = linear_combine(1.0, total, 1.0, term)
        if norms[-1] < TAIL_TOL:
            return LieSeries(total, 0.0, tuple(norms), False)
    return LieSeries(total, norms[-1], tuple(norms), False)
