import hashlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from nlskam import (CapacityError, HamParams, Hamiltonian, KamConfig,
                    ValidationError, norm, resonance_measure, run,
                    verify_norm_lemma, verify_scalar_lemma)
from nlskam import hamiltonian, verification
from nlskam.hamiltonian import _Layout
from nlskam.lattice import conservation_check, mi
from nlskam.verification import (
    NORM_LEMMAS,
    SCALAR_LEMMAS,
    _golden_max,
    _shell_counts,
    _shell_sum,
    bracket_bound,
    log_bracket_constant,
    random_hamiltonian,
    random_state,
    run_suite,
)

from mi_helpers import momentum_defect, tuple_terms


# Frozen references: the array-draw random_hamiltonian and the
# memo-free _shell_sum that the current versions must reproduce bit for
# bit.  The reference sampler also returns its number of rejected draws.

def _reference_random_hamiltonian(params, rng, n_terms=6, max_factors=4,
                                  max_actions=1, conserving=True):
    modes = params.box_modes()
    items = []
    guard = 0
    rejected = 0
    while len(items) < n_terms and guard < 1000 * n_terms:
        guard += 1
        half = rng.integers(1, max_factors // 2 + 1)
        k = [tuple(modes[i]) for i in rng.integers(0, len(modes), half)]
        kb = [tuple(modes[i]) for i in rng.integers(0, len(modes), half)]
        na = int(rng.integers(0, max_actions + 1))
        a = [tuple(modes[i]) for i in rng.integers(0, len(modes), na)]
        if conserving:
            defect = momentum_defect(mi((m, 1) for m in k),
                                     mi((m, 1) for m in kb), params.d)
            last = k[-1]
            repaired = tuple(c - dc for c, dc in zip(last, defect))
            if any(abs(c) > params.mode_radius for c in repaired):
                rejected += 1
                continue
            k[-1] = repaired
        radius = math.sqrt(rng.uniform(0.0, 1.0))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        coeff = radius * complex(math.cos(phase), math.sin(phase))
        items.append(([(m, 1) for m in a], [(m, 1) for m in k],
                      [(m, 1) for m in kb], (), coeff))
    return Hamiltonian.from_terms(params, items), rejected


def _reference_shell_sum(hp, per_mode):
    sigma, floor_const = hp.sigma, hp.floor_const
    total = 0.0
    for kk, count in _shell_counts(hp.d, 10_000_099):
        w = math.log(max(floor_const, float(max(kk, 1)))) ** sigma
        term = count * per_mode(w)
        total += term
        if kk > floor_const and term < 1e-18:
            break
    return total


def _bits(H):
    return {key: (c.real.hex(), c.imag.hex())
            for key, c in tuple_terms(H).items()}


@pytest.mark.parametrize("d,radius", [(1, 2), (1, 2048), (2, 2), (2, 6)])
def test_random_hamiltonian_matches_reference(d, radius):
    params = HamParams(d=d, sigma=2.5, r=1.0, degree_cap=20,
                       mode_radius=radius)
    rejected = 0
    for seed in range(3):
        new_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for max_factors in range(2, 7):
            for max_actions in range(3):
                kw = dict(n_terms=4, max_factors=max_factors,
                          max_actions=max_actions)
                got = random_hamiltonian(params, new_rng, **kw)
                want, rej = _reference_random_hamiltonian(
                    params, ref_rng, **kw)
                rejected += rej
                assert _bits(got) == _bits(want)
                assert (new_rng.bit_generator.state
                        == ref_rng.bit_generator.state)
    assert rejected > 0  # the resampling branch was exercised


def test_random_hamiltonian_refuses_an_over_cap_draw_as_the_reference():
    # degrees 2 to 6 are drawn, so each seed keeps some term above cap 3
    params = HamParams(d=1, degree_cap=3)
    messages = set()
    for seed in range(6):
        with pytest.raises(CapacityError) as got:
            random_hamiltonian(params, np.random.default_rng(seed))
        with pytest.raises(CapacityError) as want:
            _reference_random_hamiltonian(params, np.random.default_rng(seed))
        assert str(got.value) == str(want.value)
        messages.add(str(got.value))
    assert messages == {"term degree 4 exceeds cap 3",
                        "term degree 6 exceeds cap 3"}


def test_random_hamiltonian_leaves_the_references_state_after_an_over_cap_draw():
    # the draws go on to the last term before the constructor raises
    params = HamParams(d=1, degree_cap=3)
    for seed in range(6):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(CapacityError):
            random_hamiltonian(params, got)
        with pytest.raises(CapacityError):
            _reference_random_hamiltonian(params, want)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random() == want.random()


class _ZeroWordRng:
    """Generator calls, scalar and array ints by ``_bounded`` and uniforms
    from next_double, over a bit generator's stream that gets a 0 word
    before every third word: a range that is not a power of two rejects
    it (its low product word 0 is below (2**32 - n) % n > 0).  Its
    ``bit_generator`` offers that stream to ``_draws``."""

    def __init__(self, seed):
        # held: the ctypes state points into it
        self._real = real = np.random.default_rng(seed).bit_generator
        self.words = 0
        self.bit_generator = SimpleNamespace(lock=real.lock, ctypes=(
            SimpleNamespace(next_uint32=self._next_uint32,
                            next_double=real.ctypes.next_double,
                            state=real.ctypes.state)))
        self._word = real.ctypes.next_uint32

    def _next_uint32(self, state):
        self.words += 1
        return 0 if self.words % 3 == 1 else self._word(state)

    def integers(self, lo, hi, size=None):
        ctypes = self.bit_generator.ctypes
        values = [lo + verification._bounded(ctypes.next_uint32,
                                             ctypes.state, hi - lo)
                  for _ in range(1 if size is None else size)]
        return values[0] if size is None else values

    def uniform(self, lo, hi):
        ctypes = self.bit_generator.ctypes
        return lo + (hi - lo) * ctypes.next_double(ctypes.state)


@pytest.mark.parametrize("d,radius", [(1, 2), (2, 1), (3, 1)])
def test_inline_redraw_draws_what_bounded_draws(monkeypatch, d, radius):
    # a 0 word is rejected by the ranges of 3 q-factor counts, of 6 action
    # counts and of the 5, 9 or 27 modes; the ranges of 2 and 1 take it
    params = HamParams(d=d, degree_cap=20, mode_radius=radius)
    redraws = []
    bounded = verification._bounded

    def counting(next_uint32, state, n):
        redraws.append(n)
        return bounded(next_uint32, state, n)

    for seed in range(3):
        got, want = _ZeroWordRng(seed), _ZeroWordRng(seed)
        for max_factors, max_actions in ((4, 1), (6, 5), (7, 0)):
            kw = dict(n_terms=5, max_factors=max_factors,
                      max_actions=max_actions)
            monkeypatch.setattr(verification, "_bounded", counting)
            H = random_hamiltonian(params, got, **kw)
            monkeypatch.setattr(verification, "_bounded", bounded)
            ref, _ = _reference_random_hamiltonian(params, want, **kw)
            assert _bits(H) == _bits(ref)
            assert got.words == want.words
    assert set(redraws) == {3, 6, (2 * radius + 1) ** d}


def test_random_hamiltonian_calls_no_generator_method(monkeypatch):
    # the draws come from the bit generator alone: an rng offering nothing
    # else gives the same Hamiltonians and leaves the same state
    params = HamParams(d=2, degree_cap=12)
    rng = np.random.default_rng(4)
    bare = SimpleNamespace(bit_generator=np.random.default_rng(4).bit_generator)
    for n_terms in (1, 4, 6):
        assert (_bits(random_hamiltonian(params, bare, n_terms=n_terms))
                == _bits(random_hamiltonian(params, rng, n_terms=n_terms)))
    assert bare.bit_generator.state == rng.bit_generator.state
    # nor through the recording proxy, nor in the gap oracle, which makes
    # no layout either (an r of its own keeps its params apart from every
    # other test's); and the suite makes, decodes and checks no tuple key
    calls = _record_draws(monkeypatch)
    random_hamiltonian(params, np.random.default_rng(4))
    verify_norm_lemma("gap", params={"r": 1.0 + 7e-9}, samples=20)
    assert calls == []
    assert HamParams(d=1, r=1.0 + 7e-9, degree_cap=20,
                     mode_radius=2048) not in hamiltonian._LAYOUTS
    made = []
    monkeypatch.setattr(hamiltonian, "mi", lambda *a: made.append(a))
    monkeypatch.setattr(_Layout, "decode", lambda self, x: made.append(x))
    monkeypatch.setattr(hamiltonian, "_check_key",
                        lambda key, params: made.append(key))
    assert len(run_suite(samples_norm=20)) == len(SCALAR_LEMMAS) + len(
        NORM_LEMMAS)
    assert made == []


# 3 * 2**30 rejects a quarter of the uint32s: (2**32 - n) % n is 2**30
@pytest.mark.parametrize("n", [1, 2, 5, 4097, 3 * 2**30, 2**32])
def test_bounded_draw_matches_generator_integers(n):
    got, want = np.random.default_rng(11), np.random.default_rng(11)
    bits = got.bit_generator
    used = []

    def next_uint32(state):
        used.append(1)
        return bits.ctypes.next_uint32(state)

    for i in range(300):
        if i % 3 == 1:          # random() shares the stream and its buffer
            assert got.random() == want.random()
        with bits.lock:
            value = verification._bounded(next_uint32, bits.ctypes.state, n)
        assert value == want.integers(0, n)
        assert bits.state == want.bit_generator.state
    if n == 1:
        assert used == []       # a range of 1 draws nothing
    elif n == 3 * 2**30:
        assert len(used) > 300  # the rejection loop ran


# The oracles' ranges, a signed one and the unit and 2 pi ranges of
# random_state; 0.0048 and 0.023 are bracket_bound's delta range at rho 0.1
@pytest.mark.parametrize("lo,hi", [
    (0.0, 0.4), (0.0, 0.5), (0.0, 0.3), (0.05, 0.3), (0.05, 0.15),
    (0.2 * 0.024, 0.96 * 0.024), (0.0, math.log(1e6)), (0.0, 1.0),
    (0.0, 2.0 * math.pi), (-3.5, 1e3)])
def test_uniform_is_generator_uniform_bit_for_bit(lo, hi):
    got, want = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(2000):
        assert (verification._uniform(got, lo, hi).hex()
                == want.uniform(lo, hi).hex())
    # the same draws: the next one matches too
    assert got.random() == want.random()
    assert got.bit_generator.state == want.bit_generator.state


def _reference_random_state(params, rng, rho):
    out = {}
    for m in params.box_modes():
        mag = rng.uniform(0.0, 1.0) * math.exp(-rho * params.weight(m))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out[m] = mag * complex(math.cos(phase), math.sin(phase))
    return out


@pytest.mark.parametrize("d,radius", [(1, 2), (2, 1), (3, 1)])
def test_random_state_matches_scalar_draws(d, radius):
    params = HamParams(d=d, mode_radius=radius)
    got, want = np.random.default_rng(3), np.random.default_rng(3)
    for rho in (0.0, 0.1, 1.0):
        x, y = random_state(params, got, rho), _reference_random_state(
            params, want, rho)
        assert list(x) == list(y)
        assert [(v.real.hex(), v.imag.hex()) for v in x.values()] == [
            (v.real.hex(), v.imag.hex()) for v in y.values()]
    assert got.bit_generator.state == want.bit_generator.state


class _RecordingRng:
    """A Generator that records each ``uniform``, ``integers`` and
    ``random`` call as (name, size), size None for a scalar draw."""

    # the positional index of each method's size argument
    SIZE_AT = {"uniform": 2, "integers": 2, "random": 0}

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if name not in self.SIZE_AT:
            return method

        def recorded(*args, **kw):
            at = self.SIZE_AT[name]
            size = args[at] if len(args) > at else kw.get("size")
            self._calls.append((name, size))
            return method(*args, **kw)

        return recorded


def _record_draws(monkeypatch):
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: (
        _RecordingRng(default_rng(seed), calls)))
    return calls


def _reference_superadditivity_margins(c, sigma, samples, seed):
    rng = np.random.default_rng(seed)
    margins = []
    for i in range(samples):
        if i == 0:
            y, t = c, 1.0
        else:
            y = c * math.exp(rng.uniform(0.0, math.log(1e6)))
            t = math.exp(rng.uniform(0.0, math.log(1e6)))
        x = t * y
        margins.append(math.log(x) ** sigma + 0.5 * math.log(y) ** sigma
                       - math.log(x + y) ** sigma)
    return margins


# the corner alone, one draw pair, and each side of one and two arrays
# of 1,024 pairs
@pytest.mark.parametrize("samples", [1, 2, 1024, 1025, 1026, 2049, 2050])
def test_log_superadditivity_matches_scalar_draws(monkeypatch, samples):
    cases = ((1024.0, 2.5, 0), (51.2, 2.1, 9))
    want = [_reference_superadditivity_margins(c, sigma, samples, seed)
            for c, sigma, seed in cases]
    tallied = []
    monkeypatch.setattr(verification, "_tally",
                        lambda case, margins: tallied.append(margins))
    calls = _record_draws(monkeypatch)
    for c, sigma, seed in cases:
        verify_scalar_lemma("log_superadditivity", {"c": c, "sigma": sigma},
                            samples=samples, seed=seed)
    assert tallied == want
    # array draws only, of at most 2,048 values each
    assert all(name == "uniform" and size is not None
               and math.prod(size) <= 2048 for name, size in calls)
    assert sum(math.prod(size) for _, size in calls) == 4 * (samples - 1)


def test_lemma_suite_makes_no_scalar_uniform_or_integers_draw(monkeypatch):
    calls = _record_draws(monkeypatch)
    run_suite(samples_norm=20)
    assert ("uniform", None) not in calls
    assert ("integers", None) not in calls
    assert ("random", None) in calls


def test_random_terms_refuse_bad_factor_counts():
    # numpy raised ValueError at the first draw, _bounded would divide by 0
    for kw in ({"max_factors": 1}, {"max_actions": -1}):
        with pytest.raises(ValidationError, match="^random terms need"):
            random_hamiltonian(HamParams(d=1), np.random.default_rng(0), **kw)


def test_random_hamiltonian_registers_modes_as_the_constructor():
    # distinct r values give each side a fresh layout and change no draw;
    # cap 5 raises on a term above it after some terms were registered
    for cap in (12, 5):
        got = HamParams(d=2, r=1.0 + 1e-9 * cap, degree_cap=cap)
        want = HamParams(d=2, r=1.0 + 2e-9 * cap, degree_cap=cap)
        for seed in range(4):
            try:
                random_hamiltonian(got, np.random.default_rng(seed))
            except CapacityError:
                assert cap == 5
            try:
                _reference_random_hamiltonian(want,
                                              np.random.default_rng(seed))
            except CapacityError:
                assert cap == 5
            assert (Hamiltonian.zero(got)._layout.modes
                    == Hamiltonian.zero(want)._layout.modes)
        assert Hamiltonian.zero(got)._layout.modes


@pytest.mark.parametrize("cancel", [True, False])
def test_box_products_keep_the_constructors_kept_term_rule(cancel):
    # an over-cap key whose draws cancel to 0 is dropped, not raised on,
    # as the constructor drops it; without the cancelling draw both raise
    got = HamParams(d=1, r=1.0 + 3e-9 * (1 + cancel), degree_cap=4)
    want = HamParams(d=1, r=1.0 + 5e-9 * (1 + cancel), degree_cap=4)
    m = got.box_modes()
    products = [([m[0]], [m[1]], [m[1]], 0.5 + 0j),
                ([], [m[3], m[2], m[2]], [m[4], m[0], m[2]], 0.25 + 0j),
                ([], [m[3]], [m[3]], 1j)]
    if cancel:
        products.insert(2, products[1][:3] + (-0.25 + 0j,))
    terms = {}
    for a, k, kb, c in products:
        key = tuple(mi((x, 1) for x in f) for f in (a, k, kb)) + ((),)
        terms[key] = terms.get(key, 0j) + c
    try:
        H = Hamiltonian._from_box_products(got, products)
    except CapacityError as e:
        H = str(e)
    try:
        ref = Hamiltonian(want, terms)
    except CapacityError as e:
        ref = str(e)
    if cancel:
        assert list(H._store.items()) == list(ref._store.items())
        assert len(H) == 2
    else:
        assert H == ref == "term degree 6 exceeds cap 4"
    assert (Hamiltonian.zero(got)._layout.modes
            == Hamiltonian.zero(want)._layout.modes)


@pytest.mark.parametrize("name,params", [
    ("poly_product", {}),
    # at floor_const 1024 every per-mode maximum is 0; a low floor and a
    # small delta make the golden-section scans find positive maxima
    ("poly_product", {"delta": 0.01, "sigma": 2.1, "floor_const": 21.0}),
    ("poly_product", {"delta": 0.01, "sigma": 2.1, "floor_const": 21.0,
                      "d": 2, "p": 3}),
    ("geometric_product", {}),
    ("geometric_product", {"delta": 0.1, "d": 3, "floor_const": 100.0}),
])
def test_shell_sum_lemmas_match_reference(monkeypatch, name, params):
    got = verify_scalar_lemma(name, params=params)
    monkeypatch.setattr(verification, "_shell_sum", _reference_shell_sum)
    want = verify_scalar_lemma(name, params=params)
    assert got.worst_margin.hex() == want.worst_margin.hex()
    assert got.notes == want.notes


def test_shell_sum_runs_per_mode_once_per_distinct_weight():
    hp = HamParams(d=2, sigma=2.5, floor_const=1024.0)
    calls = []

    def per_mode(w):
        calls.append(w)
        return math.exp(-0.3 * w)

    total = _shell_sum(hp, per_mode)
    assert len(calls) == len(set(calls))
    # shells 0..1024 share the floor weight; the walk goes past them
    assert calls[0] == math.log(1024.0) ** 2.5
    assert calls[1] > calls[0]
    assert total.hex() == _reference_shell_sum(
        hp, lambda w: math.exp(-0.3 * w)).hex()


def test_golden_max_finds_known_maximum():
    # x e^{-x} has max 1/e at x = 1
    got = _golden_max(lambda x: x * math.exp(-x), 0.0, 10.0)
    assert got == pytest.approx(1.0 / math.e, rel=1e-10)


# (oracle, lemma, params, message) of inputs refused up front
_REFUSED = [
    # a NaN floor walked all 1e7 shells; an infinite one, or sigma,
    # passed vacuously; d -1 ended in a TypeError
    (verify_scalar_lemma, "geometric_product", {"floor_const": math.nan},
     "^floor_const must be finite"),
    (verify_scalar_lemma, "poly_product", {"floor_const": math.nan},
     "^floor_const must be finite"),
    (verify_scalar_lemma, "geometric_product", {"floor_const": math.inf},
     "^floor_const must be finite"),
    (verify_scalar_lemma, "log_sum", {"sigma": math.inf},
     "^sigma must be finite and > 2, got inf$"),
    (verify_scalar_lemma, "f_max", {"sigma": math.nan},
     "^sigma must be finite and > 2, got nan$"),
    (verify_scalar_lemma, "geometric_product", {"d": 0},
     "^dimension must be >= 1, got 0$"),
    (verify_scalar_lemma, "geometric_product", {"d": -1},
     "^dimension must be >= 1, got -1$"),
    (verify_scalar_lemma, "geometric_product", {"d": 1.5},
     "^d is not an integer: 1.5$"),
    # a lemma's own values: ln^sigma needs ln c >= 0; p <= 0 ran a
    # golden-section search per shell without end
    (verify_scalar_lemma, "log_superadditivity", {"c": 0.5},
     "^c must be finite and >= 1, got 0.5$"),
    (verify_scalar_lemma, "log_superadditivity", {"c": -5.0},
     "^c must be finite and >= 1, got -5.0$"),
    (verify_scalar_lemma, "log_superadditivity", {"c": math.inf},
     "^c must be finite and >= 1, got inf$"),
    (verify_scalar_lemma, "g_max", {"p": 0},
     "^p must be finite and > 0, got 0$"),
    (verify_scalar_lemma, "poly_product", {"p": -1},
     "^p must be finite and > 0, got -1$"),
    (verify_scalar_lemma, "poly_product", {"p": math.nan},
     "^p must be finite and > 0, got nan$"),
    # p 1000 searched over 4e5 shells and p 0.5 walked all 1e7
    (verify_scalar_lemma, "poly_product", {"p": 1000},
     r"^poly_product needs p in \[1, 200\], got 1000$"),
    (verify_scalar_lemma, "poly_product", {"p": 0.5},
     r"^poly_product needs p in \[1, 200\], got 0.5$"),
    # float or bool lattice ints ended in an AttributeError or TypeError,
    # or passed vacuously
    (verify_norm_lemma, "monotonicity", {"degree_cap": 12.0},
     "^degree_cap is not an integer: 12.0$"),
    (verify_norm_lemma, "monotonicity", {"d": 1.5},
     "^d is not an integer: 1.5$"),
    (verify_norm_lemma, "monotonicity", {"mode_radius": 2.0},
     "^mode_radius is not an integer: 2.0$"),
    (verify_norm_lemma, "gap", {"d": True}, "^d is not an integer: True$"),
]


def test_unknown_lemma_rejected():
    with pytest.raises(ValidationError):
        verify_scalar_lemma("nope")
    with pytest.raises(ValidationError):
        verify_norm_lemma("nope")
    with pytest.raises(ValidationError):
        verify_scalar_lemma("f_max", params={"delta": 2.0})
    for verify, name, params, match in _REFUSED:
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match=match):
            verify(name, params=params)
        assert time.perf_counter() - t0 < 1.0, (name, params)


def test_poly_product_is_finite_where_a_to_the_p_overflows():
    # a ** 200 overflows on the scan's grid (up to a = 36.4 at the floor
    # weight), which read log_lhs inf; ln(1 + a^p) is then p ln a + ...
    case = verify_scalar_lemma("poly_product", params={"p": 200})
    assert case.notes["log_lhs"] == 0.0
    assert case.worst_margin == case.notes["log_rhs"] > 0.0
    assert case.violations == 0


def test_one_hamparams_per_case(monkeypatch):
    made = []
    post_init = HamParams.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(HamParams, "__post_init__", counting)
    cases = run_suite(samples_norm=400, seed=0)
    assert len(made) == len(cases) == 15


@pytest.mark.parametrize("call", [
    lambda: run(KamConfig(seed=-1, steps=0)),
    lambda: verify_norm_lemma("monotonicity", samples=2, seed=-1),
    lambda: verify_scalar_lemma("log_superadditivity", samples=2, seed=-1),
    lambda: resonance_measure([0.05], 10, -1,
                              lattice=HamParams(d=1, mode_radius=1),
                              ell_budget=4),
])
def test_negative_seed_rejected(call):
    with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
        call()


def test_scalar_lemmas_pass_at_defaults():
    for name in SCALAR_LEMMAS:
        case = verify_scalar_lemma(name)
        assert case.violations == 0, (name, case.worst_margin)


def test_g_max_is_tight():
    # the closed form is the exact maximum, so the margin is ~0
    case = verify_scalar_lemma("g_max", params={"p": 3.0, "delta": 0.25})
    assert abs(case.worst_margin) <= 1e-9


def test_log_sum_dual_report():
    case = verify_scalar_lemma("log_sum", params={"delta": 0.4})
    assert "statement_holds" in case.notes and "proof_holds" in case.notes
    assert case.notes["rhs_proof"] >= case.notes["rhs_statement"]
    assert case.violations == 0


def test_norm_lemmas_pass(rng):
    for name in NORM_LEMMAS:
        case = verify_norm_lemma(name, samples=25, seed=3)
        assert case.violations == 0, (name, case.worst_margin)


def test_random_hamiltonian_conserves(params, rng):
    for _ in range(20):
        H = random_hamiltonian(params, rng)
        for (_, k, kb, _) in tuple_terms(H):
            assert conservation_check(k, kb) == (True, True)
        # colliding draws accumulate, so magnitudes are bounded by the
        # number of requested terms, not by the unit disk
        for c in tuple_terms(H).values():
            assert abs(c) <= 6.0 + 1e-12


def test_random_hamiltonian_deterministic(params):
    H1 = random_hamiltonian(params, np.random.default_rng(5))
    H2 = random_hamiltonian(params, np.random.default_rng(5))
    assert tuple_terms(H1) == tuple_terms(H2)


def test_random_state_in_unit_ball(params, rng):
    x = random_state(params, rng, rho=0.5)
    for m, v in x.items():
        assert abs(v) <= math.exp(-0.5 * params.weight(m)) + 1e-15


def test_suite_csv_rows(rng):
    cases = run_suite(samples_norm=5, seed=1)
    assert len(cases) == len(SCALAR_LEMMAS) + len(NORM_LEMMAS)
    for c in cases:
        row = c.csv_row()
        assert row.count(",") == 5
        assert c.violations == 0


def test_run_suite_runs_named_lemmas_in_order():
    names = ["gap", "g_max", "monotonicity"]
    cases = run_suite(samples_norm=3, seed=2, names=names)
    assert [c.name for c in cases] == names
    want = [verify_norm_lemma("gap", samples=3, seed=2),
            verify_scalar_lemma("g_max", seed=2),
            verify_norm_lemma("monotonicity", samples=3, seed=2)]
    for c in cases + want:
        c.seconds = 0.0
    assert [c.csv_row() for c in cases] == [c.csv_row() for c in want]
    assert run_suite(names=[]) == []
    with pytest.raises(ValidationError, match="^unknown lemma 'nope'$"):
        run_suite(names=["g_max", "nope"])


@pytest.mark.parametrize("name,args", [
    # d (24 d / delta1)^(1/(sigma-1)) = 1048 > 709 at d=2, delta1=0.004
    ("log_bracket_constant", (2, 2.5, 0.004, 0.004)),
    ("log_vf_constant", (40,)),
    ("log_second_derivative_constant", (3, 2.5, 0.001)),
    ("log_transfer_up_constant", (1, 2.5, 1e-8)),
    # delta ** 2 underflows to 0.0, and the division by it reads +inf too
    ("log_bracket_constant", (1, 2.5, 1e-163, 0.1)),
    ("log_second_derivative_constant", (1, 2.5, 1e-162)),
])
def test_log_constants_are_inf_past_the_double_range(name, args):
    assert getattr(verification, name)(*args) == math.inf


def test_bracket_bound_sides(params):
    rng = np.random.default_rng(4)
    H1 = random_hamiltonian(params, rng, n_terms=4)
    H2 = random_hamiltonian(params, rng, n_terms=4)
    B, lhs, rhs = bracket_bound(H1, H2, 0.1, 0.01, 0.02)
    assert lhs == math.log(norm(B, "sup_rho", 0.1))
    assert rhs == (log_bracket_constant(1, 2.5, 0.01, 0.02)
                   + math.log(norm(H1, "sup_rho", 0.1 - 0.01))
                   + math.log(norm(H2, "sup_rho", 0.1 - 0.02)))
    # a zero operand: -inf on the right, whatever the constant
    Z = Hamiltonian.zero(params)
    for X, Y in ((Z, H2), (H1, Z)):
        B, lhs, rhs = bracket_bound(X, Y, 0.1, 0.004, 0.004)
        assert len(B) == 0 and lhs == rhs == -math.inf


def test_bracket_bound_lemma_at_d2():
    # the lemma constant exceeds the double range for the smaller deltas
    case = verify_norm_lemma("bracket_bound",
                             params={"d": 2, "mode_radius": 1}, samples=100)
    assert case.violations == 0


def test_nan_margin_is_a_violation(monkeypatch):
    monkeypatch.setitem(NORM_LEMMAS, "monotonicity",
                        lambda rng, hp, p: math.nan)
    case = verify_norm_lemma("monotonicity", samples=3)
    assert (case.violations, math.isnan(case.worst_margin)) == (3, True)


@pytest.mark.parametrize("name,params", [
    ("log_superadditivity", {"c": math.nan}),
    ("f_max", {"delta": math.nan}),
    ("g_max", {"delta": 0.5, "p": math.nan}),
    ("geometric_product", {}),
    ("poly_product", {}),
])
def test_scalar_nan_margin_is_a_violation(monkeypatch, name, params):
    # math-only NaNs, past the lemma's own checks but through the case
    # runner; a NaN shell sum stands in for any NaN inside the sum
    monkeypatch.setattr(verification, "_shell_sum",
                        lambda hp, per_mode: math.nan)
    case = verification._run_case(
        name, {**verification.SCALAR_DEFAULTS[name][0], **params}, 3, 0,
        SCALAR_LEMMAS[name])
    assert case.violations == (3 if name == "log_superadditivity" else 1)
    assert math.isnan(case.worst_margin)


# (lemma, case params, the HamParams fields that differ from d 1 and
# degree cap 12): a case's params override exactly the HamParams keys they
# set, and rho, f_scale or delta never reach HamParams
@pytest.mark.parametrize("name,p,want", [
    ("monotonicity", {}, {}),
    ("monotonicity", {"sigma": 3.0, "delta": 0.2}, {"sigma": 3.0}),
    ("submultiplicativity", {"d": 2, "mode_radius": 1},
     {"d": 2, "mode_radius": 1}),
    ("vector_field_bound", {"r": 1.5, "floor_const": 21.0, "rho": 0.2},
     {"r": 1.5, "floor_const": 21.0}),
    ("second_derivative_bound", {"degree_cap": 16}, {"degree_cap": 16}),
    ("gap", {"floor_const": 21.0, "sigma": 2.1},
     {"floor_const": 21.0, "sigma": 2.1, "degree_cap": 20,
      "mode_radius": 2048}),
    ("gap", {"mode_radius": 40, "degree_cap": 24},
     {"mode_radius": 40, "degree_cap": 24}),
    ("flow_bound", {"f_scale": 1e-5}, {"degree_cap": 64}),
    ("flow_bound", {"degree_cap": 32}, {"degree_cap": 32}),
])
def test_default_params_layers(monkeypatch, name, p, want):
    # every oracle draws through the one draw loop, the gap oracle
    # directly and the others through random_hamiltonian
    expected = HamParams(**{"d": 1, "degree_cap": 12, **want})
    seen = []
    draws = verification._draws

    def record(params, *args, **kwargs):
        seen.append(params)
        return draws(params, *args, **kwargs)

    monkeypatch.setattr(verification, "_draws", record)
    verify_norm_lemma(name, params=p, samples=1)
    assert seen and all(hp == expected for hp in seen)


def test_gap_oracle_makes_no_layout(monkeypatch):
    # its radius-2048 draws would otherwise widen a layout that lives for
    # the process
    made = []
    init = _Layout.__init__

    def counting(self, params):
        made.append(params)
        init(self, params)

    monkeypatch.setattr(_Layout, "__init__", counting)
    case = verify_norm_lemma("gap", samples=50)
    assert case.violations == 0 and made == []


# sha256 of the float.hex of each single-draw gap margin at seeds 0..199,
# one line each.  The suite's gap row reads worst_margin 0 whatever is
# drawn (a two-factor term's gap is exactly 0), so only these pin the
# gap oracle's draws.  At d=2 radius 40 every mode lies below the floor,
# so all weights are equal and the margins pin the factor counts.
@pytest.mark.parametrize("params,digest", [
    ({}, "341c46b8547ad879ea18e9672cfb40d6227f0ce332fa125e0f91d3a16cf27042"),
    ({"d": 2, "mode_radius": 40},
     "d1a7c6fb1886684be4d8db93320c75b87480430aef9f02bef69377bbd66ad3c4"),
])
def test_gap_oracle_draws_are_pinned(params, digest):
    margins = [verify_norm_lemma("gap", params=params, samples=1,
                                 seed=s).worst_margin for s in range(200)]
    assert len(set(margins)) > 1       # the draws, not a constant
    text = "".join(m.hex() + "\n" for m in margins)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
