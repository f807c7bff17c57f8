"""Brute-force oracles for the scalar appendix lemmas and norm lemmas.

Scalar maxima are bracketed by a coarse grid plus golden-section
refinement; infinite sums and lattice products use exact partial sums
with convexity-based tail bounds.  The closed-form constants of the norm
lemmas overflow double precision at any feasible parameters, so every
"LHS <= C * RHS" comparison is carried out in log space with the log of
the constant evaluated directly from its formula, or +inf if that overflows.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CapacityError, DivergenceRiskError, ValidationError
from .hamiltonian import (
    COEFF_FLOOR,
    HamParams,
    Hamiltonian,
    lie_transform,
    multiply,
    norm,
    poisson_bracket,
    second_partial,
    vf_sup_norm,
)
from .lattice import mi, weighted_gap

SUITE_CSV_SCHEMA = "name,params,samples,violations,worst_margin,seconds"

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class LemmaCase:
    name: str
    params: dict
    samples: int
    seed: int
    violations: int = 0
    worst_margin: float = math.inf
    seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    def csv_row(self) -> str:
        digest = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        vals = [self.name, digest, str(self.samples), str(self.violations),
                format(self.worst_margin, ".17g"),
                format(self.seconds, ".17g")]
        return ",".join(vals)


def _golden_max(f, lo, hi, grid=10_000, iters=200):
    """Max of f on [lo, hi]: coarse grid then golden-section refinement."""
    xs = np.linspace(lo, hi, grid)
    vals = np.array([f(x) for x in xs])
    i = int(vals.argmax())
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid - 1)]
    c = b - GOLD * (b - a)
    d = a + GOLD * (b - a)
    for _ in range(iters):
        if f(c) > f(d):
            b, d = d, c
            c = b - GOLD * (b - a)
        else:
            a, c = c, d
            d = a + GOLD * (b - a)
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
    return max(vals[i], f((a + b) / 2.0))


# ---------------------------------------------------------------------------
# Scalar lemmas
# ---------------------------------------------------------------------------

def _case(name, params, samples, seed):
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return LemmaCase(name=name, params=dict(params), samples=samples,
                     seed=seed)


_HAM_FIELDS = frozenset(f.name for f in fields(HamParams))

# The HamParams values a lemma states over d 1 and degree cap 12.
_HAM_OWN = {"flow_bound": {"degree_cap": 64},
            "gap": {"degree_cap": 20, "mode_radius": 2048}}


def _default_params(p, **lemma):
    """A lemma's HamParams: HamParams' defaults, overridden by the
    lemma's values (d 1 and degree cap 12 unless ``lemma`` sets them),
    overridden by the keys of ``p`` that name HamParams fields."""
    ham = {k: v for k, v in p.items() if k in _HAM_FIELDS}
    return HamParams(**{"d": 1, "degree_cap": 12, **lemma, **ham})


def _run_case(name, params, samples, seed, oracle):
    """The case ``_case`` makes, run by ``oracle(case, hp)`` and timed.

    ``hp`` is the case's one HamParams, built once from its params over
    the lemma's own values in ``_HAM_OWN``; the oracle reads d, sigma and
    the floor from it and records its result on the case.
    """
    case = _case(name, params, samples, seed)
    hp = _default_params(case.params, **_HAM_OWN.get(name, {}))
    t0 = time.perf_counter()
    oracle(case, hp)
    case.seconds = time.perf_counter() - t0
    return case


def _tally(case, margins):
    """Record the list ``margins``' violations and worst value on ``case``.

    The one violation rule of every lemma but ``log_sum``: a margin is
    violated unless it is >= -1e-12, so a NaN margin is a violation, and
    it is the worst margin too.
    """
    case.violations = sum(not m >= -1e-12 for m in margins)
    case.worst_margin = (math.nan if any(map(math.isnan, margins))
                         else min(margins, default=math.inf))


def _log_superadditivity(case, hp):
    """ln^sigma(x+y) <= ln^sigma x + 1/2 ln^sigma y for c <= y <= x."""
    sigma = hp.sigma
    c = case.params["c"]
    rng = np.random.default_rng(case.seed)
    margins = []
    for i in range(case.samples):
        if i == 0:
            y, t = c, 1.0  # the corner is the tight spot
        else:
            y = c * math.exp(rng.uniform(0.0, math.log(1e6)))
            t = math.exp(rng.uniform(0.0, math.log(1e6)))
        x = t * y
        margins.append(math.log(x) ** sigma + 0.5 * math.log(y) ** sigma
                       - math.log(x + y) ** sigma)
    _tally(case, margins)


def _f_max(case, hp):
    """max_x e^{-delta x^sigma + x} <= exp{(1/delta)^(1/(sigma-1))}."""
    sigma = hp.sigma
    delta = case.params["delta"]
    x_star = (1.0 / (delta * sigma)) ** (1.0 / (sigma - 1.0))
    log_max = _golden_max(lambda x: -delta * x ** sigma + x,
                          0.0, 10.0 * x_star + 10.0)
    log_rhs = (1.0 / delta) ** (1.0 / (sigma - 1.0))
    case.notes["maximizer"] = x_star
    _tally(case, [log_rhs - log_max])


def _g_max(case, hp):
    """max_x x^p e^{-delta x} = (p/(e delta))^p at x = p/delta."""
    p = case.params["p"]
    delta = case.params["delta"]
    x_star = p / delta
    log_max = _golden_max(lambda x: p * math.log(max(x, 1e-300)) - delta * x,
                          0.0, 10.0 * x_star)
    log_rhs = p * math.log(p / (math.e * delta))
    case.notes["maximizer"] = x_star
    _tally(case, [log_rhs - log_max])


def _log_sum(case, hp):
    """sum_{j>=1} e^{-delta ln^sigma j} against both candidate bounds.

    The closed-form bound appears with two different inner exponents in
    the source material ((1/delta) versus (2/delta) inside the
    (.)^(1/(sigma-1)) factor); both are evaluated and reported.
    """
    sigma = hp.sigma
    delta = case.params["delta"]
    total = 0.0
    j = 1
    term = 1.0
    while term >= 1e-20:
        term = math.exp(-delta * math.log(j) ** sigma)
        total += term
        j += 1
        if j > 50_000_000:
            raise ValidationError("log-sum did not converge")
    # convexity tail: for x >= j the summand is dominated by a power law
    L = math.log(j)
    p = delta * sigma * L ** (sigma - 1.0)
    tail = (math.exp(-delta * L ** sigma) * j / (p - 1.0)
            if p > 1.0 else math.inf)
    lhs = total + tail
    rhs_statement = (6.0 / delta) * math.exp(
        (1.0 / delta) ** (1.0 / (sigma - 1.0)))
    rhs_proof = (6.0 / delta) * math.exp(
        (2.0 / delta) ** (1.0 / (sigma - 1.0)))
    case.notes["lhs"] = lhs
    case.notes["rhs_statement"] = rhs_statement
    case.notes["rhs_proof"] = rhs_proof
    case.notes["statement_holds"] = lhs <= rhs_statement
    case.notes["proof_holds"] = lhs <= rhs_proof
    case.worst_margin = min(rhs_statement - lhs, rhs_proof - lhs)
    case.violations = int(not (case.notes["statement_holds"]
                               or case.notes["proof_holds"]))


def _shell_counts(d, k_max):
    """Lattice point counts per sup-norm shell k = 0, 1, 2, ..."""
    for k in range(k_max + 1):
        if k == 0:
            yield 0, 1
        else:
            yield k, (2 * k + 1) ** d - (2 * k - 1) ** d


def _shell_sum(hp, per_mode):
    """sum over sup-norm shells k of count_k * per_mode(ln^sigma floor(k)).

    Shells are added in order k = 0, 1, ...; the walk stops after the
    first shell past the floor whose contribution is below 1e-18, and
    never goes past shell 10,000,099 (about 1e7 shells).  The weight is
    nondecreasing in k and constant on every shell up to the floor, so
    ``per_mode`` runs once per distinct weight and its value is reused
    while the weight repeats.
    """
    sigma, floor_const = hp.sigma, hp.floor_const
    total = 0.0
    last_w = value = None
    for kk, count in _shell_counts(hp.d, 10_000_099):
        w = math.log(max(floor_const, float(max(kk, 1)))) ** sigma
        if w != last_w:
            last_w, value = w, per_mode(w)
        term = count * value
        total += term
        if kk > floor_const and term < 1e-18:
            break
    return total


def _geometric_product(case, hp):
    """prod_n 1/(1 - e^{-delta ln^sigma floor(n)}) over Z^d, in log space.

    Euclidean norms dominate sup norms and the factor decreases in the
    norm, so grouping by sup-norm shells overestimates the left side.
    """
    sigma, d = hp.sigma, hp.d
    delta = case.params["delta"]
    log_lhs = _shell_sum(
        hp, lambda w: -math.log(1.0 - math.exp(-delta * w)))
    log_rhs = ((100.0 * d / delta ** 2) ** d
               * math.exp(d * (2.0 * d / delta) ** (1.0 / (sigma - 1.0))))
    case.notes["log_lhs"] = log_lhs
    case.notes["log_rhs"] = log_rhs
    _tally(case, [log_rhs - log_lhs])


def _poly_product(case, hp):
    """prod_n (1+a_n^p) e^{-2 delta a_n ln^sigma floor(n)} bound.

    Checked at the per-mode maximizers, which dominates every admissible
    choice of the a_n over all of Z^d.  A per-mode maximum of
    ln(1+a^p) - 2 delta a w is clamped to 0 once 2 delta w passes about
    0.8 (p = 2).  At the default floor 1024 every shell has w >= 126, so
    each maximum is 0: ``log_lhs`` is exactly 0, the margin is just
    ``log_rhs``, and the oracle cannot fail.  A low floor with a small
    delta gives positive maxima and a margin that can fail, e.g. floor 21
    with delta = 0.01 (2 delta w = 0.21 at sigma 2.1, 0.32 at sigma 2.5).
    """
    sigma, d = hp.sigma, hp.d
    delta = case.params["delta"]
    p = case.params["p"]

    def log1p_pow(a):
        # ln(1 + a^p), as p ln a + log1p(a^-p) where a^p overflows
        a = float(a)
        try:
            return math.log1p(a ** p)
        except OverflowError:
            return p * math.log(a) + math.log1p(a ** -p)

    def per_mode(w):
        return max(_golden_max(
            lambda a: log1p_pow(a) - 2.0 * delta * a * w,
            0.0, 10.0 * p / (2.0 * delta * w) + 10.0, grid=400), 0.0)

    log_lhs = _shell_sum(hp, per_mode)
    log_rhs = (3.0 * d * p * (p / delta) ** (1.0 / (sigma - 1.0))
               * math.exp((1.0 / delta) ** (1.0 / sigma)))
    case.notes["log_lhs"] = log_lhs
    case.notes["log_rhs"] = log_rhs
    _tally(case, [log_rhs - log_lhs])


SCALAR_LEMMAS = {
    "log_superadditivity": _log_superadditivity,
    "f_max": _f_max,
    "g_max": _g_max,
    "log_sum": _log_sum,
    "geometric_product": _geometric_product,
    "poly_product": _poly_product,
}

# Default parameters and sample counts.  A count of 1 marks a
# deterministic lemma: it is evaluated once and records samples=1,
# whatever count is requested.
SCALAR_DEFAULTS = {
    "log_superadditivity": ({"sigma": 2.5, "c": 1024.0}, 10_000),
    "f_max": ({"sigma": 2.5, "delta": 0.3}, 1),
    "g_max": ({"p": 2.0, "delta": 0.5}, 1),
    "log_sum": ({"sigma": 2.5, "delta": 0.3}, 1),
    "geometric_product": ({"sigma": 2.5, "delta": 0.3, "d": 1}, 1),
    "poly_product": ({"sigma": 2.5, "delta": 0.3, "d": 1, "p": 2}, 1),
}


def verify_scalar_lemma(name, params=None, samples=None, seed=0) -> LemmaCase:
    if name not in SCALAR_LEMMAS:
        raise ValidationError(f"unknown scalar lemma {name!r}")
    defaults, default_samples = SCALAR_DEFAULTS[name]
    merged = {**defaults, **(params or {})}
    if not 0 < merged.get("delta", 0.5) < 1:
        raise ValidationError("delta must lie in (0,1)")
    if not 1 <= merged.get("c", 1) < math.inf:
        raise ValidationError(f"c must be finite and >= 1, got {merged['c']}")
    if not 0 < merged.get("p", 1) < math.inf:
        raise ValidationError(f"p must be finite and > 0, got {merged['p']}")
    if name == "poly_product" and not 1 <= merged["p"] <= 200:
        # below 1 every per-mode maximum is positive and the walk runs to
        # its 1e7-shell cap; above 200 it searches ever more shells (over
        # 4e5 at p 1000 and the default delta, sigma and floor)
        raise ValidationError(
            f"poly_product needs p in [1, 200], got {merged['p']}")
    case = _run_case(name, merged,
                     default_samples if samples is None else samples, seed,
                     SCALAR_LEMMAS[name])
    if default_samples == 1:
        case.samples = 1
    return case


# ---------------------------------------------------------------------------
# Random conserving Hamiltonians
# ---------------------------------------------------------------------------

def random_hamiltonian(params: HamParams, rng, n_terms=6, max_factors=4,
                       max_actions=1):
    """Random momentum-conserving Hamiltonian with unit-disk coefficients,
    the terms ``_draws`` yields, packed as they are drawn.  Raises
    CapacityError on the first kept term above ``degree_cap``, as the
    Hamiltonian constructor does.
    """
    return Hamiltonian._from_box_products(
        params, _draws(params, rng, n_terms, max_factors, max_actions))


def _draws(params, rng, n_terms, max_factors, max_actions):
    """Yield up to n_terms random momentum-conserving draws (a, k, k_bar,
    c): the action, q and qbar factors as lists of the box's own mode
    tuples, one entry per factor, and a unit-disk coefficient.

    Factors are drawn uniformly over the truncation box with mass split
    evenly between q and qbar factors; the momentum defect is repaired by
    moving the last q-factor, resampling when the repaired mode leaves
    the box.  Fewer draws come after 1000 * n_terms tries.

    Each bounded int is the one a scalar ``rng.integers`` call would give
    (``_bounded``), at less than half its cost: 0.52 against 1.15 us a
    draw in process on a 2-vCPU x86_64 VM, of which 0.31 us is the bit
    generator's ``next_uint32``.  The lock is held over a draw's ints as
    Generator holds it over an array draw.  ``rng.random()`` shares their
    stream and its uint32 buffer: it is uniform(0, 1) bit for bit, and
    2 pi random() is uniform(0, 2 pi).  Bad factor or action counts raise
    ValidationError before anything is drawn.
    """
    if max_factors < 2 or max_actions < 0:
        raise ValidationError("random terms need max_factors >= 2 and "
                              f"max_actions >= 0, got {max_factors} and "
                              f"{max_actions}")
    rad, side = params.mode_radius, 2 * params.mode_radius + 1
    modes = params.box_modes()
    n_modes = len(modes)
    bits = rng.bit_generator
    draw = functools.partial(_bounded, bits.ctypes.next_uint32,
                             bits.ctypes.state)
    kept = 0
    guard = 0
    while kept < n_terms and guard < 1000 * n_terms:
        guard += 1
        with bits.lock:
            half = 1 + draw(max_factors // 2)
            k = [modes[draw(n_modes)] for _ in range(half)]
            kb = [modes[draw(n_modes)] for _ in range(half)]
            a = [modes[draw(n_modes)] for _ in range(draw(max_actions + 1))]
        # the momentum defect sum(k) - sum(kb) is linear in the modes; the
        # repaired mode is the box's own tuple, at its mixed-radix index in
        # the sorted box
        idx = 0
        for i, c in enumerate(k[-1]):
            for m in k:
                c -= m[i]
            for m in kb:
                c += m[i]
            if not -rad <= c <= rad:
                idx = -1
                break
            idx = idx * side + c + rad
        if idx < 0:
            continue
        k[-1] = modes[idx]
        radius = math.sqrt(rng.random())
        phase = 2.0 * math.pi * rng.random()
        kept += 1
        yield a, k, kb, radius * complex(math.cos(phase), math.sin(phase))


def _bounded(next_uint32, state, n) -> int:
    """An int in [0, n), 1 <= n <= 2**32, as ``Generator.integers(0, n)``
    draws it from the bit generator's uint32 stream: Lemire's
    multiply-shift (m = u * n, the result m >> 32), with u redrawn while
    the low word of m is below (2**32 - n) % n.  A range of 1 draws
    nothing.  The caller holds the bit generator's lock.
    """
    if n == 1:
        return 0
    reject = (0x100000000 - n) % n
    m = next_uint32(state) * n
    while m & 0xFFFFFFFF < reject:
        m = next_uint32(state) * n
    return m >> 32


def random_state(params: HamParams, rng, rho):
    """Random state with sup_n |q_n| e^{rho w(n)} <= 1."""
    out = {}
    for m in params.box_modes():
        mag = rng.uniform(0.0, 1.0) * math.exp(-rho * params.weight(m))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out[m] = mag * complex(math.cos(phase), math.sin(phase))
    return out


# ---------------------------------------------------------------------------
# Norm lemmas
# ---------------------------------------------------------------------------

def _log(x):
    return math.log(x) if x > 0 else -math.inf


def _inf_on_overflow(log_constant):
    """``log_constant``, but +inf where its value leaves the double range:
    on an overflow, or on a division by a delta ** 2 that underflowed."""
    @functools.wraps(log_constant)
    def wrapped(*args):
        try:
            return log_constant(*args)
        except (OverflowError, ZeroDivisionError):
            return math.inf
    return wrapped


@_inf_on_overflow
def log_bracket_constant(d, sigma, delta1, delta2):
    """log of (1/delta2) exp{3 (14400 d/delta1^2)^d exp{d (24 d/delta1)^(1/(sigma-1))}}."""
    return (-math.log(delta2)
            + 3.0 * (14400.0 * d / delta1 ** 2) ** d
            * math.exp(d * (24.0 * d / delta1) ** (1.0 / (sigma - 1.0))))


@_inf_on_overflow
def log_vf_constant(d):
    """log of C1(d) = exp{10 d (8000 d)^d e^{20 d^2}}."""
    return 10.0 * d * (8000.0 * d) ** d * math.exp(20.0 * d * d)


@_inf_on_overflow
def log_second_derivative_constant(d, sigma, delta):
    """log of (12/(e delta))^2 exp{(3600 d/delta^2)^d exp{d (12 d/delta)^(1/(sigma-1))}}."""
    return (2.0 * math.log(12.0 / (math.e * delta))
            + (3600.0 * d / delta ** 2) ** d
            * math.exp(d * (12.0 * d / delta) ** (1.0 / (sigma - 1.0))))


@_inf_on_overflow
def log_transfer_up_constant(d, sigma, delta):
    """log of exp{10 d (10/delta)^(1/(sigma-1)) exp{(10/delta)^(1/sigma)}}."""
    return (10.0 * d * (10.0 / delta) ** (1.0 / (sigma - 1.0))
            * math.exp((10.0 / delta) ** (1.0 / sigma)))


def _check_monotonicity(rng, hp, p):
    H = random_hamiltonian(hp, rng)
    rho = rng.uniform(0.0, 0.4)
    delta = rng.uniform(0.0, 0.4)
    lhs = norm(H, "star_rho", rho + delta)
    rhs = norm(H, "star_rho", rho)
    return (rhs - lhs) / max(rhs, 1e-300)


def _check_submultiplicativity(rng, hp, p):
    H1 = random_hamiltonian(hp, rng, n_terms=4)
    H2 = random_hamiltonian(hp, rng, n_terms=4)
    rho = rng.uniform(0.0, 0.5)
    lhs = norm(multiply(H1, H2), "star_rho", rho)
    rhs = norm(H1, "star_rho", rho) * norm(H2, "star_rho", rho)
    return (rhs - lhs) / max(rhs, 1e-300)


def _check_transfer_up(rng, hp, p):
    H = random_hamiltonian(hp, rng)
    rho = rng.uniform(0.0, 0.3)
    delta = rng.uniform(0.05, 0.3)
    log_lhs = _log(norm(H, "plus_rho", rho + delta))
    log_rhs = (log_transfer_up_constant(hp.d, hp.sigma, delta)
               + _log(norm(H, "sup_rho", rho)))
    return log_rhs - log_lhs


def _check_transfer_down(rng, hp, p):
    H = random_hamiltonian(hp, rng)
    rho = rng.uniform(0.0, 0.3)
    delta = rng.uniform(0.05, 0.3)
    lhs = norm(H, "sup_rho", rho + delta)
    rhs = (64.0 / (math.e ** 2 * delta ** 2)) * norm(H, "plus_rho", rho)
    return (rhs - lhs) / max(rhs, 1e-300)


def bracket_bound(H1, H2, rho, delta1, delta2):
    """The bracket B = {H1, H2} and both log sides of its sup-norm bound.

    Returns (B, log ||B||_rho, log C(delta1, delta2) + log ||H1||_{rho-delta1}
    + log ||H2||_{rho-delta2}), added in that order.  A zero or underflowed
    operand norm makes the right side -inf whatever C is: no side is NaN.
    """
    p = H1.params
    B = poisson_bracket(H1, H2)
    n1 = norm(H1, "sup_rho", rho - delta1)
    n2 = norm(H2, "sup_rho", rho - delta2)
    log_rhs = (log_bracket_constant(p.d, p.sigma, delta1, delta2)
               + math.log(n1) + math.log(n2) if n1 > 0 and n2 > 0
               else -math.inf)
    return B, _log(norm(B, "sup_rho", rho)), log_rhs


def _check_bracket_bound(rng, hp, p):
    H1 = random_hamiltonian(hp, rng, n_terms=4)
    H2 = random_hamiltonian(hp, rng, n_terms=4)
    rho = rng.uniform(0.05, 0.15)
    dmax = min(rho / 4.0, 3.0 - 2.0 * math.sqrt(2.0))
    d1 = rng.uniform(0.2 * dmax, 0.96 * dmax)
    d2 = rng.uniform(0.2 * dmax, 0.96 * dmax)
    _, log_lhs, log_rhs = bracket_bound(H1, H2, rho, d1, d2)
    # both sides -inf: 0 <= C * 0 holds with equality
    return 0.0 if log_rhs == log_lhs else log_rhs - log_lhs


def _check_vector_field(rng, hp, p):
    H = random_hamiltonian(hp, rng)
    x = random_state(hp, rng, hp.r)
    rho = p.get("rho", 0.1)
    log_lhs = _log(vf_sup_norm(H, x, hp.r))
    log_rhs = log_vf_constant(hp.d) + _log(norm(H, "sup_rho", rho))
    return log_rhs - log_lhs


def _check_second_derivative(rng, hp, p):
    H = random_hamiltonian(hp, rng)
    modes = hp.box_modes()
    m = tuple(modes[rng.integers(0, len(modes))])
    l = tuple(modes[rng.integers(0, len(modes))])
    rho = rng.uniform(0.0, 0.3)
    delta = rng.uniform(0.05, 0.3)
    D = second_partial(H, m, l, bool(rng.integers(0, 2)),
                       bool(rng.integers(0, 2)))
    log_lhs = _log(norm(D, "star_rho", rho + delta))
    log_rhs = (log_second_derivative_constant(hp.d, hp.sigma, delta)
               + _log(norm(H, "sup_rho", rho)))
    return log_rhs - log_lhs


def _check_flow_bound(rng, hp, p):
    H = random_hamiltonian(hp, rng, n_terms=4)
    F = random_hamiltonian(hp, rng, n_terms=3).scale(p.get("f_scale", 1e-4))
    rho = rng.uniform(0.05, 0.15)
    delta = rng.uniform(0.2 * rho, 0.9 * rho)
    HE = H.expanded()
    series = lie_transform(HE, HE, F, order_cap=4)
    if not series.decays:
        raise DivergenceRiskError(
            "Lie-series term norms not decaying: "
            + " -> ".join(f"{t:.3e}" for t in series.norms))
    if series.capped:
        raise CapacityError(
            f"Lie series of F exceeds the degree cap {hp.degree_cap}")
    log_lhs = _log(norm(series.total, "sup_rho", rho))
    log_c = (math.log(4.0 * math.e / delta)
             + log_bracket_constant(hp.d, hp.sigma, delta, delta)
             + math.log(delta))  # drop the 1/delta2 factor: plain C here
    log_f = _log(norm(F, "sup_rho", rho - delta))
    log_h = _log(norm(H, "sup_rho", rho - delta))
    # log(1 + C ||F||) via logaddexp
    log_factor = np.logaddexp(0.0, log_c + log_f)
    return (log_factor + log_h) - log_lhs


def _check_gap(rng, hp, p):
    # 0.0 when nothing is kept, as for the zero Hamiltonian
    for a, k, kb, c in _draws(hp, rng, 1, 6, 2):
        if abs(c) >= COEFF_FLOOR:
            return weighted_gap(*(mi((m, 1) for m in f) for f in (a, k, kb)),
                                hp)
    return 0.0


NORM_LEMMAS = {
    "monotonicity": _check_monotonicity,
    "submultiplicativity": _check_submultiplicativity,
    "transfer_up": _check_transfer_up,
    "transfer_down": _check_transfer_down,
    "bracket_bound": _check_bracket_bound,
    "vector_field_bound": _check_vector_field,
    "second_derivative_bound": _check_second_derivative,
    "flow_bound": _check_flow_bound,
    "gap": _check_gap,
}


def verify_norm_lemma(name, params=None, samples=None, seed=0) -> LemmaCase:
    if name not in NORM_LEMMAS:
        raise ValidationError(f"unknown norm lemma {name!r}")
    check = NORM_LEMMAS[name]

    def oracle(case, hp):
        rng = np.random.default_rng(case.seed)
        _tally(case, [check(rng, hp, case.params)
                      for _ in range(case.samples)])

    return _run_case(name, params or {}, 100 if samples is None else samples,
                     seed, oracle)


def run_suite(samples_scalar=None, samples_norm=None, seed=0, names=None):
    """LemmaCases of the named lemmas, in order; default all, scalar first."""
    if names is None:
        names = [*SCALAR_LEMMAS, *NORM_LEMMAS]
    cases = []
    for name in names:
        if name in SCALAR_LEMMAS:
            cases.append(verify_scalar_lemma(name, samples=samples_scalar,
                                             seed=seed))
        elif name in NORM_LEMMAS:
            cases.append(verify_norm_lemma(name, samples=samples_norm,
                                           seed=seed))
        else:
            raise ValidationError(f"unknown lemma {name!r}")
    return cases
