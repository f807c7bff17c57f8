"""Normal-form bookkeeping and the homological-equation solver.

The normal form is N = sum_n Omega_n |q_n|^2 with Omega_n = ||n||^2 +
Vbreve + Vhat_n.  One elimination step solves {N, F} + R0 + R1 = [R0] +
[R1] in one termwise pass over R0 + R1: resonant keys (k = k' = 0) are
kept as the new normal-form increment, nonresonant keys with small enough
tail weight are divided by the small divisor (k - k') . Omega, and
heavy-tailed keys are deferred to the next remainder untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SmallDivisorError, ValidationError
from .hamiltonian import (
    Hamiltonian,
    _Memo,
    key_layout,
    linear_combine,
    norm,
    poisson_bracket,
    split_terms,
)
from .lattice import mi_signed, sorted_system


@dataclass(frozen=True)
class NormalForm:
    """Frequency data of the quadratic normal form.

    ``v_hat`` maps every truncated mode to its n-dependent frequency part;
    after each freezing step it coincides with the sampled omega, while
    ``cum_shift`` tracks the decaying corrections absorbed into the
    parameter choice ``v_star`` so far.
    """

    v_breve: float
    v_hat: dict
    modes: tuple
    cum_shift: dict = field(default_factory=dict)

    def omega_tangential(self, mode) -> float:
        """Omega_n = ||n||^2 + Vbreve + Vhat_n (derived, never stored)."""
        return (sum(c * c for c in mode) + self.v_breve
                + self.v_hat.get(mode, 0.0))

    @property
    def v_star(self) -> dict:
        """V*_n = Vhat_n - cum_shift_n (derived, never stored)."""
        return {m: om - self.cum_shift.get(m, 0.0)
                for m, om in self.v_hat.items()}

    def as_hamiltonian(self, params) -> Hamiltonian:
        """N = sum_n Omega_n q_n qbar_n over the truncated mode set, whose
        modes must be ``params``' box modes and each Omega_n finite."""
        return Hamiltonian._from_box_products(params, (
            ((), (m,), (m,), complex(self.omega_tangential(m)))
            for m in self.modes))


@dataclass
class HomologicalSolution:
    """The generator F and the parts of R0 + R1 the solve sorted out.

    ``F`` and ``eliminated`` (R0 + R1 - resonant - deferred, the part
    {N, F} removes) are expanded; the residual and the Lie series read both.
    """

    F: Hamiltonian
    resonant: Hamiltonian
    deferred: Hamiltonian
    eliminated: Hamiltonian
    stats: dict


def divisor(k, k_bar, nf: NormalForm) -> float:
    """The small divisor sum_n (k_n - k'_n) Omega_n.

    The Vbreve contribution enters multiplied by the mass sum, so it
    cancels identically for mass-conserving keys.
    """
    signed = mi_signed(k, k_bar)
    total = 0.0
    mass = 0
    for mode, e in signed.items():
        total += e * (sum(c * c for c in mode) + nf.v_hat.get(mode, 0.0))
        mass += e
    return total + mass * nf.v_breve


def tail_weight(a, k, k_bar, jmodes, weights) -> float:
    """sum_{i>=3} w(n_i*) over the multiplicity-expanded sorted system.

    ``weights`` maps a mode to its weight, as the ``weights`` memo of a
    Hamiltonian's :func:`~nlskam.hamiltonian.key_layout` does.
    """
    system = sorted_system(a, k, k_bar, jmodes)
    return sum(weights[m] for m in system[2:])


RHO0 = (3.0 - 2.0 * math.sqrt(2.0)) / 100.0


def solve_homological(R0: Hamiltonian, R1: Hamiltonian, nf: NormalForm,
                      guard: float, B: float) -> HomologicalSolution:
    """Solve {N,F} + R0 + R1 = [R0] + [R1] termwise, in one routing pass.

    R0 and R1 must be in their J-collected class forms, so their keys
    are disjoint.  Raises SmallDivisorError when a required divisor
    falls below ``guard``.

    Terms are routed by their packed keys' blocks.  The divisor depends
    only on the (k, k_bar) block pair and the tail weight only on the
    mode multiset, the block 2a + k + k_bar + 2J (every count is at most
    ``degree_cap``, so no field carries).  So each call computes each
    divisor and tail weight once per distinct block pair or multiset, by
    :func:`divisor` and :func:`tail_weight`.  Only the keys the solver
    reports are decoded.
    """
    if guard <= 0:
        raise ValidationError("guard must be positive")
    lay = key_layout(R0)
    blocks, degree, decode = lay.blocks, lay.degrees, lay.decode
    weights = lay.weights
    divisors = _Memo(lambda kk: divisor(blocks[kk[0]], blocks[kk[1]], nf))
    # a multiset's counts passed as k, which sorted_system counts once;
    # decoded without filling the layout's block memo
    tails = _Memo(lambda m: tail_weight((), blocks.fn(m), (), (), weights))
    stats = {"min_divisor": math.inf, "solved_terms": 0, "deferred_terms": 0,
             "deferred_mass": 0.0, "quad_nonresonant": []}

    # parts: 0 F, 1 resonant, 2 deferred, 3 eliminated
    def route(x, a, k, kb, j, c):
        if not (k or kb):
            return ((1, c),)
        if degree[k] + degree[kb] == 2 and k != kb:
            stats["quad_nonresonant"].append(decode(x))
        if tails[2 * a + k + kb + 2 * j] > B:
            stats["deferred_terms"] += 1
            stats["deferred_mass"] += abs(c)
            return ((2, c),)
        D = divisors[k, kb]
        if abs(D) < guard:
            key = decode(x)
            raise SmallDivisorError(
                f"divisor {D:.3e} below guard {guard:.3e} "
                f"for k={key[1]}, k_bar={key[2]}", key=key, divisor=D)
        stats["solved_terms"] += 1
        stats["min_divisor"] = min(stats["min_divisor"], abs(D))
        return ((0, c / (1j * D)), (3, c))

    F, res, dfr, elim = split_terms((R0, R1), route, 4)
    return HomologicalSolution(F.expanded(), res, dfr, elim.expanded(), stats)


def homological_residual(sol: HomologicalSolution, R0, R1, nf: NormalForm):
    """Star norm (rho = 0) of {N,F} + R0' + R1' - [R0] - [R1] and the base.

    Primes denote the eliminated parts.  {N,F} is evaluated through the
    generic Poisson bracket, which pins the solver's phase convention
    independently of the divisor formula.  The base is the star norm of
    R0 + R1.
    """
    N = nf.as_hamiltonian(R0.params)
    residual = linear_combine(1.0, poisson_bracket(N, sol.F),
                              1.0, sol.eliminated)
    base = norm(linear_combine(1.0, R0, 1.0, R1), "star_rho", 0.0)
    return norm(residual, "star_rho", 0.0), base
