"""Truncated cubic NLS Hamiltonian and its starting normal form.

The quartic interaction keeps one monomial q^k qbar^k' per admissible
pair |k| = |k'| = 2 with mass and momentum conservation, each with the
flat coefficient +-eps / (2 pi)^d.  The ``physical_multiplicity`` keyword
of :func:`build_cubic_nls` multiplies in the multinomial counts of the
physical |u|^4 expansion instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import ValidationError
from .hamiltonian import _LAYOUTS, HamParams, Hamiltonian
from .homological import NormalForm
from .lattice import _refuse_beyond_memory, check_box_modes


@dataclass(frozen=True)
class NlsConfig:
    """The equation: its lattice and weight data, and the nonlinearity."""

    params: HamParams
    epsilon: float
    sign: int = 1

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be > 0")
        if self.epsilon == math.inf:
            raise ValidationError("epsilon must be finite, got inf")
        if self.sign not in (1, -1):
            raise ValidationError("sign must be +1 or -1")


def _pair_multiplicity(pair) -> int:
    # multinomial 2!/prod(counts!) of a 2-multiset
    return 1 if pair[0] == pair[1] else 2


def _term_count(d, radius) -> int:
    """The number of terms of ``build_cubic_nls``, sum_s U(s)^2 with U(s)
    the unordered mode pairs summing to s: U(s) = (P(s) + D(s)) / 2, with
    P(s) = prod_i n(s_i) ordered pairs, n(t) = 2 radius + 1 - |t|, and
    D(s) = 1 when every s_i is even (s/2 paired with itself), else 0."""
    n = [2 * radius + 1 - abs(t) for t in range(-2 * radius, 2 * radius + 1)]
    return (sum(x * x for x in n) ** d + 2 * sum(n[::2]) ** d
            + (2 * radius + 1) ** d) // 4


def build_cubic_nls(cfg: NlsConfig,
                    physical_multiplicity: bool = False) -> Hamiltonian:
    """Quartic interaction of the cubic NLS on the truncated box.

    Raises CapacityError, before building anything, when its terms exceed
    physical memory at 200 B each plus the largest packed key's int,
    24 + 4 ceil(4 w n / 30) B for n box modes and field width w."""
    params = cfg.params
    terms = _term_count(params.d, params.mode_radius)
    bits = 4 * _LAYOUTS[params].w * (2 * params.mode_radius + 1) ** params.d
    _refuse_beyond_memory(f"cubic NLS Hamiltonian of {terms:,} terms",
                          (200 + 24 + 4 * -(-bits // 30)) * terms)
    modes = params.box_modes()
    base = cfg.sign * cfg.epsilon / (2.0 * math.pi) ** params.d
    by_sum = {}
    for pair in combinations_with_replacement(modes, 2):
        key = tuple(x + y for x, y in zip(*pair))
        by_sum.setdefault(key, []).append(pair)
    mult = _pair_multiplicity if physical_multiplicity else None
    return Hamiltonian._from_box_products(params, (
        ((), kp, kbp, base * (mult(kp) * mult(kbp)) if mult else base)
        for pairs in by_sum.values() for kp in pairs for kbp in pairs))


def build_normal_form(cfg: NlsConfig, omega: dict) -> NormalForm:
    """Starting normal form: Vbreve = 0, Vhat = omega, V* = omega."""
    modes = tuple(cfg.params.box_modes())
    for m in modes:
        if m not in omega:
            raise ValidationError(f"omega missing mode {m}")
    check_box_modes(omega, cfg.params.d, cfg.params.mode_radius)
    v_hat = {m: float(omega[m]) for m in modes}
    return NormalForm(v_breve=0.0, v_hat=v_hat, modes=modes,
                      cum_shift={m: 0.0 for m in modes})
