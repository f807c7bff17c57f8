"""Iteration schedule, one full KAM step, multi-step runs, TL defects.

One step: solve the homological equation in one pass over R0 + R1, push
the Hamiltonian through the time-1 Lie transform of F, re-split the
remainder into classes, absorb the resonant part into the normal form,
extract the frequency shift, and re-freeze the frequencies at the sampled
omega by moving the potential parameter: V* = omega - cumulative shift.

The remainder after the step is assembled from the exact series identity

    R+ = deferred + R2 + sum_{n>=1} [ ad_F^n(R0+R1+R2)/n!
                                      - ad_F^n(E)/(n+1)! ]

where E is the eliminated part of R0 + R1 ({N,F} = -E).  This is the
closed form of the bracket-integral bookkeeping: the first sum collects
the {R,F}-chains, the second the {{N,F},F}-chains, and class routing
falls out of J-collection of the summed remainder.  The sum is
:func:`nlskam.hamiltonian.lie_transform` with G = R0+R1+R2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import ValidationError
from .hamiltonian import (
    Hamiltonian,
    class_split,
    lie_transform,
    linear_combine,
    norm,
    prune,
    vf_sup_norm,
)
from .homological import (
    RHO0,
    NormalForm,
    homological_residual,
    solve_homological,
    truncation_budget,
)
from .lattice import _mode_sort_key, angle_norm, conservation_check
from .diophantine import DiophParams, sample_strong_frequency
from .nls import NlsConfig, build_cubic_nls, build_normal_form

STEP_CSV_SCHEMA = (
    "s,rho,eps,r0_before,r1_before,r2_before,r0_after,r1_after,r2_after,"
    "min_divisor,deferred_mass,shift_magnitude,vf_proxy,residual_rel,"
    "reality_defect,flags_ok,error_budget,wall_time")


@dataclass(frozen=True)
class ScheduleParams:
    """Closed-form iteration parameters at step s."""

    s: int
    delta_s: float
    rho_s: float
    eps_s: float
    eps_next: float
    lambda_s: float
    eta_s: float
    d_s: float
    delta_sum: float

    @property
    def rho_next(self):
        return self.rho_s + 3.0 * self.delta_s


def schedule(s: int, eps0: float) -> ScheduleParams:
    """Evaluate the iteration schedule at step s.

    rho_0 = (3 - 2 sqrt 2)/100, delta_s = rho_0 / ((s+4) ln^2(s+4)),
    rho_{s+1} = rho_s + 3 delta_s, eps_s = eps0^{(3/2)^s},
    lambda_s = eps_s^{0.01}, eta_{s+1} = lambda_s eta_s / 20 with
    eta_0 = lambda_0, d_{s+1} = d_s + 1/(pi^2 (s+1)^2) with d_0 = 0.
    """
    if not 0 < eps0 < 1:
        raise ValidationError("eps0 must lie in (0,1)")
    if s < 0:
        raise ValidationError("step index must be >= 0")
    rho = RHO0
    eta = eps0 ** 0.01
    dd = 0.0
    dsum = 0.0
    for i in range(s):
        delta = RHO0 / ((i + 4) * math.log(i + 4) ** 2)
        rho += 3.0 * delta
        dsum += delta
        eta *= (eps0 ** (1.5 ** i)) ** 0.01 / 20.0
        dd += 1.0 / (math.pi ** 2 * (i + 1) ** 2)
    delta = RHO0 / ((s + 4) * math.log(s + 4) ** 2)
    eps = eps0 ** (1.5 ** s)
    return ScheduleParams(
        s=s, delta_s=delta, rho_s=rho, eps_s=eps,
        eps_next=eps0 ** (1.5 ** (s + 1)), lambda_s=eps ** 0.01,
        eta_s=eta, d_s=dd, delta_sum=dsum + delta)


@dataclass(frozen=True)
class KamConfig:
    d: int = 1
    sigma: float = 2.5
    r: float = 1.0
    gamma: float = 0.1
    epsilon: float = 1e-6
    mode_radius: int = 2
    degree_cap: int = 16
    steps: int = 1
    seed: int = 0
    ell_budget: int = 6
    floor_const: float = 1024.0
    sign: int = 1
    prune_tol: float = 1e-18
    lie_order_cap: int = 3
    strict: bool = False
    force: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.prune_tol) and self.prune_tol >= 0):
            raise ValidationError(
                f"prune_tol must be finite and >= 0, got {self.prune_tol}")


@dataclass(frozen=True)
class KamState:
    nf: NormalForm
    R0: Hamiltonian
    R1: Hamiltonian
    R2: Hamiltonian
    s: int
    norms: tuple  # class_norms at this state's rho_s
    error_budget: float = 0.0


@dataclass
class StepReport:
    s: int
    rho: float
    eps: float
    norms_before: tuple
    norms_after: tuple
    min_divisor: float
    deferred_mass: float
    shift_magnitude: float
    vf_proxy: float
    residual_rel: float
    reality_defect: float
    flags: dict = field(default_factory=dict)
    error_budget: float = 0.0
    wall_time: float = 0.0

    def csv_row(self) -> str:
        vals = [self.s, self.rho, self.eps, *self.norms_before,
                *self.norms_after, self.min_divisor, self.deferred_mass,
                self.shift_magnitude, self.vf_proxy, self.residual_rel,
                self.reality_defect,
                int(all(self.flags.values())) if self.flags else 1,
                self.error_budget, self.wall_time]
        return ",".join(_fmt(v) for v in vals)


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def class_norms(R0, R1, R2, rho: float) -> tuple:
    return tuple(norm(R, "plus_rho", rho) for R in (R0, R1, R2))


def _conserving(H: Hamiltonian) -> bool:
    return all(conservation_check(k, kb) == (True, True)
               for (_, k, kb, _) in H.expanded().terms)


def kam_step(state: KamState, sched: ScheduleParams, cfg: KamConfig):
    """One full KAM step; returns (new state, report)."""
    t0 = time.perf_counter()
    before = state.norms
    flags = {
        "r0_bound": before[0] <= sched.eps_s * (1 + 1e-9),
        "r1_bound": before[1] <= sched.eps_s ** 0.6 * (1 + 1e-9),
        "r2_bound": before[2] <= (1 + sched.d_s) * _eps0_of(cfg)
        * (1 + 1e-9),
    }
    if not cfg.force and not all(flags.values()):
        raise ValidationError(f"state bounds violated: {flags}")

    guard = cfg.gamma * sched.eps_s ** 0.01
    B = truncation_budget(sched.s, _eps0_of(cfg))
    sol = solve_homological(state.R0, state.R1, state.nf, guard, B)
    resid, base = homological_residual(sol, state.R0, state.R1, state.nf)
    residual_rel = resid / base if base else 0.0

    # Lie series of the remainder; the ledger gets every mass truncated
    ledger = []
    G = linear_combine(
        1.0, linear_combine(1.0, state.R0, 1.0, state.R1),
        1.0, state.R2).expanded()
    start = linear_combine(1.0, sol.deferred, 1.0, state.R2)
    series = lie_transform(start, G, sol.F, cfg.lie_order_cap,
                           E=sol.eliminated, prune_tol=cfg.prune_tol,
                           ledger=ledger)
    ledger.append(series.charge)
    R_plus = prune(series.total.collected(), cfg.prune_tol, ledger)
    R0n, R1n, R2n = class_split(R_plus)

    # frequency shift from the resonant terms with one J-factor
    shift = {m: 0.0 for m in state.nf.modes}
    p = state.R0.params
    for (a, _, _, j), c in sol.resonant.terms.items():
        if len(j) != 1:
            continue
        val = c
        for mode, e in a:
            val *= p.action0(mode) ** e
        shift[j[0]] += val.real
    far_mode = sorted(state.nf.modes, key=_mode_sort_key)[0]
    limit = shift[far_mode]
    decay = {m: shift[m] - limit for m in state.nf.modes}
    shift_mag = max((abs(v) for v in shift.values()), default=0.0)
    decay_mag = max((abs(v) for v in decay.values()), default=0.0)

    # re-freeze the frequencies at omega: the parameter absorbs the shift
    cum = {m: state.nf.cum_shift.get(m, 0.0) + decay[m]
           for m in state.nf.modes}
    nf_new = NormalForm(
        v_breve=state.nf.v_breve + limit,
        v_hat=dict(state.nf.v_hat),
        modes=state.nf.modes, cum_shift=cum)

    # near-identity proxy for the transformation
    x_unit = {m: complex(math.exp(-p.r * p.weight(m)))
              for m in state.nf.modes}
    vf_proxy = vf_sup_norm(sol.F, x_unit, p.r)

    after_norms = class_norms(R0n, R1n, R2n, sched.rho_next)
    reality = max(R0n.check_reality(), R1n.check_reality(),
                  R2n.check_reality())
    flags.update({
        "r0_next": after_norms[0] <= sched.eps_next * (1 + 1e-9),
        "r1_next": after_norms[1] <= sched.eps_next ** 0.6 * (1 + 1e-9),
        "shift_bound": shift_mag <= sched.eps_next ** 0.55 + 1e-30,
        "vhat_step": decay_mag <= sched.eps_s ** 0.5 + 1e-30,
        "decay_envelope": all(
            abs(decay[m]) <= sched.eps_next ** 0.5 / angle_norm(m) + 1e-30
            for m in state.nf.modes),
        "vf_proxy": vf_proxy <= sched.eps_s ** 0.5 + 1e-30,
        "residual": residual_rel <= 1e-10,
        "lie_decay": series.decays,
        "lie_complete": not series.capped,
        "budget": sum(ledger) <= sched.eps_next,
        "conserving": _conserving(R0n) and _conserving(R1n)
        and _conserving(R2n),
        "reality": reality <= 1e-10 * max(1.0, base),
    })
    if cfg.strict and not all(flags.values()):
        raise ValidationError(f"strict mode: failed flags "
                              f"{[k for k, v in flags.items() if not v]}")

    new_budget = state.error_budget + sum(ledger)
    new_state = KamState(nf=nf_new, R0=R0n, R1=R1n, R2=R2n,
                         s=state.s + 1, norms=after_norms,
                         error_budget=new_budget)
    report = StepReport(
        s=sched.s, rho=sched.rho_s, eps=sched.eps_s,
        norms_before=before, norms_after=after_norms,
        min_divisor=sol.stats["min_divisor"],
        deferred_mass=sol.stats["deferred_mass"],
        shift_magnitude=shift_mag, vf_proxy=vf_proxy,
        residual_rel=residual_rel, reality_defect=reality, flags=flags,
        error_budget=new_budget, wall_time=time.perf_counter() - t0)
    return new_state, report


def _eps0_of(cfg) -> float:
    return cfg.epsilon / (2.0 * math.pi) ** cfg.d


def initial_state(cfg: KamConfig, omega=None):
    """Build the NLS Hamiltonian, sample omega, split into classes.

    A caller-supplied ``omega`` bypasses the strong-nonresonance sampler
    (useful for replaying a stored frequency); it is used as given.
    """
    nls_cfg = NlsConfig(
        d=cfg.d, mode_radius=cfg.mode_radius, epsilon=cfg.epsilon,
        sign=cfg.sign, sigma=cfg.sigma, r=cfg.r,
        floor_const=cfg.floor_const, degree_cap=cfg.degree_cap)
    H = build_cubic_nls(nls_cfg)
    if omega is None:
        dp = DiophParams(gamma=cfg.gamma, d=cfg.d,
                         ell_budget=cfg.ell_budget,
                         mode_radius=cfg.mode_radius)
        omega, _ = sample_strong_frequency(
            nls_cfg.ham_params.box_modes(), dp, cfg.seed)
    nf = build_normal_form(nls_cfg, omega)
    R0, R1, R2 = class_split(H)
    return KamState(nf=nf, R0=R0, R1=R1, R2=R2, s=0,
                    norms=class_norms(R0, R1, R2, RHO0)), H


def run(cfg: KamConfig, omega=None):
    """Run the requested number of KAM steps.

    Returns (reports, states, H) with H the NLS Hamiltonian the initial
    state was split from.
    """
    if cfg.steps < 0:
        raise ValidationError(f"steps must be >= 0, got {cfg.steps}")
    state, H = initial_state(cfg, omega)
    reports = []
    states = [state]
    sched0 = schedule(0, _eps0_of(cfg))
    if cfg.steps == 0:
        reports.append(StepReport(
            s=0, rho=sched0.rho_s, eps=sched0.eps_s, norms_before=state.norms,
            norms_after=state.norms, min_divisor=math.inf, deferred_mass=0.0,
            shift_magnitude=0.0, vf_proxy=0.0, residual_rel=0.0,
            reality_defect=max(state.R0.check_reality(),
                               state.R1.check_reality(),
                               state.R2.check_reality()),
            flags={"initial_norm":
                   norm(H, "sup_rho", sched0.rho_s) <= _eps0_of(cfg)
                   * (1 + 1e-12)}))
        return reports, states, H
    for s in range(cfg.steps):
        sched = schedule(s, _eps0_of(cfg))
        state, report = kam_step(state, sched, cfg)
        reports.append(report)
        states.append(state)
    return reports, states, H


def final_remainder_check(state: KamState, eps0: float,
                          rho: float = 0.2) -> tuple:
    """Compare the R2 remainder against the (7/6) eps0 convergence target."""
    val = norm(state.R2, "plus_rho", rho)
    return val, val <= (7.0 / 6.0) * eps0


# ---------------------------------------------------------------------------
# Toplitz-Lipschitz defect checker
# ---------------------------------------------------------------------------

def tl_defect(H: Hamiltonian, n, m, l, t_list, rho: float = 0.0):
    """Second-derivative defect table along translated mode pairs.

    For each t the three families are d^2H/dq_{n+tl} dq_{m-tl},
    d^2H/dq_{n+tl} dqbar_{m+tl} and d^2H/dqbar_{n+tl} dqbar_{m-tl}.  The
    t -> infinity limit is estimated by the largest-|t| entry; defects are
    star norms of the difference, and a least-squares constant of the
    C/|t| model is fitted per family.
    """
    from .hamiltonian import second_partial

    n, m, l = tuple(n), tuple(m), tuple(l)
    t_list = sorted(set(int(t) for t in t_list), key=lambda t: (abs(t), -t))
    if not t_list or 0 in t_list:
        raise ValidationError("t_list must be nonempty, nonzero integers")
    rad = H.params.mode_radius

    def shift(base, t, sign):
        mode = tuple(b + sign * t * c for b, c in zip(base, l))
        if any(abs(c) > rad for c in mode):
            raise ValidationError(
                f"translated mode {mode} outside radius {rad}")
        return mode

    fams = []
    for t in t_list:
        fams.append((
            t,
            second_partial(H, shift(n, t, 1), shift(m, t, -1), False, False),
            second_partial(H, shift(n, t, 1), shift(m, t, 1), False, True),
            second_partial(H, shift(n, t, 1), shift(m, t, -1), True, True),
        ))
    t_ref = max(t_list, key=lambda t: (abs(t), t))
    ref = next(f for f in fams if f[0] == t_ref)
    rows = []
    for t, d1, d2, d3 in fams:
        rows.append((t, *(norm(linear_combine(1.0, di, -1.0, ri),
                               "star_rho", rho)
                          for di, ri in zip((d1, d2, d3), ref[1:]))))
    fitted = []
    for fam_idx in range(3):
        num = sum(row[1 + fam_idx] / abs(row[0])
                  for row in rows if row[0] != t_ref)
        den = sum(1.0 / row[0] ** 2 for row in rows if row[0] != t_ref)
        fitted.append(num / den if den else 0.0)
    return rows, tuple(fitted)
