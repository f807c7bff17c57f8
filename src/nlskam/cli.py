"""Command-line front door: build, run, check, measure, report.

Subcommands: build-nls, kam-run, norms, bracket, dioph-check, measure,
verify-lemmas, tl-check.  Exit codes: 0 success, 1 validation error, 2
small-divisor error, 3 capacity/divergence error.

The default seed comes from the NLSKAM_SEED environment variable; a
``--config`` file of ``key = value`` lines overrides any flag.  CSV
outputs start with a schema header line and carry every float at 17
significant digits, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys

from .diophantine import (
    MEASURE_CSV_SCHEMA,
    check_frequency,
    frequency_loads,
    resonance_measure,
)
from .driver import STEP_CSV_SCHEMA, KamConfig, _fmt, run, tl_defect
from .errors import (
    CapacityError,
    DivergenceRiskError,
    SmallDivisorError,
    ValidationError,
)
from .hamiltonian import HamParams, Hamiltonian, linear_combine, norm
from .nls import NlsConfig, build_cubic_nls
from .verification import SUITE_CSV_SCHEMA, bracket_bound, run_suite

TL_CSV_SCHEMA = "t,defect_qq,defect_qqbar,defect_qbarqbar"


def _env_seed() -> int:
    raw = os.environ.get("NLSKAM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"NLSKAM_SEED must be an integer, got {raw!r}")


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as ValidationError (exit code 1)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read a negative number such as -1e-18 as a value, not an option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValidationError(message)


def _write(path, doc):
    """Write ``doc``, a str or a Hamiltonian, to the file ``path`` or, for
    None or "-", to stdout, where it ends in a newline.  A Hamiltonian's
    document is written term by term, by ``Hamiltonian.dump``.

    A file at ``path`` is replaced by a new one with its permission bits
    when it is a regular file, not a symlink, with no other link, owned by
    us and writable by its owner: on ext4, truncating a freshly written
    file, or renaming a file over it, flushes it to disk first, which made
    a ``kam-run`` into an existing ``--out-prefix`` several times slower.
    Any other target, such as /dev/null, a FIFO, a symlink or a read-only
    file, is opened in place, so a file we may not write is refused.
    """
    ham = isinstance(doc, Hamiltonian)
    emit = doc.dump if ham else (lambda fh: fh.write(doc))
    if path in (None, "-"):
        emit(sys.stdout)
        if ham or not doc.endswith("\n"):
            sys.stdout.write("\n")
        return
    mode = 0o666                # open()'s own, less the umask
    try:
        st = os.lstat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                and st.st_uid == os.geteuid() and st.st_mode & stat.S_IWUSR):
            os.unlink(path)
            mode = stat.S_IMODE(st.st_mode)
    except OSError:
        pass                    # no file there, or it stays: open decides
    try:
        with open(path, "w",
                  opener=lambda p, flags: os.open(p, flags, mode)) as fh:
            emit(fh)
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def _apply_config(parser, argv, args):
    """Override parsed flags with ``key = value`` lines from the file.

    Value lines are re-parsed as ``--key=value`` flags after ``argv``, so
    argparse types them; a repeatable key's lines replace its list.
    """
    if not getattr(args, "config", None):
        return args
    flags, switches = [], {}
    for line_no, raw in enumerate(_read(args.config).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        dest, where = key.replace("-", "_"), f"{args.config}:{line_no}"
        if not eq:
            raise ValidationError(f"{where}: expected key = value")
        if dest in ("command", "config") or not hasattr(args, dest):
            raise ValidationError(f"{where}: unknown key {key!r}")
        if not isinstance(getattr(args, dest), bool):
            flags.append(f"--{dest.replace('_', '-')}={val}")
        elif val.lower() in ("1", "true", "yes", "0", "false", "no"):
            switches[dest] = val.lower() in ("1", "true", "yes")
        else:
            raise ValidationError(
                f"{where}: {key} must be true or false, got {val!r}")
    try:
        new = parser.parse_args([*argv, *flags])
    except ValidationError as e:
        raise ValidationError(f"{args.config}: {e}") from None
    for dest, old in vars(args).items():
        vals = getattr(new, dest)
        if isinstance(vals, list) and vals != old:
            setattr(new, dest, vals[len(old or ()):])
    vars(new).update(switches)
    return new


def _add_common(p):
    p.add_argument("--config", help="key = value file overriding flags")


# every command takes its KAM and lattice defaults from here
_DEFAULTS = KamConfig()


def _add_box_flags(p):
    lat = _DEFAULTS.nls.params
    p.add_argument("--d", type=int, default=lat.d)
    p.add_argument("--radius", type=int, default=lat.mode_radius,
                   help="truncation box half-width")


def _add_nls_flags(p):
    nls = _DEFAULTS.nls
    lat = nls.params
    _add_box_flags(p)
    p.add_argument("--sigma", type=float, default=lat.sigma)
    p.add_argument("--r", type=float, default=lat.r)
    p.add_argument("--floor", type=float, default=lat.floor_const,
                   help="weight floor constant")
    p.add_argument("--degree-cap", type=int, default=lat.degree_cap)
    p.add_argument("--eps", type=float, default=nls.epsilon)
    p.add_argument("--sign", type=int, default=nls.sign, choices=(1, -1))


_SEED_HELP = "default: the NLSKAM_SEED environment variable, else 0"


def build_parser() -> _Parser:
    top = _Parser(prog="nlskam",
                  description="KAM normal-form engine for the cubic NLS")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-nls", parents=[], help="emit the truncated "
                       "cubic NLS Hamiltonian as a JSON file")
    _add_nls_flags(p)
    p.add_argument("--physical-multiplicity", action="store_true")
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser("kam-run", help="run KAM steps; emit step CSV and "
                       "per-step Hamiltonian dumps")
    _add_nls_flags(p)
    p.add_argument("--gamma", type=float, default=_DEFAULTS.gamma)
    p.add_argument("--steps", type=int, default=_DEFAULTS.steps)
    p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p.add_argument("--ell-budget", type=int, default=_DEFAULTS.ell_budget)
    p.add_argument("--prune-tol", type=float, default=_DEFAULTS.prune_tol)
    p.add_argument("--lie-order-cap", type=int,
                   default=_DEFAULTS.lie_order_cap)
    p.add_argument("--strict", action="store_true",
                   help="raise on any failed per-step bound")
    p.add_argument("--force", action="store_true",
                   help="continue past violated entry bounds")
    p.add_argument("--out-prefix", default="kam")
    p.add_argument("--freq", default=None,
                   help="frequency file to use instead of sampling; a mode "
                   "outside the box is an error (exit 1)")
    p.add_argument("--timings", action="store_true",
                   help="write real wall times (breaks byte-for-byte "
                   "reproducibility of the CSV)")
    _add_common(p)

    p = sub.add_parser("norms", help="print the three norms of a "
                       "Hamiltonian file at a given rho")
    p.add_argument("file")
    p.add_argument("--rho", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("bracket", help="Poisson bracket of two Hamiltonian "
                       "files, with the norm-bound check")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--delta1", type=float, default=0.004)
    p.add_argument("--delta2", type=float, default=0.004)
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser("dioph-check", help="check a frequency file against "
                       "both strong nonresonance conditions")
    p.add_argument("file", help="a mode outside the box is an error (exit 1)")
    p.add_argument("--gamma", type=float, default=_DEFAULTS.gamma)
    p.add_argument("--ell-budget", type=int, default=_DEFAULTS.ell_budget)
    _add_box_flags(p)
    _add_common(p)

    p = sub.add_parser("measure", help="Monte Carlo resonant-measure "
                       "estimate, one CSV row per gamma")
    p.add_argument("--gamma", type=float, action="append", default=None,
                   help="repeatable; default 0.01 0.05 0.1")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p.add_argument("--ell-budget", type=int, default=4)
    _add_box_flags(p)
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser("verify-lemmas", help="run the lemma oracle suite; "
                       "one CSV row per case")
    p.add_argument("--lemma", action="append", default=None,
                   help="repeatable; default: every registered lemma")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p.add_argument("--out", default="-")
    p.add_argument("--timings", action="store_true",
                   help="write real per-case seconds (breaks byte-for-byte "
                   "reproducibility of the CSV)")
    _add_common(p)

    p = sub.add_parser("tl-check", help="translation-defect table of the "
                       "second derivatives of a Hamiltonian file")
    p.add_argument("file")
    p.add_argument("--n", required=True, help="comma-separated mode")
    p.add_argument("--m", required=True, help="comma-separated mode")
    p.add_argument("--l", required=True, help="comma-separated direction")
    p.add_argument("--t", type=int, action="append", required=True,
                   help="repeatable translation amounts (nonzero)")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--out", default="-")
    _add_common(p)

    return top


def _mode(text, d) -> tuple:
    try:
        mode = tuple(int(c) for c in text.split(","))
    except ValueError as e:
        raise ValidationError(f"bad mode {text!r}") from e
    if len(mode) != d:
        raise ValidationError(f"mode {text!r} has dimension {len(mode)}, "
                              f"expected {d}")
    return mode


def _nls_config(args) -> NlsConfig:
    params = HamParams(d=args.d, sigma=args.sigma, r=args.r,
                       floor_const=args.floor, degree_cap=args.degree_cap,
                       mode_radius=args.radius)
    return NlsConfig(params, epsilon=args.eps, sign=args.sign)


def _cmd_build_nls(args):
    H = build_cubic_nls(_nls_config(args), args.physical_multiplicity)
    _write(args.out, H)
    return 0


def _cmd_kam_run(args):
    cfg = KamConfig(
        _nls_config(args), gamma=args.gamma, steps=args.steps,
        seed=args.seed, ell_budget=args.ell_budget,
        prune_tol=args.prune_tol, lie_order_cap=args.lie_order_cap,
        strict=args.strict, force=args.force)
    omega = (frequency_loads(_read(args.freq), args.d) if args.freq
             else None)
    reports, states, H0 = run(cfg, omega)
    if not args.timings:
        for rep in reports:
            rep.wall_time = 0.0
    lines = [STEP_CSV_SCHEMA]
    lines.extend(rep.csv_row() for rep in reports)
    _write(f"{args.out_prefix}.steps.csv", "\n".join(lines) + "\n")
    _write(f"{args.out_prefix}.step0.json", H0.dumps())
    for i, st in enumerate(states[1:], 1):
        total = linear_combine(1.0, linear_combine(1.0, st.R0, 1.0, st.R1),
                               1.0, st.R2)
        _write(f"{args.out_prefix}.step{i}.json", total.dumps())
    return 0


def _cmd_norms(args):
    H = Hamiltonian.loads(_read(args.file))
    # all three first: a refused rho must leave stdout empty
    values = [(kind, norm(H, kind, args.rho))
              for kind in ("sup_rho", "star_rho", "plus_rho")]
    for kind, value in values:
        print(f"{kind} {_fmt(value)}")
    return 0


def _cmd_bracket(args):
    # the bound reads the operands' norms at rho - delta
    if not (0 < args.delta1 <= args.rho and 0 < args.delta2 <= args.rho):
        raise ValidationError(
            f"need 0 < delta1, delta2 <= rho, got delta1={args.delta1}, "
            f"delta2={args.delta2}, rho={args.rho}")
    H1 = Hamiltonian.loads(_read(args.file1))
    H2 = Hamiltonian.loads(_read(args.file2))
    B, log_lhs, log_rhs = bracket_bound(H1, H2, args.rho, args.delta1,
                                        args.delta2)
    _write(args.out, B)
    ok = log_lhs <= log_rhs
    print(f"log_lhs {_fmt(log_lhs)}", file=sys.stderr)
    print(f"log_rhs {_fmt(log_rhs)}", file=sys.stderr)
    print(f"bound_ok {int(ok)}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_dioph_check(args):
    omega = frequency_loads(_read(args.file), args.d)
    violations, checked = check_frequency(
        omega, args.gamma, args.ell_budget,
        HamParams(d=args.d, mode_radius=args.radius))
    print(f"checked {checked}")
    print(f"violations {len(violations)}")
    for ell, which, lhs, rhs in violations[:20]:
        print(f"  condition {which}: l={ell} lhs={_fmt(lhs)} "
              f"rhs={_fmt(rhs)}")
    return 0 if not violations else 1


def _cmd_measure(args):
    gammas = args.gamma if args.gamma else [0.01, 0.05, 0.1]
    rows = resonance_measure(
        gammas, args.trials, args.seed,
        lattice=HamParams(d=args.d, mode_radius=args.radius),
        ell_budget=args.ell_budget)
    lines = [MEASURE_CSV_SCHEMA]
    for g, (fraction, stderr, violations) in zip(gammas, rows):
        lines.append(",".join([
            _fmt(g), str(args.trials), str(violations), _fmt(fraction),
            _fmt(stderr), str(args.ell_budget), str(args.radius),
            str(args.seed)]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_verify_lemmas(args):
    cases = run_suite(samples_scalar=args.samples, samples_norm=args.samples,
                      seed=args.seed, names=args.lemma)
    if not args.timings:
        for c in cases:
            c.seconds = 0.0
    lines = [SUITE_CSV_SCHEMA]
    lines.extend(c.csv_row() for c in cases)
    _write(args.out, "\n".join(lines) + "\n")
    bad = sum(c.violations for c in cases)
    return 0 if bad == 0 else 1


def _cmd_tl_check(args):
    H = Hamiltonian.loads(_read(args.file))
    d = H.params.d
    rows, fitted = tl_defect(H, _mode(args.n, d), _mode(args.m, d),
                             _mode(args.l, d), args.t, rho=args.rho)
    lines = [TL_CSV_SCHEMA]
    for t, f1, f2, f3 in rows:
        lines.append(",".join([str(t), _fmt(f1), _fmt(f2), _fmt(f3)]))
    lines.append(",".join(["C"] + [_fmt(c) for c in fitted]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "build-nls": _cmd_build_nls,
    "kam-run": _cmd_kam_run,
    "norms": _cmd_norms,
    "bracket": _cmd_bracket,
    "dioph-check": _cmd_dioph_check,
    "measure": _cmd_measure,
    "verify-lemmas": _cmd_verify_lemmas,
    "tl-check": _cmd_tl_check,
}


def dispatch(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        args = _apply_config(parser, argv, args)
        # the variable is read only by a seeded command run without a seed
        if getattr(args, "seed", 0) is None:
            args.seed = _env_seed()
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SmallDivisorError as e:
        print(f"small divisor: {e}", file=sys.stderr)
        return 2
    except (CapacityError, DivergenceRiskError) as e:
        print(f"capacity: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        # e.g. numpy refusing the l-table of a large box and budget
        print(f"capacity: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
