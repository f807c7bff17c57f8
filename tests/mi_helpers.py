"""Helpers that only the tests use: multi-index and Hamiltonian oracles
and builders, and a CLI run in a fresh process."""

import os
import resource
import subprocess
import sys

from nlskam.hamiltonian import Hamiltonian, key_layout, term_blocks
from nlskam.lattice import mi_degree, mi_signed


def mi_add(*ms) -> tuple:
    acc = {}
    for m in ms:
        for mode, e in m:
            acc[mode] = acc.get(mode, 0) + e
    return tuple(sorted((m, e) for m, e in acc.items() if e > 0))


def momentum_defect(k: tuple, k_bar: tuple, d: int):
    """The vector sum of (k - k') weighted by the modes."""
    mom = [0] * d
    for mode, e in mi_signed(k, k_bar).items():
        for i, c in enumerate(mode):
            mom[i] += e * c
    return tuple(mom)


def term_degree(key) -> int:
    """The degree of canonical key (a, k, k_bar, j): 2|a| + |k| + |k_bar|
    + 2 per J-factor."""
    a, k, kb, j = key
    return 2 * mi_degree(a) + mi_degree(k) + mi_degree(kb) + 2 * len(j)


def tuple_terms(H: Hamiltonian) -> dict:
    """H's terms as a dict from canonical (a, k, k_bar, j) keys to
    coefficients, in store order."""
    decode = key_layout(H).decode
    return {decode(x): c for x, *_, c in term_blocks(H)}


def monomial(params, a=(), k=(), k_bar=(), j=(), coeff=1.0) -> Hamiltonian:
    """One term c * I(0)^a q^k qbar^k_bar J^j, from (mode, exponent)
    pairs and a list of J-modes."""
    return Hamiltonian.from_terms(params, [(a, k, k_bar, j, coeff)])


def to_dict(H: Hamiltonian) -> dict:
    """The v1 document of H, the reference for ``Hamiltonian.dumps``."""
    p = H.params
    terms = []
    for (a, k, kb, j), c in sorted(tuple_terms(H).items()):
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


def _cli_in_child(argv, threads, **kwargs):
    """``nlskam.cli.dispatch`` on ``argv`` in a new interpreter whose BLAS
    and OpenMP thread counts are ``threads`` (they are read when the
    library loads)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "nlskam.cli", *argv],
                          env=env, **kwargs)


def run_cli_in_fresh_process(argv, threads):
    """Run the CLI on ``argv`` in a new interpreter with ``threads`` BLAS
    and OpenMP threads, raising on a nonzero exit."""
    _cli_in_child(argv, threads, check=True)


def run_cli_with_memory_cap(argv, cap=2 << 30):
    """Run the CLI on ``argv`` in one child process whose address space
    is capped at ``cap`` bytes (2 GiB by default), so a command that
    allocates without bound fails there, not in the test run.  Returns
    the finished process, its stdout and stderr as text."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return _cli_in_child(argv, "1", preexec_fn=limit, capture_output=True,
                         text=True)
