"""Multi-index helpers that only the tests use, as oracles and builders."""

from nlskam.lattice import mi_signed


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
