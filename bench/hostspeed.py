"""Host-speed correction for wall-clock timings.

The cores of a shared host run the same pure-Python work up to twice as
slowly for seconds at a time while neighbouring machines load them.  On
the two-core host the benchmark was written on, one-second medians of
the kernel below ranged from 1.4 to 2.6 ms with the other core idle, and
the raw median latency of a 20 s run moved by 20-30 % from run to run.

The benchmark times a fixed reference kernel (``kernel_seconds``) right
before and right after each timed region, and ``rescale`` multiplies the
region's wall time by ``REFERENCE_KERNEL_S`` over the kernel's mean time
then.  The result reads as
the time the region takes on the reference host at full speed.  The
kernel is built from the operations the program spends its time on
(frozen dataclasses, tuple sorts, dict merges, Fractions and SHA-256 of a
key's repr) and never calls the program, so a change to the program moves
the corrected time exactly as it moves the raw one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Tuple

# best-of-five kernel time on an uncontended core of the reference host
# (Intel Xeon, two vCPUs, Python 3.11.7)
REFERENCE_KERNEL_S = 0.00140
KERNEL_REPEATS = 5


@dataclass(frozen=True)
class _Atom:
    label: str
    dim: int
    twist: Tuple[Tuple[str, int], ...]


_ATOMS = tuple(
    _Atom(f"x{i}", 1 + i % 2, (("chi", i % 3 - 1), ("chi_W", i % 2)))
    for i in range(40)
)


def _kernel() -> int:
    acc = 0
    atoms = [_Atom(a.label, a.dim, a.twist) for a in _ATOMS]
    for a in atoms:
        for b in atoms[::8]:
            exps = dict(a.twist)
            for name, e in b.twist:
                exps[name] = exps.get(name, 0) + e
            key = (tuple(sorted((a.label, b.label))),
                   tuple(sorted(exps.items())),
                   Fraction(a.dim, 2) + Fraction(b.dim, 2))
            acc ^= hashlib.sha256(repr(key).encode()).digest()[0]
    return acc


def kernel_seconds() -> float:
    """Best-of-five time of the reference kernel, now."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def rescale(wall: float, before: float, after: float) -> float:
    """``wall`` seconds timed between two ``kernel_seconds`` readings,
    rescaled to the reference host's full speed."""
    return wall * REFERENCE_KERNEL_S * 2 / (before + after)
