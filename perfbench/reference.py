"""The fixed reference computation that end-to-end times are divided by.

The benchmark's host shares its cores: its speed switches between levels
about 1.45x apart every ten seconds to a minute, and operations timed in
different runs spread by 20-30% from that alone. The reference is timed
just before and just after every operation of an untraced pass, and the
operation's time over the mean of the two is its time in reference units
(``ref``). A slowdown of the host stretches both about alike, so the ratio
stays within a few percent where the seconds do not.

The reference uses only numpy, never the library, so no change to the
library can move it: small dense linear algebra, as in the GP, and many
numpy calls on short vectors, whose cost is mostly the interpreter's, as in
the branch and bound. One run of it takes about 15 ms. On the reference
machine it tracked all three workloads more closely than a reference of
interpreted dict, set and tuple loops did, the maximin search included.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20250101)
_A = _RNG.standard_normal((40, 40))
_A = _A @ _A.T + 40 * np.eye(40)
_V = _RNG.standard_normal(40)
_SHORT = np.arange(8.0)


def reference_work() -> float:
    """The reference computation; returns a checksum so none of it is skipped."""
    total = 0.0
    for _ in range(200):
        lower = np.linalg.cholesky(_A)
        x = np.linalg.solve(lower, _V)
        total += float(x @ x)
    for _ in range(1500):
        total += float(np.maximum(_SHORT, 3.0).sum())
    return total


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Reference:
    """Probe for untraced passes: times the reference around each operation."""

    def begin_op(self) -> float:
        return reference_seconds()

    def end_op(self, before: float, op) -> None:
        op.ref_s = 0.5 * (before + reference_seconds())
