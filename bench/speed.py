"""Host-speed probe, and the meter that scales each operation's time by it.

A shared host runs slower and faster by 20% and more, over seconds as well
as over minutes, and that moves every timing of a run together, the
program's and the probe's alike.  The probe is a fixed piece of numpy and
scipy work of the kind the search spends its time in: a sort of 64-bit
keys (the pair stage's deduplication) and a sparse product (the join and
the evaluation).  It belongs to the benchmark, so a change to the program
cannot move it.

A :class:`Meter` probes the host before the first operation and after
every operation; the program is idle while it does.  Each operation's
time is scaled by ``REFERENCE_S`` over the mean of the two probes around
it: the result is the time the operation would have taken on the host at
the speed at which the probe takes ``REFERENCE_S``.  Probes taken next to
an operation follow the host's speed during it far better than one factor
for a whole window: on the host of ``README.md``, the time of a covtype
search correlated 0.8 with the probes around it, and scaling cut the
search-to-search variation from 8.6% to 5.3%.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

#: Probe time that defines the reference speed; close to the probe's
#: median on the 2-vCPU host of ``README.md`` (0.021-0.027 s).
REFERENCE_S = 0.025
#: Each part of a probe runs this often, and its fastest time counts, so
#: a single interruption does not skew it.
PROBE_REPEATS = 3


class Probe:
    """Fixed inputs, built once; :meth:`__call__` times one probe."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 40, size=1_000_000)
        self.matrix = sp.random(
            10_000, 3_000, density=0.002, format="csr", random_state=rng
        )

    def __call__(self) -> float:
        parts = (
            lambda: np.sort(self.keys),
            lambda: self.matrix @ self.matrix.T,
        )
        total = 0.0
        for part in parts:
            fastest = float("inf")
            for _ in range(PROBE_REPEATS):
                began = time.perf_counter()
                part()
                fastest = min(fastest, time.perf_counter() - began)
            total += fastest
        return total


class Meter:
    """Probes around a sequence of operations; see the module docstring."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.probes: list[float] = [probe()]

    def mark(self) -> float:
        """An operation has just ended: probe, and return its scale factor."""
        self.probes.append(self.probe())
        return 2.0 * REFERENCE_S / (self.probes[-2] + self.probes[-1])
