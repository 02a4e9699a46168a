"""CPU speed probe for the benchmark, run in the same process as the program.

Run as a script it is a probed stand-in for the ``gaussfocal`` command:

    PYTHONPATH=src python3 bench/probe.py SAMPLES.json run severi-2 --trials 1

A shared host runs the same Python code up to 1.8 times slower in spells
of seconds to minutes (most likely a busy neighbour on a shared core; CPU
time rises with wall time, so neither clock sees it).  A fixed reference
``kernel`` -- pure-Python prime-field row reduction with the list, int
and method-call mix of the package, but none of its code -- is therefore
timed every ``INTERVAL_S`` of wall time from a timer signal while the
command runs, on the same core and in the same spells as the program.
SAMPLES.json receives each kernel's duration.  The benchmark takes the
probe's own time out of the child's figures and scales them by
``NOMINAL_KERNEL_S`` over the mean kernel duration, which reports every
time as it would read at the host's nominal speed.

The signal handler draws no random numbers and touches no state of the
package, so a probed run prints the same integers as an unprobed one;
the benchmark's canonical-JSON gate checks that on every pass.
"""

from __future__ import annotations

import json
import signal
import sys
from time import perf_counter

P = 32749
INTERVAL_S = 0.01

# Kernel duration at the nominal speed of the machine the baseline was
# measured on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7): its median
# in a quiet spell.  Slow spells read up to 0.9 ms.
NOMINAL_KERNEL_S = 0.0005


class _Field:
    """Integers mod ``p`` behind methods, as the package's rings are."""

    def __init__(self, p):
        self.p = p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def _matrix(n, state=12345):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(state % P)
        rows.append(row)
    return rows


_FIELD = _Field(P)
_BASE = _matrix(14)


def kernel():
    """Row-reduce a fixed 14x14 matrix mod P; the same work on every call."""
    field = _FIELD
    rows = [list(r) for r in _BASE]
    n = len(rows)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[c], rows[pr] = rows[pr], rows[c]
        inv = field.inv(rows[c][c])
        rows[c] = [field.mul(inv, a) for a in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[i], rows[c])]
    return rows


def main(argv):
    samples_path, args = argv[0], argv[1:]
    samples = []

    def sample(signum, frame):
        start = perf_counter()
        kernel()
        samples.append(perf_counter() - start)

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        from gaussfocal.cli import main as cli_main

        code = cli_main(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(samples_path, "w") as handle:
            json.dump(samples, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
