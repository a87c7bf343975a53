"""Reference loops that read the machine's speed next to every timed sample.

On a shared VM the same code runs up to ~2.3x slower from one second to the
next, and the slowdown depends on the kind of work: code bound by the
interpreter (many small numpy calls) swings most, code that streams large
arrays less. A median over a whole run therefore depends on when the run was
made. Two fixed loops, one of each kind, are timed between samples, at most
REF_EVERY_S apart. Each loop's log time is averaged over SMOOTH neighbouring
timings, since one timing of a sub-millisecond loop is noisy, and each sample
is paired with the mean of the averages just before and just after it. Per
phase, a run fits how much of the phase's time follows each loop (``alpha``
in [0, 1]) and scales every sample to the loops' nominal speed:

    nominal_s = s * (INTERPRETER_NOMINAL_S / interpreter_s) ** alpha
                  * (MEMORY_NOMINAL_S / memory_s) ** (1 - alpha)

The loops are the benchmark's own code, never hornplex's, so a change to
hornplex moves the measured times and leaves the loops alone.
"""

import time

import numpy as np

REF_EVERY_S = 0.025
SMOOTH = 5
# The loops' usual times on a 2-core Xeon VM. The nearer they are to the
# times a run sees, the less an error in alpha moves its scaled times.
INTERPRETER_NOMINAL_S = 2.5e-4
MEMORY_NOMINAL_S = 1.2e-3

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.ones((20_000, 64))  # 10 MB, the size of a 20k-entity table half


def interpreter_loop():
    total = 0.0
    for _ in range(100):
        total += float((_SMALL * _SMALL).sum())
    return total


def memory_loop():
    np.multiply(_LARGE, 1.0, out=_LARGE)


class Clock:
    """Times both loops whenever ``tick`` finds the last timing stale.

    Call ``tick`` right before and right after each timed sample; a disabled
    clock does nothing, so it adds no time to a traced pass.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.refs = []  # (start, interpreter_s, memory_s)
        self._last = -np.inf

    def tick(self, force=False):
        if not self.enabled:
            return
        t0 = time.perf_counter()
        if not force and t0 - self._last < REF_EVERY_S:
            return
        interpreter_loop()
        t1 = time.perf_counter()
        memory_loop()
        t2 = time.perf_counter()
        self.refs.append((t0, t1 - t0, t2 - t1))
        self._last = t2

    def nominal(self, starts, seconds, units=1):
        """Per-unit times of samples scaled to the nominal loop speed.

        Returns ``(nominal_s, alpha)``: ``nominal_s[i]`` is sample i's
        ``seconds / units`` scaled as in the module docstring.
        """
        starts = np.asarray(starts, dtype=float)
        seconds = np.asarray(seconds, dtype=float)
        per_unit = seconds / units
        at = np.array([r[0] for r in self.refs])
        logs = np.log(np.array([r[1:] for r in self.refs]))
        padded = np.pad(logs, ((SMOOTH // 2, SMOOTH // 2), (0, 0)), mode="edge")
        logs = np.stack(
            [np.convolve(c, np.ones(SMOOTH) / SMOOTH, mode="valid") for c in padded.T], axis=1
        )
        before = np.clip(np.searchsorted(at, starts, side="right") - 1, 0, len(at) - 1)
        after = np.clip(np.searchsorted(at, starts + seconds, side="left"), 0, len(at) - 1)
        lp, lm = ((logs[before] + logs[after]) / 2).T
        # Fit log(t) - lm = c + alpha * (lp - lm): the phase's time follows
        # the interpreter loop with weight alpha and the memory loop with the rest.
        spread = lp - lm
        if per_unit.size > 2 and spread.var() > 0:
            alpha = np.cov(np.log(per_unit) - lm, spread)[0, 1] / spread.var(ddof=1)
            alpha = float(np.clip(alpha, 0.0, 1.0))
        else:
            alpha = 0.5
        scale = alpha * (np.log(INTERPRETER_NOMINAL_S) - lp) + (1 - alpha) * (
            np.log(MEMORY_NOMINAL_S) - lm
        )
        return per_unit * np.exp(scale), alpha
