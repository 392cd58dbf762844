"""Reference kernels that gauge the shared host's speed during a run.

The benchmark runs on a shared host whose speed moves by up to 2x
within seconds and for minutes at a time, while the process's CPU time
tracks its wall time: the host runs the same code slower rather than
making it wait.  A run cannot outlast such a phase, so ``run.py`` times a
reference kernel right before every unit and divides each unit's time by
the mean of the kernel times on either side of it.

Each kernel is a fixed piece of work of the same kind as the workload it
gauges, written here and never changed with the library, so a change to
``quditprod`` moves a unit's time and not the kernel's:

- ``scalar``: Gauss-Jordan elimination mod 3, one 9x9 matrix at a time,
  row by row with small numpy calls; the per-trial work of mc.
- ``batch``: the ranks of 10000 3x4 matrices mod 3 eliminated together,
  column by column on whole arrays; the batched enumeration of census.

``NOMINAL_S`` is each kernel's median time on the host the benchmark
was written on (README.md names it); a unit time divided by the
kernel time and multiplied by the nominal time reads as seconds on that
host at its usual speed.
"""

from __future__ import annotations

import time

import numpy as np

P = 3
NOMINAL_S = {"scalar": 0.0075, "batch": 0.020}
# The kernels each workload is gauged with, run back to back.
KERNELS = {"census": ("batch",), "mc": ("scalar",), "codes": ("scalar", "batch")}

_INV = np.array([0, 1, 2], dtype=np.int64)  # inverses mod 3


def _scalar_rank(a: np.ndarray) -> int:
    m = a % P
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, P)) % P
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % P
        r += 1
    return r


def _batch_ranks(mats: np.ndarray) -> np.ndarray:
    m = mats % P
    count, nrows, ncols = m.shape
    rank = np.zeros(count, dtype=np.int64)
    rows = np.arange(nrows)
    for c in range(ncols):
        cand = (m[:, :, c] != 0) & (rows[None, :] >= rank[:, None])
        sel = np.nonzero(cand.any(axis=1))[0]
        if sel.size == 0:
            continue
        r, pr = rank[sel], np.argmax(cand[sel], axis=1)
        top, piv = m[sel, r].copy(), m[sel, pr].copy()
        m[sel, pr] = top
        piv = (piv * _INV[piv[:, c]][:, None]) % P
        m[sel, r] = piv
        factor = m[sel, :, c].copy()
        factor[np.arange(sel.size), r] = 0
        m[sel] = (m[sel] - factor[:, :, None] * piv[:, None, :]) % P
        rank[sel] += 1
    return rank


class Reference:
    """The kernels of one workload; ``time()`` runs them once and
    returns the seconds taken, and raises if a kernel's answer changed."""

    def __init__(self, workload: str) -> None:
        rng = np.random.default_rng(0)
        self.scalar = [rng.integers(0, P, (9, 9)) for _ in range(40)]
        self.batch = rng.integers(0, P, (10000, 3, 4))
        self.kernels = KERNELS[workload]
        self.nominal_s = sum(NOMINAL_S[k] for k in self.kernels)
        self.answer = self._run()
        batch_head = [_scalar_rank(a) for a in self.batch[:200]]
        if list(_batch_ranks(self.batch[:200])) != batch_head:
            raise AssertionError("batch and scalar reference ranks disagree")

    def _run(self) -> tuple[int, ...]:
        out = []
        for k in self.kernels:
            if k == "scalar":
                out.append(sum(_scalar_rank(a) for a in self.scalar))
            else:
                out.append(int(_batch_ranks(self.batch).sum()))
        return tuple(out)

    def time(self) -> float:
        started = time.perf_counter()
        answer = self._run()
        elapsed = time.perf_counter() - started
        if answer != self.answer:
            raise AssertionError(f"reference kernels gave {answer}, not {self.answer}")
        return elapsed
