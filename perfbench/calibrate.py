"""Speed reference: fixed work of the benchmark's own, timed beside the program's.

The shared benchmark box changes speed by up to 1.8x, in spells from a
fraction of a second to minutes, and a slow spell slows every kind of
work alike.  So each timing of ering is scaled by how fast a fixed
reference ran next to it:

    scaled = raw * REF / (reference time measured next to it)

Two references, neither of which calls ering, so no change to the program
can move them:

* ``kernel``, in process: a few L-BFGS-B iterations of a Poisson likelihood
  over a 4x4 factor, plus a small pure-Python loop -- the same mix of
  SciPy, small numpy arrays and interpreter work as the in-process
  workloads.  It is timed in process CPU time, like their items.
  ``REF_KERNEL_S`` is its median time on the benchmark box.
* ``import_numpy``, a fresh interpreter that imports numpy -- the same
  start-up and module loading that every CLI command and set-up probe
  pays.  Timed in wall time beside CLI commands and in CPU time beside
  set-up probes, like what it scales.  ``REF_IMPORT_S`` is its median
  time on the benchmark box.

With the references at those medians a scaled timing equals the raw one.
"""

from __future__ import annotations

import functools
import resource
import statistics
import subprocess
import sys
import time

REF_KERNEL_S = 0.012
REF_IMPORT_S = 0.2
IMPORT_TIMEOUT_S = 60


@functools.cache
def _problem():
    """The reference likelihood: fixed projectors, counts and start."""
    # imported here, so that importing this module does not load numpy into
    # a set-up probe before the ``import ering`` it times
    import numpy as np
    from scipy.optimize import minimize

    rng = np.random.default_rng(12345)
    a = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
    proj = np.einsum("kij,klj->kil", a, a.conj())
    proj /= np.trace(proj, axis1=1, axis2=2).real[:, None, None]
    counts = 1000.0 * np.linspace(0.5, 1.5, 16)
    lower, strict_lower = np.tril_indices(4), np.tril_indices(4, -1)

    def nll(x):
        t = np.zeros((4, 4), dtype=complex)
        t[lower] = x[:10]
        t[strict_lower] += 1j * x[10:]
        mu = np.einsum("kij,ji->k", proj, t @ t.conj().T).real + 1e-9
        return float(np.sum(mu - counts * np.log(mu)))

    return minimize, nll, np.linspace(-1.0, 1.0, 16)


def kernel() -> float:
    """CPU seconds taken by one run of the in-process reference work."""
    minimize, nll, x0 = _problem()
    t0 = time.process_time()
    # numerical gradient and a fixed iteration cap: the same evaluations every time
    minimize(nll, x0, method="L-BFGS-B", options={"maxiter": 10, "maxfun": 1000})
    acc = 0
    for i in range(6000):
        acc += i % 7
    return time.process_time() - t0


def import_numpy(env: dict, cpu: bool = False) -> float:
    """Seconds taken by a fresh interpreter that imports numpy: wall time,
    or with ``cpu`` the interpreter's CPU time (user + system)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, check=True,
        capture_output=True, timeout=IMPORT_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if not cpu:
        return wall
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def scale_each(raw: list[float], refs: list[float], ref: float, halfwidth: int) -> list[float]:
    """Scale raw[i] by ref over the median of refs[i - halfwidth : i + halfwidth + 1].

    ``refs[i]`` is the reference timed right after ``raw[i]``; the rolling
    median follows the speed through a run while damping the jitter of
    single reference runs.
    """
    n = len(raw)
    out = []
    for i, value in enumerate(raw):
        lo, hi = max(0, i - halfwidth), min(n, i + halfwidth + 1)
        out.append(value * ref / statistics.median(refs[lo:hi]))
    return out
