#!/usr/bin/env python3
"""Time the assembly layers, the Newton dual norm's set-up, and the stages
of the L4 power reference.

    python3 scripts/time_assembly.py

Reference: ``driver.compute_reference`` of ``configs/experiment1.ini``
from its schedule's final state, as ``blochfem run`` makes it, split into
its stages: the start lifted onto L4, the one-shot pencil
(``assembly.reference_pencil``: A_beta, M_w and cell (0, 0)'s rows of
the region masses, no cached pieces), the FFT bound B of
``BoundedDualNorm`` and the LOPCG leg. Prints
each stage's time, its tracemalloc peak above what was held when it
started, and the process's ru_maxrss after it (tracemalloc's own
bookkeeping included). It runs first, while the process holds nothing
else.
Cold: five fresh ``assembly._RegionPieces(mesh)`` builds at L0-L5 (the
one-time work of a level: quadrature, symmetry check and scatter);
prints the fastest build, and the tracemalloc peak of one more build with
what that build keeps.
Warm: five builds of a power pencil's forms on the cached pieces at L2-L4,
``assemble_tm(mesh, k, shift=((1, 8), 1))``, which sums A_beta and M_w a
block at a time (the work of each new wave vector of a power level);
prints the fastest build and the tracemalloc peak of one more.
Newton dual: five builds of the dual norm of K + M that Newton's residuals
take (``NonlinearPencil.dual``, an FFT inverse) at L2-L4, at experiment3's
wave vector, on forms built beforehand; prints the fastest build, the
tracemalloc peak of one more and the size of the sum K + M it keeps.

BLAS runs on one thread, as in the benchmark's workers. Only ``src/`` and
``configs/`` are read.
"""

import math
import os
import pathlib
import resource
import sys
import time
import tracemalloc
from dataclasses import replace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blochfem import assembly, dispersion, driver, mesh as msh  # noqa: E402
from blochfem.newton import NonlinearPencil  # noqa: E402

COLD_LEVELS = range(6)
WARM_LEVELS = range(2, 5)
#: a generic wave vector: both components nonzero, so K(k) is complex
WARM_K = (0.7, 1.3)
#: the weights and shift of the warm pencil
WARM_SHIFT = ((1.0, 8.0), 1.0)
DUAL_LEVELS = range(2, 5)
#: experiment3's wave vector
DUAL_K = (math.pi / 2, math.pi)
#: timed calls per level; the fastest is printed
REPEAT = 5
MIB = 2 ** 20


def _fastest(fn):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced(fn):
    """The memory ``fn()`` holds on return and its peak, in MiB."""
    tracemalloc.start()
    kept = fn()  # noqa: F841  (held while the memory is read)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return held / MIB, peak / MIB


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Stages:
    """Times calls as stages of one traced run: each stage's tracemalloc
    peak above what was held at its start, a nested stage's peak counted
    in the stage around it."""

    def __init__(self):
        self.rows = []
        self._open = []      # [held at start, peak so far] per open stage

    def run(self, name, fn, *args, **kwargs):
        held, peak = tracemalloc.get_traced_memory()
        if self._open:
            self._open[-1][1] = max(self._open[-1][1], peak)
        tracemalloc.reset_peak()
        self._open.append([held, held])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            start, peak = self._open.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], peak)
            self.rows.append((name, elapsed, (peak - start) / MIB, _maxrss_mb()))

    def wrap(self, name, fn):
        return lambda *args, **kwargs: self.run(name, fn, *args, **kwargs)


def reference_stages():
    """The stage rows of experiment1's L4 reference, after its schedule."""
    cfg = replace(driver.RunConfig.from_ini(ROOT / "configs" / "experiment1.ini"),
                  out=None)
    final = driver.run_schedule(cfg).final
    stages = _Stages()
    patched = dict(prolongate=stages.wrap("start", driver.prolongate),
                   reference_pencil=stages.wrap("pencil", driver.reference_pencil),
                   BoundedDualNorm=stages.wrap("B", driver.BoundedDualNorm),
                   lopcg=stages.wrap("LOPCG", driver.lopcg))
    saved = {name: getattr(driver, name) for name in patched}
    rss_before = _maxrss_mb()
    tracemalloc.start()
    try:
        for name, fn in patched.items():
            setattr(driver, name, fn)
        driver.compute_reference(cfg, final)
    finally:
        for name, fn in saved.items():
            setattr(driver, name, fn)
        tracemalloc.stop()
    return rss_before, stages.rows


def main():
    rss_before, rows = reference_stages()
    print("L4 reference of experiment1, by stage (ru_maxrss %.1f MB after "
          "its schedule)" % rss_before)
    print("%-12s %10s %14s %12s" % ("stage", "time_s", "peak_above_MiB",
                                    "maxrss_MB"))
    for name, elapsed, peak, rss in rows:
        print("%-12s %10.4f %14.1f %12.1f" % (name, elapsed, peak, rss))
    assembly.release_pieces()

    print("region pieces (cold), fastest of %d; peak and held of one more"
          % REPEAT)
    print("%5s %8s %10s %10s %10s" % ("level", "dofs", "time_s", "peak_MiB",
                                      "held_MiB"))
    for level in COLD_LEVELS:
        mesh = msh.build_mesh(level)
        best = _fastest(lambda: assembly._RegionPieces(mesh))
        held, peak = _traced(lambda: assembly._RegionPieces(mesh))
        print("%5d %8d %10.4f %10.1f %10.1f"
              % (level, mesh.dof_count, best, peak, held))

    print("power pencil forms (warm) at k = %s, weights and shift %s, "
          "fastest of %d; peak of one more" % (WARM_K, WARM_SHIFT, REPEAT))
    print("%5s %8s %10s %10s" % ("level", "dofs", "time_s", "peak_MiB"))
    for level in WARM_LEVELS:
        mesh = msh.build_mesh(level)

        def build():
            return assembly.assemble_tm(mesh, WARM_K, shift=WARM_SHIFT)
        build()
        best = _fastest(build)
        _, peak = _traced(build)
        print("%5d %8d %10.4f %10.1f" % (level, mesh.dof_count, best, peak))

    print("Newton dual (K + M) at k = %s, fastest of %d; peak of one more, "
          "and the sum K + M it keeps" % (DUAL_K, REPEAT))
    print("%5s %8s %10s %10s %10s" % ("level", "dofs", "time_s", "peak_MiB",
                                      "sum_MiB"))
    for level in DUAL_LEVELS:
        mesh = msh.build_mesh(level)
        forms = assembly.assemble_tm(mesh, DUAL_K)

        def build():
            return NonlinearPencil(forms, dispersion.Constant(1.0)).dual
        best = _fastest(build)
        _, peak = _traced(build)
        sum_mib = build().fact.mat.data.nbytes / MIB
        print("%5d %8d %10.4f %10.1f %10.1f"
              % (level, mesh.dof_count, best, peak, sum_mib))


if __name__ == "__main__":
    main()
