#!/usr/bin/env python3
"""Time the two assembly layers: cold region pieces and warm per-k forms.

    python3 scripts/time_assembly.py

Cold: five fresh ``assembly._RegionPieces(mesh)`` builds at L0-L5 (the
one-time work of a level: quadrature, symmetry check and scatter);
prints the fastest build and the tracemalloc peak of one more build.
Warm: five ``assemble_tm(mesh, k)`` calls on the cached pieces at L2-L4
(the work of each new wave vector); prints the fastest call, and the
tracemalloc peak of one warm pencil build, ``assemble_tm`` +
``weighted_mass`` + ``Pencil.from_stiffness``, as a power level or the
power reference makes it. BLAS runs on one thread, as in the benchmark's
workers. Only ``src/`` is read.
"""

import os
import pathlib
import sys
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from blochfem import assembly, mesh as msh  # noqa: E402
from blochfem.eigeniter import Pencil  # noqa: E402

COLD_LEVELS = range(6)
WARM_LEVELS = range(2, 5)
#: a generic wave vector: both components nonzero, so K(k) is complex
WARM_K = (0.7, 1.3)
#: timed calls per level; the fastest is printed
REPEAT = 5


def _fastest(fn):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    print("region pieces (cold), fastest of %d" % REPEAT)
    print("%5s %8s %10s %10s" % ("level", "dofs", "time_s", "peak_MiB"))
    for level in COLD_LEVELS:
        mesh = msh.build_mesh(level)
        best = _fastest(lambda: assembly._RegionPieces(mesh))
        tracemalloc.start()
        assembly._RegionPieces(mesh)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print("%5d %8d %10.4f %10.1f" % (level, mesh.dof_count, best, peak / 2 ** 20))

    print("assemble_tm (warm) at k = %s, fastest of %d; peak of one warm "
          "pencil build" % (WARM_K, REPEAT))
    print("%5s %8s %10s %10s" % ("level", "dofs", "time_s", "peak_MiB"))
    for level in WARM_LEVELS:
        mesh = msh.build_mesh(level)
        assembly.assemble_tm(mesh, WARM_K)
        best = _fastest(lambda: assembly.assemble_tm(mesh, WARM_K))
        tracemalloc.start()
        Pencil.from_stiffness(assembly.assemble_tm(mesh, WARM_K).K,
                              assembly.weighted_mass(mesh, 1.0, 8.0), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print("%5d %8d %10.4f %10.1f" % (level, mesh.dof_count, best, peak / 2 ** 20))


if __name__ == "__main__":
    main()
