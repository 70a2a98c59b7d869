#!/usr/bin/env python3
"""Constant-permittivity disk: refinement schedule vs fine-only baseline.

Runs the inverse power / Rayleigh iteration with 3, 5, and 7 steps per mesh
plus the no-refinement baseline, all to the same residual tolerance, and
prints the step/wall-time comparison. Traces land in traces/.
"""

import pathlib
import sys
import time
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from blochfem import driver

HERE = pathlib.Path(__file__).resolve().parent.parent


def main():
    base = driver.RunConfig.from_ini(HERE / "configs" / "experiment1.ini")
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)

    print("reference (level %d) ..." % (base.max_level + 1))
    ref = driver.compute_reference(base)
    print("  mu_ref = %.12f  lambda_ref = %.12f  (%d dofs)"
          % (ref.mu_ref, ref.lam_ref, ref.dofs))

    rows = []
    for s in (3, 5, 7):
        cfg = replace(base, steps_per_mesh=s, fine_only=False)
        t0 = time.perf_counter()
        tr = driver.run_schedule(cfg)
        wall = time.perf_counter() - t0
        tr.fill_rel_err(ref.mu_ref)
        driver.emit_csv(tr, out_dir / ("experiment1_s%d.csv" % s))
        rows.append(("s=%d" % s, tr, wall))

    fine = replace(base, fine_only=True)
    t0 = time.perf_counter()
    tr = driver.run_schedule(fine)
    wall = time.perf_counter() - t0
    tr.fill_rel_err(ref.mu_ref)
    driver.emit_csv(tr, out_dir / "experiment1_fine_only.csv")
    rows.append(("fine-only", tr, wall))

    print("%-10s %6s %14s %12s %10s" % ("schedule", "steps", "lambda", "rel_err", "wall[s]"))
    for name, tr, wall in rows:
        last = tr[-1]
        print("%-10s %6d %14.9f %12.3e %10.3f"
              % (name, len(tr), last.lam, last.rel_err, wall))
    base_wall = rows[-1][2]
    for name, _, wall in rows[:-1]:
        print("speedup %s vs fine-only: %.2fx" % (name, base_wall / wall))


if __name__ == "__main__":
    main()
