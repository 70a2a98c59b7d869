#!/usr/bin/env python3
"""Silver-like lossy poles through the schedule.

Runs configs/experiment3.ini (bordered Newton on level 0, residual inverse
iteration on the refined levels) and prints the per-step residual history
plus the fitted decay exponent of the fine-mesh steps; then the fine-only
protocol, bordered Newton alone, whose exponent is 2 when it converges
quadratically.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from blochfem import driver
from blochfem.newton import decay_exponent

HERE = pathlib.Path(__file__).resolve().parent.parent


def main():
    cfg = driver.RunConfig.from_ini(HERE / "configs" / "experiment3.ini")
    (HERE / "traces").mkdir(exist_ok=True)
    tr = driver.run_schedule(cfg)
    driver.emit_csv(tr, HERE / cfg.out)

    for note in tr.notes:
        print(note)
    print("%4s %6s %8s %18s %12s" % ("j", "level", "dofs", "lambda", "residual"))
    for r in tr:
        print("%4d %6d %8d %18.12f %12.3e"
              % (r.j, r.mesh_level, r.dofs, r.lam, r.residual_dual))

    fine = [r.residual_dual for r in tr if r.mesh_level == cfg.max_level]
    print("omega = %.12f" % (tr[-1].lam ** 0.5))
    print("fine-mesh residual inverse iteration steps: %d" % (len(fine) - 1))
    try:
        print("fitted decay exponent (fine mesh): %.3f" % decay_exponent(fine))
    except ValueError:
        # the schedule hands the fine level such a good start that the
        # residual hits the rounding floor before a fit is possible
        print("fine-mesh residuals hit the rounding floor immediately; "
              "nothing to fit")

    # the no-refinement protocol: warm start and iterate on the fine mesh
    # alone, which leaves enough decreasing steps to read off the exponent
    from dataclasses import replace

    tr_f = driver.run_schedule(replace(cfg, fine_only=True, out=None))
    driver.emit_csv(tr_f, HERE / "traces" / "experiment3_fine_only.csv")
    res = [r.residual_dual for r in tr_f]
    print("fine-only residuals:", "  ".join("%.3e" % r for r in res))
    print("fine-only decay exponent: %.3f" % decay_exponent(res))
    print("trace: %s" % cfg.out)


if __name__ == "__main__":
    main()
