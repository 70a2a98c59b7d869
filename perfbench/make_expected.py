"""Regenerate the stored pools and expected eigenvalues.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/make_expected.py <workload>

Draws the workload's stratified pool of wave vectors and solves every point
once with the workload's settings, through the same public calls the
benchmark makes (``driver.compute_reference`` + ``driver.run_schedule`` as
``blochfem run`` does), at config seed 0.
Writes ``expected/<workload>.json``. Run it only when the program's results
are meant to change; the gate compares every benchmark solve against it.
"""

import json
import sys
import time
from dataclasses import replace

from inputs import EXPECTED_DIR, HERE, STRATA_SIDE, ini_text, make_pool
from spans import Tracer, layer_metrics

#: (master seed, points per stratum) of each pool
POOLS = {
    "linear_refined": (101, 10),
    "rational_companion": (303, 40),
    "lossy_newton": (404, 12),
}


def solve_point(driver, errors, workload, cfg, k):
    """Solve one pool point; returns the fields stored next to it."""
    cfg = replace(cfg, kx=k[0], ky=k[1])
    try:
        trace = driver.run_schedule(cfg)
        status = "ok"
    except errors.NonConvergenceError as err:
        trace, status = err.trace, "failed"
    last = trace[-1]
    # the step count sorts the pool into the cost bins a run draws from
    out = {"status": status, "lam1": last.lam, "residual": last.residual_dual,
           "steps": len(trace)}
    if cfg.use_reference:
        # the reference only fills rel_err, so lam1 above is the same with it;
        # its step count, read from the spans, ranks the point's cost
        tracer = Tracer()
        tracer.install()
        try:
            out["mu_ref"] = driver.compute_reference(cfg).mu_ref
        except errors.NonConvergenceError as err:
            out["status"] = "failed"
            out["error"] = "reference: %s" % err
        finally:
            tracer.uninstall()
        out["reference_steps"] = int(layer_metrics(tracer.spans, 1)["driver.reference_steps"])
    return out


def main(workload):
    from blochfem import driver, errors

    master, per_stratum = POOLS[workload]
    work = HERE / "work" / "expected"
    work.mkdir(parents=True, exist_ok=True)
    ini = work / ("%s.ini" % workload)
    ini.write_text(ini_text(workload, 0), encoding="utf-8")
    cfg = driver.RunConfig.from_ini(str(ini))
    points = make_pool(master, per_stratum)
    t0 = time.perf_counter()
    for n, p in enumerate(points):
        p.update(solve_point(driver, errors, workload, cfg, (p["kx"], p["ky"])))
        print("%s %d/%d %s lam1=%r (%.0fs)" % (workload, n + 1, len(points),
              p["status"], p.get("lam1"), time.perf_counter() - t0), flush=True)
    doc = {
        "workload": workload,
        "master_seed": master,
        "strata_side": STRATA_SIDE,
        "per_stratum": per_stratum,
        "config_seed": 0,
        "ini": ini_text(workload, 0),
        "points": points,
    }
    out = EXPECTED_DIR / ("%s.json" % workload)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in POOLS:
        sys.exit("usage: make_expected.py {%s}" % "|".join(POOLS))
    main(sys.argv[1])
