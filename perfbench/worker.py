"""One benchmark process: set up, solve, write a JSON record, exit.

    worker.py setup --config INI --t0 T --out OUT
    worker.py cli   --config INI --csv CSV --t0 T --out OUT [--trace]
    worker.py loop  --config INI --klist K --t0 T --out OUT [--trace]

``--t0`` is the harness's CLOCK_MONOTONIC reading taken just before it
started this interpreter; set-up time runs from there to having ``blochfem``
imported and the config parsed, just before the first solver call.

``setup`` stops there. ``cli`` then makes one ``blochfem run`` call through
``blochfem.cli.main`` and reads lambda1 and the step counts back from the
trace CSV it wrote. ``loop`` solves the wave vectors of the k-list one after
the other in this process with ``driver.run_schedule`` -- every one of
them, whatever the clock says, so the work of a run depends on its inputs
alone.

With ``--trace`` every wave vector is solved twice, once untraced and once
with spans, in alternating order, so the harness can report the tracing
overhead; each copy is its own record, marked ``traced``.

The harness sets OMP_NUM_THREADS and friends to 1 before starting this
process, so numpy loads single-threaded.
"""

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace


def _setup(config_path, t0):
    import blochfem.cli  # noqa: F401
    from blochfem import driver

    cfg = driver.RunConfig.from_ini(config_path)
    return cfg, time.monotonic() - t0


def _read_trace_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]
    top = max(int(r["mesh_level"]) for r in rows)
    fine = sum(1 for r in rows if int(r["mesh_level"]) == top)
    return {
        "lam1": float(last["lambda"]),
        "mu": float(last["mu"]),
        "rel_err": float(last["rel_err"]),
        "residual": float(last["residual_dual"]),
        "fine_steps": fine,
        "coarse_steps": len(rows) - fine,
    }


def cmd_setup(args):
    _, setup_s = _setup(args.config, args.t0)
    return {"setup_s": setup_s}


def cmd_cli(args):
    _, setup_s = _setup(args.config, args.t0)
    from blochfem import cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["run", "--config", args.config, "--out", args.csv, "--threads", "1"]
    t = time.perf_counter()
    try:
        code, error = cli.main(argv), None
    except Exception as err:  # noqa: BLE001 -- the command line exits 1 here
        code, error = 1, "blochfem run raised %s: %s" % (type(err).__name__, err)
    solve_s = time.perf_counter() - t
    if tracer is not None:
        tracer.uninstall()
    rec = {"setup_s": setup_s, "solve_s": solve_s, "code": code}
    if code == 0:
        rec.update(_read_trace_csv(args.csv))
        rec["status"] = "ok"
    else:
        rec["status"] = "failed"
        rec["error"] = error or "blochfem run exited with %d" % code
    if os.path.exists(args.csv):
        os.remove(args.csv)
    out = {"setup_s": setup_s, "records": [rec]}
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def _solve(driver, errors, cfg, k):
    """One wave vector to tol; returns the record fields."""
    cfg = replace(cfg, kx=k[0], ky=k[1])
    t = time.perf_counter()
    try:
        trace = driver.run_schedule(cfg)
        status, error = "ok", None
    except errors.NonConvergenceError as err:
        trace, status, error = err.trace, "failed", str(err)
    except errors.BlochFEMError as err:
        trace, status, error = None, "failed", str(err)
    solve_s = time.perf_counter() - t
    rec = {"solve_s": solve_s, "status": status}
    if error is not None:
        rec["error"] = error
    if trace is not None and len(trace):
        fine = sum(1 for r in trace if r.mesh_level == cfg.max_level)
        rec.update(lam1=trace[-1].lam, residual=trace[-1].residual_dual,
                   fine_steps=fine, coarse_steps=len(trace) - fine)
    return rec


def cmd_loop(args):
    cfg, setup_s = _setup(args.config, args.t0)
    from blochfem import driver, errors
    from inputs import read_klist

    ks = read_klist(args.klist)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    records = []
    for i, k in enumerate(ks):
        if tracer is None:
            copies = (None,)
        else:
            # alternate which copy runs first so warm caches favour neither
            copies = (False, True) if i % 2 == 0 else (True, False)
        for traced in copies:
            if traced:
                tracer.solve = i
                tracer.install()
            try:
                rec = _solve(driver, errors, cfg, k)
            finally:
                if traced:
                    tracer.uninstall()
            rec.update(index=i, kx=k[0], ky=k[1])
            if traced is not None:
                rec["traced"] = traced
            records.append(rec)
    out = {"setup_s": setup_s, "records": records}
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def main(argv=None):
    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("mode", choices=("setup", "cli", "loop"))
    p.add_argument("--config", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.add_argument("--klist")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    result = {"setup": cmd_setup, "cli": cmd_cli, "loop": cmd_loop}[args.mode](args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
