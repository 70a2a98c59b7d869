#!/usr/bin/env python3
"""Replay every benchmark pool point in-process and gate it.

    python3 scripts/replay_pools.py --out replay.json [--workload W ...]
    python3 scripts/replay_pools.py --compare parent.json child.json

Solves each point of ``perfbench/expected/<workload>.json`` with the pool's
own settings through ``driver.run_schedule`` (plus ``compute_reference`` on
the schedule's final state for ``linear_refined``, as ``blochfem run`` does
with ``use_reference``), checks it with ``perfbench/gate.check`` and writes,
per point, the status, the gate margin (|lambda - stored| over the gate's
allowance) and ``float.hex`` of lambda, of mu_ref and of the final row's
residual_dual. BLAS runs on one thread, so two trees that compute the same
bits write the same hex.

``--compare`` diffs two such files point by point: status and the hex of
lambda and mu_ref, and prints per workload the largest relative shift of
lambda, of mu_ref and of the final residual_dual (which a change of the
dual-norm solver moves without moving lambda), then each file's
non-passing points and largest gate margin, and whether the two pass
sets are the same. It exits 1 when status, lambda or mu_ref differ; a
file written before residual_dual was stored still compares. Only
``perfbench/`` is read, never written.
"""

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time
from dataclasses import replace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))
sys.path.insert(0, str(HERE / "perfbench"))

import gate  # noqa: E402

WORKLOADS = ("rational_companion", "lossy_newton", "linear_refined")


def _allowance(workload, tol, point):
    """The |lambda - stored| that ``gate.check`` accepts at ``point``."""
    exp = point["lam1"]
    if workload == "lossy_newton":
        return gate.NEWTON_FACTOR * (1.0 + abs(exp)) * max(tol, point.get("residual", tol))
    return gate.REL_TOL * abs(exp)


def _replay_point(driver, errors, workload, cfg, point):
    cfg = replace(cfg, kx=point["kx"], ky=point["ky"], out=None)
    out = {"lam_hex": None, "mu_ref_hex": None, "res_hex": None, "margin": None}
    try:
        trace = driver.run_schedule(cfg)
        if workload == "linear_refined":
            mu_ref = driver.compute_reference(cfg, trace.final).mu_ref
            trace.fill_rel_err(mu_ref)
            out["mu_ref_hex"] = float(mu_ref).hex()
    except errors.BlochFEMError as err:
        out.update(status="failed", error=str(err))
        partial = getattr(err, "trace", None)
        if partial is not None and len(partial):
            out["lam_hex"] = float(partial[-1].lam).hex()
            out["res_hex"] = float(partial[-1].residual_dual).hex()
        return out
    last = trace[-1]
    lam = float(last.lam)
    record = {"lam1": lam, "mu": last.mu, "rel_err": last.rel_err}
    reason = gate.check(workload, cfg.tol, record, point)
    out.update(
        status="pass" if reason is None else "wrong",
        lam_hex=lam.hex(),
        res_hex=float(last.residual_dual).hex(),
        margin=abs(lam - point["lam1"]) / _allowance(workload, cfg.tol, point),
    )
    if reason is not None:
        out["error"] = reason
    return out


def replay(workloads):
    from blochfem import driver, errors

    result = {}
    for workload in workloads:
        pool = json.loads((HERE / "perfbench" / "expected" / (workload + ".json"))
                          .read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory() as tmp:
            ini = pathlib.Path(tmp) / "pool.ini"
            ini.write_text(pool["ini"], encoding="utf-8")
            cfg = driver.RunConfig.from_ini(ini)
        t0 = time.perf_counter()
        points = []
        for i, point in enumerate(pool["points"]):
            rec = _replay_point(driver, errors, workload, cfg, point)
            rec["index"] = i
            points.append(rec)
        result[workload] = points
        bad, margins = _gate_summary(points)
        print("%s: %d of %d pass in %.1fs; not passing %s; largest margins %s"
              % (workload, len(points) - len(bad), len(points),
                 time.perf_counter() - t0, bad,
                 ", ".join("%.3g (point %d)" % m for m in margins[:2])))
    return result


def _gate_summary(points):
    """The indices of the points that do not pass, and the (margin, index)
    pairs of the points with a margin, largest first."""
    bad = [p["index"] for p in points if p["status"] != "pass"]
    margins = sorted(((p["margin"], p["index"]) for p in points
                      if p.get("margin") is not None), reverse=True)
    return bad, margins


def _largest_shift(pa, pb, field):
    """(relative shift, point index) of the largest |b - a| / |a| of a hex
    field over the points where both files have it, or None."""
    shifts = [(abs(float.fromhex(y[field]) - float.fromhex(x[field]))
               / abs(float.fromhex(x[field])), x["index"])
              for x, y in zip(pa, pb) if x.get(field) and y.get(field)]
    return max(shifts, key=lambda s: s[0]) if shifts else None


def compare(a, b):
    """Lines naming every point whose status, lambda or mu_ref differ.

    Prints per workload the count of identical points and the largest
    relative shift of lambda, of mu_ref and of the final residual_dual,
    with the point it comes from, so that aim 1's 1e-12 rule can be read
    when the bits move; then each side's non-passing points and largest
    gate margin, so that a change that moves bits shows whether it kept
    the pass set.
    """
    diffs = []
    for workload in sorted(set(a) | set(b)):
        pa, pb = a.get(workload, []), b.get(workload, [])
        if len(pa) != len(pb):
            diffs.append("%s: %d points vs %d" % (workload, len(pa), len(pb)))
            continue
        same = 0
        for x, y in zip(pa, pb):
            fields = [f for f in ("status", "lam_hex", "mu_ref_hex") if x.get(f) != y.get(f)]
            if fields:
                diffs.append("%s point %d: %s" % (workload, x["index"], ", ".join(
                    "%s %s -> %s" % (f, x.get(f), y.get(f)) for f in fields)))
            else:
                same += 1
        shifts = []
        for field, name in (("lam_hex", "lambda"), ("mu_ref_hex", "mu_ref"),
                            ("res_hex", "residual_dual")):
            largest = _largest_shift(pa, pb, field)
            if largest is not None:
                shifts.append("%s %.3g (point %d)" % ((name,) + largest))
        print("%s: %d of %d points identical; largest relative shift: %s"
              % (workload, same, len(pa), ", ".join(shifts) or "none"))
        (bad_a, margins_a), (bad_b, margins_b) = _gate_summary(pa), _gate_summary(pb)
        print("%s: not passing %s -> %s (%s); largest margin %s -> %s"
              % (workload, bad_a, bad_b,
                 "same pass set" if bad_a == bad_b else "pass sets differ",
                 _margin_text(margins_a), _margin_text(margins_b)))
    return diffs


def _margin_text(margins):
    return "%.3g (point %d)" % margins[0] if margins else "none"


def main(argv=None):
    p = argparse.ArgumentParser(prog="replay_pools.py")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="replay only this pool (repeatable; default all)")
    p.add_argument("--out", help="JSON file for the per-point results")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="diff two result files instead of replaying")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(pathlib.Path(f).read_text(encoding="utf-8"))
                for f in args.compare)
        diffs = compare(a, b)
        for line in diffs:
            print(line)
        return 1 if diffs else 0
    result = replay(args.workload or WORKLOADS)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
