"""Outside-in solve benchmark for blochfem.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The harness imports no numerics itself: it
writes the seeded inputs into ``perfbench/runs/<workload>-seed<N>-trace<T>/``,
starts fresh single-threaded interpreters (``worker.py``) that drive the
package through its public calls, checks every lambda1 against the stored
value for its wave vector, and prints a report followed by one JSON line.

It is a closed loop with one client: a solve starts after the previous one
returned, and only one worker runs at a time.

``--seconds`` sets the work, not a timer: a run solves ``solve_count``
wave vectors, whole passes over the cost bins in proportion to it, sized so
that ``--seconds 10`` takes roughly 15-50 s on a 2-core machine. The same
seed and seconds always give the same solves, whatever the machine's speed.

``--trace 0`` reports the end-to-end metrics (see README.md); ``--trace 1``
runs every solve once untraced and once traced and reports the per-layer
table from the traced copies, with the tracing overhead between the two.
The whole table, every solve with its seed and k, and the spans go to
``result.json`` in the run directory.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import inputs
import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: an untraced run tops its set-up samples up to this many with fresh
#: interpreters that only set up
SETUP_SAMPLES = 5
#: passes over the cost bins (see inputs.PASS_LENGTH) a run makes at
#: --seconds 10, scaled in proportion to --seconds. The work of a run is set
#: by the seed and --seconds alone, never by the clock, so two runs of the
#: same seed solve the same wave vectors and fail the same ones.
PASSES_PER_10_SECONDS = {"rational_companion": 2, "lossy_newton": 2,
                         "linear_refined": 1}
#: a command-line solve still running after this long is killed and counted
#: failed; converged solves of linear_refined take under 10 s even when the
#: machine runs slow, and a reference stall would run for minutes
SOLVE_CAP = 20.0
#: a run that has not finished by then is abandoned without a result
RUN_DEADLINE = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: end-to-end metrics of a --trace 0 run, with units
END_TO_END = (("setup_s", "s"), ("solve_s.p50", "s"), ("peak_rss_mb", "MB"))

#: everything the report prints, with units
SUMMARY_UNITS = (("setup_s", "s"), ("solve_s.p50", "s"), ("solve_s.tail", "s"),
                 ("wall_s", "s"), ("peak_rss_mb", "MB"), ("failed_frac", "ratio"))

#: per-layer metrics of a --trace 1 run, with units (the full table, every
#: level and self time, is in result.json)
PER_LAYER = (
    ("driver.reference_s", "s"), ("driver.schedule_s", "s"),
    ("driver.reference_share", "ratio"), ("driver.fine_steps", "count"),
    ("driver.coarse_steps", "count"), ("driver.reference_steps", "count"),
    ("mesh.build_s", "s"), ("mesh.prolongate_s", "s"),
    ("assembly.assemble_s", "s"), ("assembly.assemble_self_s", "s"),
    ("assembly.assemble_calls", "count"), ("assembly.weighted_mass_s", "s"),
    ("assembly.assemble_s.L2", "s"), ("assembly.assemble_s.L3", "s"),
    ("assembly.assemble_s.L4", "s"),
    ("linalg.hermitian_wrap_s", "s"), ("linalg.hermitian_wrap_calls", "count"),
    ("linalg.factorize_s", "s"), ("linalg.factorize_calls", "count"),
    ("linalg.factorize_s.L2", "s"), ("linalg.factorize_s.L3", "s"),
    ("linalg.factorize_s.L4", "s"),
    ("linalg.lu_fill_ratio", "ratio"), ("linalg.factorized_nnz", "count"),
    ("linalg.lu_fill_ratio.L2", "ratio"), ("linalg.lu_fill_ratio.L3", "ratio"),
    ("linalg.lu_fill_ratio.L4", "ratio"),
    ("linalg.solve_s", "s"), ("linalg.solve_calls", "count"),
    ("linalg.solve_s.L2", "s"), ("linalg.solve_s.L3", "s"),
    ("linalg.solve_s.L4", "s"),
    ("linalg.solves_per_factorization", "ratio"),
    ("linalg.rayleigh_s", "s"), ("linalg.dual_norm_s", "s"),
    ("eigeniter.step_s", "s"), ("eigeniter.step_self_s", "s"),
    ("eigeniter.steps", "count"), ("eigeniter.steps.L3", "count"),
    ("eigeniter.steps.L4", "count"), ("eigeniter.residual_s", "s"),
    ("companion.build_s", "s"), ("companion.step_s", "s"),
    ("companion.step_self_s", "s"), ("companion.steps", "count"),
    ("companion.residual_s", "s"),
    ("newton.warm_start_s", "s"), ("newton.step_s", "s"),
    ("newton.step_self_s", "s"), ("newton.steps", "count"),
    ("newton.residual_s", "s"), ("newton.useful_step_ratio", "ratio"),
    ("newton.attempted_steps", "count"),
    ("trace.solve_s", "s"), ("trace.untraced_solve_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
)


class RunError(Exception):
    """The benchmark could not measure; no result is printed."""


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    """Starts workers one at a time and collects their JSON output."""

    def __init__(self, rundir, deadline):
        self.rundir = rundir
        self.deadline = deadline
        self.env = _env()
        self.count = 0

    def worker(self, mode, *args, cap=None):
        """Run one worker; returns its JSON output, or None if it hit ``cap``."""
        self.count += 1
        out = self.rundir / ("w%d.json" % self.count)
        log = self.rundir / ("w%d.log" % self.count)
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise RunError("out of time before starting worker %d" % self.count)
        timeout = budget if cap is None else min(cap, budget)
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--t0", repr(t0),
               "--out", str(out)] + [str(a) for a in args]
        with open(log, "w", encoding="utf-8") as fh:
            try:
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                      env=self.env, cwd=str(ROOT), timeout=timeout)
            except subprocess.TimeoutExpired as err:
                # subprocess.run has killed and reaped the worker
                if timeout == cap:
                    return None
                raise RunError("worker %d ran past the run's deadline" % self.count) from err
        if proc.returncode != 0:
            raise RunError("worker %d (%s) exited with %d, see %s"
                           % (self.count, mode, proc.returncode, log))
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def solve_count(workload, seconds, trace=False):
    """Wave vectors a run solves: whole passes, in proportion to ``seconds``.

    A traced run solves each wave vector twice, so it takes the first half.
    """
    passes = max(1, round(PASSES_PER_10_SECONDS[workload] * seconds / 10.0))
    count = passes * inputs.PASS_LENGTH[workload]
    return max(1, count // 2) if trace else count


def _solve_all(runner, workload, trace, ins):
    """Solve every written input once (twice when traced).

    Returns (records, worker outputs).
    """
    outs = []
    if workload != "linear_refined":
        args = ["--config", runner.rundir / "base.ini", "--klist", runner.rundir / "k.txt"]
        if trace:
            args.append("--trace")
        outs.append(runner.worker("loop", *args))
        return outs[0]["records"], outs
    # one fresh interpreter per solve, as a command-line user pays it
    records = []
    for i, entry in enumerate(ins):
        csv_path = runner.rundir / ("k%d.csv" % i)
        args = ["--config", entry["ini"], "--csv", csv_path]
        copies = (None,) if not trace else ((False, True) if i % 2 == 0 else (True, False))
        for traced in copies:
            t = time.monotonic()
            out = runner.worker("cli", *(args + ["--trace"] if traced else args),
                                cap=SOLVE_CAP)
            if out is None:
                out = {"records": [{"status": "failed", "solve_s": time.monotonic() - t,
                                    "error": "killed after %g s" % SOLVE_CAP,
                                    "killed": True}]}
            rec = out["records"][0]
            rec.update(index=i, kx=entry["kx"], ky=entry["ky"])
            if traced is not None:
                rec["traced"] = traced
            for s in out.get("spans", []):
                s[4] = i
            records.append(rec)
            outs.append(out)
    return records, outs


def _gate(workload, tol, records, ins, points):
    """Mark each record; returns the number whose lambda1 was wrong."""
    wrong = 0
    for rec in records:
        point = points[ins[rec["index"]]["pool_index"]]
        if rec["status"] != "ok":
            continue
        reason = gate.check(workload, tol, rec, point)
        if reason is not None:
            rec["status"] = "wrong"
            rec["error"] = reason
            wrong += 1
    return wrong


def _percentile(values, p):
    """Nearest-rank percentile."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def _tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100.0 >= 10:
            return p, _percentile(values, p)
    return None, None


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def _summarize(records, outs, wrong):
    """End-to-end numbers of a run, printed and kept in result.json.

    A failed solve never reached tol, so the solve-time percentiles rank it
    above every solve that did (as an infinite time); a percentile that lands
    on a failure is None.
    """
    failed = sum(r["status"] != "ok" for r in records)
    times = sorted(r["solve_s"] if r["status"] == "ok" else math.inf for r in records)
    tail_p, tail_v = _tail(times)
    return {
        "setup_s": statistics.median(o["setup_s"] for o in outs if "setup_s" in o),
        "setup_samples": sum("setup_s" in o for o in outs),
        "solve_s.p50": _finite(statistics.median(times)),
        "solve_samples": len(times),
        "solve_s.tail_percentile": tail_p,
        "solve_s.tail": _finite(tail_v),
        "wall_s": sum(r["solve_s"] for r in records),
        # every worker has been waited for, so this covers all of them
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "failed_frac": failed / len(records),
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
    }


def main(argv=None):
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    begin = time.monotonic()
    if not (ROOT / "src" / "blochfem" / "__init__.py").is_file():
        print("run.py: no blochfem sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 1

    rundir = HERE / "runs" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if rundir.exists():
        shutil.rmtree(rundir)
    pool = inputs.load_pool(args.workload)
    count = solve_count(args.workload, args.seconds, args.trace)
    ins = inputs.write_inputs(args.workload, args.seed, count, rundir, pool["points"])
    tol = float(inputs.WORKLOADS[args.workload]["run"]["tol"])
    runner = Runner(rundir, begin + RUN_DEADLINE)
    try:
        records, outs = _solve_all(runner, args.workload, args.trace, ins)
        if not args.trace:
            while sum("setup_s" in o for o in outs) < SETUP_SAMPLES:
                outs.append(runner.worker("setup", "--config", rundir / "base.ini"))
    except RunError as err:
        print("run.py: %s" % err, file=sys.stderr)
        return 1
    wrong = _gate(args.workload, tol, records, ins, pool["points"])
    summary = _summarize(records, outs, wrong)
    if summary["solve_s.p50"] is None and not args.trace:
        print("run.py: half the solves or more failed; no median solve time",
              file=sys.stderr)
        return 1

    print("workload %s  seed %d  trace %d  (%d solves, %d failed, %d wrong)"
          % (args.workload, args.seed, args.trace, summary["attempted"],
             summary["failed"], wrong))
    for key, unit in SUMMARY_UNITS:
        if summary[key] is not None:
            print("  %-22s %14.6g %s" % (key, summary[key], unit))
    print("  solve samples %d (tail percentile %s), setup samples %d"
          % (summary["solve_samples"], summary["solve_s.tail_percentile"],
             summary["setup_samples"]))
    for r in records:
        if r["status"] != "ok":
            print("  %s at k = (%r, %r): %s" % (r["status"], r["kx"], r["ky"], r["error"]))

    layers = None
    if args.trace:
        # a killed command-line solve left no spans, so the table covers the
        # wave vectors whose copies both ran to the end
        killed = {r["index"] for r in records if r.get("killed")}
        traced = [r for r in records if r["traced"] and r["index"] not in killed]
        plain = [r for r in records if not r["traced"] and r["index"] not in killed]
        if not traced:
            print("run.py: every traced solve was killed; no layer table", file=sys.stderr)
            return 1
        all_spans = spans_mod.merge(
            o["spans"] for o in outs
            if "spans" in o and not killed.intersection(r["index"] for r in o["records"]))
        layers = spans_mod.layer_metrics(all_spans, len(traced))
        layers["trace.solve_s"] = statistics.fmean(r["solve_s"] for r in traced)
        layers["trace.untraced_solve_s"] = statistics.fmean(r["solve_s"] for r in plain)
        layers["trace.overhead_frac"] = layers["trace.solve_s"] / layers["trace.untraced_solve_s"] - 1.0
        layers["driver.reference_share"] = layers["driver.reference_s"] / layers["trace.solve_s"]
        print("  per-layer, per traced solve (inclusive _s, self _self_s, counts)%s:"
              % (", %d killed wave vector(s) left out" % len(killed) if killed else ""))
        for key in sorted(layers):
            if layers[key]:
                print("  %-40s %14.6g" % (key, layers[key]))

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pool_master_seed": pool["master_seed"],
        "summary": summary, "layers": layers, "records": records,
        "inputs": ins,
    }
    if args.trace:
        result["spans"] = all_spans
    with open(rundir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": wrong == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
