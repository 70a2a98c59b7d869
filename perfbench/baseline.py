"""Print the per-layer table of BASELINE.md from traced runs.

    python3 perfbench/run.py --workload <w> --seed 100 --seconds 12 --trace 1   # each workload
    python3 perfbench/baseline.py 100

Reads ``runs/<workload>-seed<N>-trace1/result.json`` of every workload and
prints one markdown row per metric of ``run.PER_LAYER`` plus the self times
and levels listed in EXTRA, leaving out rows that are 0 everywhere.
"""

import json
import sys

import inputs
import run

#: rows beyond the ones BENCHMARK.json lists
EXTRA = (
    ("linalg.factorize_s.L0", "s"), ("linalg.factorize_s.L1", "s"),
    ("linalg.lu_fill_ratio.L1", "ratio"),
    ("linalg.hermitian_wrap_self_s", "s"), ("linalg.solve_self_s", "s"),
    ("linalg.dual_norm_self_s", "s"), ("eigeniter.residual_self_s", "s"),
    ("companion.residual_self_s", "s"), ("newton.residual_self_s", "s"),
    ("newton.warm_start_self_s", "s"), ("driver.schedule_self_s", "s"),
    ("driver.reference_schedule_self_s", "s"),
)


def main(seed):
    workloads = list(inputs.WORKLOADS)
    results = {}
    for w in workloads:
        path = run.HERE / "runs" / ("%s-seed%d-trace1" % (w, seed)) / "result.json"
        with open(path, encoding="utf-8") as fh:
            results[w] = json.load(fh)
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for name, unit in run.PER_LAYER + EXTRA:
        vals = [results[w]["layers"].get(name, 0.0) for w in workloads]
        if any(vals):
            print("| `%s` | %s | %s |" % (name, unit, " | ".join(
                "%.4g" % v if v else "0" for v in vals)))
    print()
    for w in workloads:
        res = results[w]
        traced = [r for r in res["records"] if r["traced"]]
        bad = [(r["index"], r["status"]) for r in res["records"] if r["status"] != "ok"]
        pool_index = [i["pool_index"] for i in res["inputs"]]
        print("- `%s`: %d wave vectors, pool points %s; not ok (input, status): %s"
              % (w, len(traced), pool_index, bad or "none"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: baseline.py SEED")
    main(int(sys.argv[1]))
