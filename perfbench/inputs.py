"""Seeded inputs: wave vectors in the irreducible Brillouin zone and INI files.

Every workload draws its wave vectors from a pool stored in
``expected/<workload>.json``. The pool is a uniform sample of the irreducible
zone 0 <= ky <= kx <= pi, stratified by area for even coverage: the triangle
is cut into congruent sub-triangles and each holds the same number of points,
drawn uniformly inside it. The pool also stores, for every point, the
expected lambda1 (so the correctness gate covers every seed, not a list of
known ones) and the number of solver steps it took when the pool was made
(schedule steps, and for ``linear_refined`` the reference's steps as well).

A run's ``--seed`` picks the order in which pool points are solved. The pool
is split into ``PASS_LENGTH[workload]`` equal bins by those step counts, and
every pass takes one seeded point from each bin, in a seeded order. Each
point is still equally likely to be drawn, so the draw stays uniform over
the zone, but every pass holds the same mix of cheap and expensive wave
vectors, which keeps a run's median from depending on how many slow points
the seed hit. Solve time grows smoothly with the step count, so the finer
the bins, the less a run's median moves with the seed.

The same seed always gives the same bytes: the k-list and INI files are
written with ``repr`` floats and fixed key order, and the order comes from
``random.Random(seed)``, which is stable across platforms and versions.
"""

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

#: the pool's zone triangle is cut into STRATA_SIDE**2 equal-area sub-triangles
STRATA_SIDE = 2

#: cost bins, and so wave vectors per pass; a run is whole passes. A pass is
#: about 8 s of in-process solves for rational_companion, about 20 s for
#: lossy_newton and about 40 s of command-line solves for linear_refined.
PASS_LENGTH = {"rational_companion": 16, "lossy_newton": 9, "linear_refined": 6}

#: base settings of each workload; kx, ky and seed are filled in per input
WORKLOADS = {
    # experiment2: lossless two-pole model through the companion pencil
    "rational_companion": {
        "run": {
            "experiment": "dl_linearized",
            "alpha1": "1.0",
            "beta": "8.8957",
            "steps_per_mesh": "5",
            "max_level": "2",
            "tol": "1e-10",
            "max_fine_steps": "400",
        },
        "model": {
            "kind": "simplified_dl",
            "alpha2": "2.0",
            "xi2": "98.6960, 197.3921",
            "eta2": "55.2698, 63.1655",
        },
    },
    # experiment3: seven-pole damped model, bordered Newton L0 -> L3
    "lossy_newton": {
        "run": {
            "experiment": "newton",
            "alpha1": "1.0",
            "steps_per_mesh": "3",
            "max_level": "3",
            "tol": "1e-12",
            "max_fine_steps": "40",
            "warm_eps2": "2.0",
            "warm_rq_steps": "8",
        },
        "model": {
            "kind": "real_dl",
            "alpha": "1.143",
            "xi2": "416.6166, 352.7054, -339.9124, 492.5687, -19.6143, -527.5597, 98.0101",
            "eta2": "92.1086, 71.6269, 71.4552, 227.8301, 47.4923, 93.5605, 121.3762",
            "gamma": "2.7820, 0.9597, 0.9500, 13.1508, 9.2697, 3.2624, 2.2712",
        },
    },
    # experiment1: TM disk eps2 = 8, reference on L4, schedule L0 -> L3
    "linear_refined": {
        "run": {
            "experiment": "linear",
            "alpha1": "1.0",
            "beta": "1.0",
            "steps_per_mesh": "7",
            "max_level": "3",
            "tol": "1e-10",
            "max_fine_steps": "400",
            "use_reference": "true",
        },
        "model": {"kind": "constant", "eps2": "8.0"},
    },
}


def strata(side=STRATA_SIDE):
    """Equal-area sub-triangles of {0 <= ky <= kx <= pi}, as vertex triples.

    The unit triangle 0 <= y <= x <= 1 is covered by a side x side grid of
    squares: the squares below the diagonal split into two triangles each,
    the diagonal squares contribute their lower half.
    """
    out = []
    s = math.pi / side
    for i in range(side):
        for j in range(i + 1):
            x0, y0 = i * s, j * s
            out.append(((x0, y0), (x0 + s, y0), (x0 + s, y0 + s)))
            if j < i:
                out.append(((x0, y0), (x0 + s, y0 + s), (x0, y0 + s)))
    return out


def uniform_in_triangle(rng, tri):
    """Uniform point in a triangle (fold the unit square onto it)."""
    (ax, ay), (bx, by), (cx, cy) = tri
    u, v = rng.random(), rng.random()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return (ax + u * (bx - ax) + v * (cx - ax), ay + u * (by - ay) + v * (cy - ay))


def make_pool(master_seed, per_stratum, side=STRATA_SIDE):
    """Stratified uniform pool: ``per_stratum`` points in every sub-triangle."""
    rng = random.Random(master_seed)
    pool = []
    for s, tri in enumerate(strata(side)):
        for _ in range(per_stratum):
            kx, ky = uniform_in_triangle(rng, tri)
            # the folded draw can land a rounding step outside the zone
            ky = min(max(ky, 0.0), kx)
            pool.append({"stratum": s, "kx": kx, "ky": ky})
    return pool


def load_pool(workload):
    """The stored pool (points with their expected results) of a workload."""
    path = EXPECTED_DIR / ("%s.json" % workload)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cost(point):
    """Sort key of a pool point's solve cost.

    The L4 reference of ``linear_refined`` is most of its solve time, so its
    step count ranks first; the schedule's step count breaks ties.
    """
    return (point.get("reference_steps", 0), point["steps"])


def cost_bins(points, nbins):
    """Bin of every pool point: ``nbins`` equal bins by stored cost."""
    ranked = sorted(range(len(points)), key=lambda i: (cost(points[i]), i))
    bins = [0] * len(points)
    for rank, i in enumerate(ranked):
        bins[i] = rank * nbins // len(points)
    return bins


def order(points, seed, count, nbins):
    """Indices of the first ``count`` pool points a run with ``seed`` solves.

    Passes over the cost bins in a seeded order; within a bin the points are
    taken in a seeded order without repeats until the bin runs dry, after
    which its order is reshuffled.
    """
    rng = random.Random(seed)
    members = {}
    for idx, b in enumerate(cost_bins(points, nbins)):
        members.setdefault(b, []).append(idx)
    queues = {b: [] for b in members}
    labels = sorted(members)
    out = []
    while len(out) < count:
        rng.shuffle(labels)
        for b in labels:
            if not queues[b]:
                queues[b] = list(members[b])
                rng.shuffle(queues[b])
            out.append(queues[b].pop())
            if len(out) == count:
                break
    return out


def ini_text(workload, seed, k=None):
    """INI file for one workload; ``k=None`` leaves the wave vector out."""
    spec = WORKLOADS[workload]
    run = dict(spec["run"])
    if k is not None:
        run["kx"] = repr(float(k[0]))
        run["ky"] = repr(float(k[1]))
    run["seed"] = str(int(seed))
    lines = ["[run]"]
    lines += ["%s = %s" % (key, run[key]) for key in sorted(run)]
    lines += ["", "[model]"]
    lines += ["%s = %s" % (key, val) for key, val in spec["model"].items()]
    return "\n".join(lines) + "\n"


def klist_text(ks):
    """One ``kx,ky`` line per wave vector, full precision."""
    return "".join("%r,%r\n" % (float(kx), float(ky)) for kx, ky in ks)


def read_klist(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(float(v) for v in line.split(",")) for line in fh if line.strip()]


def write_inputs(workload, seed, count, dest, points=None):
    """Write a run's inputs into ``dest`` and return their description.

    Writes ``base.ini`` (no wave vector) and ``k.txt`` (one line per
    solve). Workloads that run through the command line also get one
    ``k<i>.ini`` per wave vector. Returns a list of dicts with the pool
    index, k and the INI path of every input, in solve order.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    if points is None:
        points = load_pool(workload)["points"]
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    idx = order(points, seed, count, PASS_LENGTH[workload])
    ks = [(points[i]["kx"], points[i]["ky"]) for i in idx]
    (dest / "base.ini").write_text(ini_text(workload, seed), encoding="utf-8")
    (dest / "k.txt").write_text(klist_text(ks), encoding="utf-8")
    inputs = []
    for n, (i, k) in enumerate(zip(idx, ks)):
        entry = {"pool_index": i, "kx": k[0], "ky": k[1]}
        if workload == "linear_refined":
            ini = dest / ("k%d.ini" % n)
            ini.write_text(ini_text(workload, seed, k), encoding="utf-8")
            entry["ini"] = str(ini)
        inputs.append(entry)
    return inputs
