"""Command-line entry point.

Everything numerical is imported lazily inside the handlers: ``--threads``
must pin the BLAS/OpenMP pools through environment variables, and those are
only honored if they are set before numpy first loads.

Exit codes: 0 success, 2 solver failure (any ``BlochFEMError``, the
reference solve included; one line on stderr, no traceback; ``run`` still
writes its schedule's trace, with rel_err NaN when the reference failed), 1
usage or I/O trouble.
"""

import argparse
import os
import sys
import time

from .errors import BlochFEMError

__all__ = ["main"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by non-convergence here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="blochfem",
        description="Bloch eigenvalue experiments on the unit-cell FEM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", help="output CSV path (overrides the config)")
        p.add_argument("--threads", type=int, help="BLAS/OpenMP thread count")

    p_run = sub.add_parser("run", help="run one experiment schedule")
    common(p_run)
    p_ref = sub.add_parser("reference", help="compute the reference eigenvalue")
    common(p_ref)
    p_sweep = sub.add_parser("sweep", help="smallest eigenvalue along a k path")
    common(p_sweep)
    p_check = sub.add_parser("check", help="run the built-in invariant checks")
    p_check.add_argument("--threads", type=int, help="BLAS/OpenMP thread count")
    return parser


def _pin_threads(n):
    for var in _THREAD_VARS:
        os.environ[var] = str(int(n))


def _load_config(args):
    from .driver import RunConfig

    cfg = RunConfig.from_ini(args.config)
    if args.out is not None:
        from dataclasses import replace

        cfg = replace(cfg, out=args.out)
    return cfg


def _cmd_run(args):
    from . import driver
    from .errors import NonConvergenceError

    cfg = _load_config(args)
    start = time.perf_counter()
    try:
        trace = driver.run_schedule(cfg)
    except NonConvergenceError as err:
        if err.trace is not None and cfg.out:
            driver.emit_csv(err.trace, cfg.out)
        raise
    if cfg.use_reference:
        # the reference starts from where the schedule ended; when it fails,
        # the schedule's rows are still written, with rel_err NaN
        try:
            reference = driver.compute_reference(cfg, trace.final)
        except BlochFEMError:
            if cfg.out:
                driver.emit_csv(trace, cfg.out)
            raise
        trace.fill_rel_err(reference.mu_ref)
    if cfg.out:
        driver.emit_csv(trace, cfg.out)
    wall = time.perf_counter() - start
    last = trace[-1]
    print(
        "%s: lambda = %.17g after %d steps (level %d, %d dofs, residual %.3g, %.2fs)"
        % (
            cfg.experiment,
            last.lam,
            len(trace),
            last.mesh_level,
            last.dofs,
            last.residual_dual,
            wall,
        )
    )
    for note in trace.notes:
        print("note: %s" % note)
    return 0


def _cmd_reference(args):
    from . import driver

    cfg = _load_config(args)
    ref = driver.compute_reference(cfg)
    if ref.level is None:
        where = "analytic Fourier value"
    else:
        where = "level %d, %d dofs, residual %.3g" % (ref.level, ref.dofs, ref.residual_dual)
    print("reference: mu = %.17g  lambda = %.17g  (%s)" % (ref.mu_ref, ref.lam_ref, where))
    return 0


def _cmd_sweep(args):
    from . import driver

    cfg = _load_config(args)
    path = driver.linear_k_path(cfg.sweep_from, cfg.sweep_to, cfg.sweep_points)
    points = driver.k_sweep(cfg, path)
    if cfg.out:
        driver.emit_sweep_csv(points, cfg.out)
    failures = [p for p in points if p.error is not None]
    for p in points:
        print("k = (%.6g, %.6g)  lambda1 = %.17g" % (p.kx, p.ky, p.lam1))
    for p in failures:
        print("failed at k = (%.6g, %.6g): %s" % (p.kx, p.ky, p.error), file=sys.stderr)
    return 2 if failures else 0


def _cmd_check(args):
    """Fast invariant sweep: assembly oracle, adjoints, model identities."""
    import numpy as np

    from . import dispersion
    from .assembly import assemble_tm, max_asymmetry
    from .driver import fourier_lambda1
    from .eigeniter import Pencil, inverse_power_rq
    from .mesh import build_mesh, evaluate, prolongate

    results = []

    def check(name, ok, detail=""):
        print("%-44s %s %s" % (name, "ok" if ok else "FAIL", detail))
        results.append(ok)

    k = (np.pi / 2, np.pi)
    mesh = build_mesh(2)
    forms = assemble_tm(mesh, k)

    asym = max_asymmetry(forms.K.mat)
    check("stiffness Hermitian", asym <= 1e-12, "asym %.2e" % asym)

    pencil = Pencil.on_mesh(mesh, k, (1.0, 1.0), 1.0)
    tr, _ = inverse_power_rq(pencil, np.ones(pencil.n, complex), tol=1e-10)
    lam = tr[-1].lam
    exact = fourier_lambda1(k)
    rel = abs(lam - exact) / exact
    check("homogeneous eigenvalue vs Fourier", rel <= 1e-3, "rel %.2e" % rel)
    check("Rayleigh monotone", tr.is_monotone_per_level(), "")

    coarse = build_mesh(1)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(coarse.dof_count)
    pts = rng.random((40, 2))
    err = np.abs(
        evaluate(build_mesh(2), prolongate(v, coarse, build_mesh(2)), pts)
        - evaluate(coarse, v, pts)
    ).max()
    check("prolongation reproduces the field", err <= 1e-12, "max %.2e" % err)

    model = dispersion.SimplifiedDL(
        alpha2=2.0,
        terms=(
            dispersion.LorentzTerm(xi2=98.6960, eta2=55.2698),
            dispersion.LorentzTerm(xi2=197.3921, eta2=63.1655),
        ),
    )
    real = dispersion.realize(model)
    lams = rng.uniform(1.0, 40.0, size=200)
    worst = max(
        abs(dispersion.transfer(real, l) - sum(
            t.xi2 * t.eta2 / (t.eta2 - l) for t in model.terms
        ))
        for l in lams
    )
    check("realization transfer identity", worst <= 1e-10, "max %.2e" % worst)

    tr2, _ = inverse_power_rq(pencil, np.ones(pencil.n, complex), steps=5)
    tr3, _ = inverse_power_rq(pencil, np.ones(pencil.n, complex), steps=5)
    check("determinism (same start, same mus)", np.array_equal(tr2.mus(), tr3.mus()), "")

    failed = results.count(False)
    print("%d of %d checks failed" % (failed, len(results)) if failed else "all checks passed")
    return 2 if failed else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", None):
        _pin_threads(args.threads)
    handler = {
        "run": _cmd_run,
        "reference": _cmd_reference,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
    }[args.command]
    try:
        code = handler(args)
    except BlochFEMError as err:
        print("blochfem %s: %s" % (args.command, err), file=sys.stderr)
        return 2
    except OSError as err:
        print("blochfem: %s" % err, file=sys.stderr)
        return 1
    except ValueError as err:
        print("blochfem: bad configuration: %s" % err, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
