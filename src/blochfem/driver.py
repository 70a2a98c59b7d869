"""Experiment orchestration: refinement schedules, references, CSV traces.

The central object is the steps-per-mesh schedule: run a fixed number of
eigensolver steps on each mesh level, prolongate the iterate, refine, and
repeat; on the finest level iterate until the dual-norm residual meets the
tolerance (or a step budget runs out). Coarse solves are cheap, so most of
the convergence happens before the expensive fine-mesh factorization ever
exists -- that is the entire point of the schedule, and the wall-time
columns in the emitted traces are how we check it keeps being true.

Three experiment families share the one level loop of :func:`run_schedule`:

``linear`` / ``homogeneous_check`` / ``k_sweep``
    constant permittivity, shifted inverse power / Rayleigh iteration;
``dl_linearized``
    lossless two-pole permittivity through the extended linear pencil;
``newton``
    dispersive permittivity attacked directly: bordered Newton on level 0,
    warm-started from a constant-model Rayleigh run, then residual inverse
    iteration with the coarse eigenvalue as its shift on every refined
    level.

Everything here is plumbing around the solver modules: configuration
parsing, level hand-offs, reference solutions, CSV persistence. No
numerics of its own beyond the eigenvalue-error column. A level function
sets up its solver leg and lifts the coarse state; the leg's trace rows,
step budget and stop rule belong to :func:`~blochfem.eigeniter.iterate`.
"""

import configparser
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dispersion
from .assembly import assemble_tm, reference_pencil, release_pieces
from .companion import (
    build_companion,
    default_big_start,
    lifted_big_start,
    shift_lower_bound,
    solve_linearized,
)
from .eigeniter import Pencil, inverse_power_rq, lopcg
from .errors import BlochFEMError, NonConvergenceError
from .linalg import BoundedDualNorm
from .mesh import MAX_LEVEL, build_mesh, prolongate
from .newton import (
    NonlinearPencil,
    newton_solve,
    residual_inverse_iteration,
    warm_start,
)
from .trace import CSV_HEADER, IterationTrace

__all__ = [
    "EXPERIMENTS",
    "RunConfig",
    "ReferenceSolution",
    "SweepPoint",
    "run_schedule",
    "compute_reference",
    "fourier_lambda1",
    "emit_csv",
    "k_sweep",
    "emit_sweep_csv",
]

EXPERIMENTS = ("linear", "dl_linearized", "newton", "homogeneous_check", "k_sweep")

REFERENCE_TOL = 1e-12


@dataclass
class RunConfig:
    """One experiment run, fully determined (together with the binary).

    ``model`` is a dispersion-model instance; :meth:`from_ini` builds it
    from the ``[model]`` section. ``beta = None`` picks the standard shift
    for the experiment (1.0 for constant models, the positivity bound + 1
    for the linearized rational ones).
    """

    experiment: str = "linear"
    kx: float = math.pi / 2
    ky: float = math.pi
    model: object = field(default_factory=lambda: dispersion.Constant(1.0))
    alpha1: float = 1.0
    beta: float = None
    steps_per_mesh: int = 5
    max_level: int = 3
    fine_only: bool = False
    tol: float = 1e-10
    max_fine_steps: int = 400
    seed: int = 0  # accepted for old configs; no solver draws random numbers
    use_reference: bool = False
    warm_eps2: float = 2.0
    warm_rq_steps: int = 8
    out: str = None
    # [sweep] section; only consulted by k_sweep paths
    sweep_from: tuple = (0.0, 0.0)
    sweep_to: tuple = (math.pi, 0.0)
    sweep_points: int = 9

    @property
    def k(self):
        return (self.kx, self.ky)

    def resolved_beta(self):
        if self.beta is not None:
            return float(self.beta)
        if self.experiment == "dl_linearized":
            return shift_lower_bound(self.model) + 1.0
        return 1.0

    def validate(self):
        """Reject impossible configurations before any assembly happens."""
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                "unknown experiment %r (one of %s)" % (self.experiment, ", ".join(EXPERIMENTS))
            )
        if self.steps_per_mesh < 1:
            raise ValueError("steps_per_mesh must be >= 1")
        # a reference solves on the level above max_level
        top = MAX_LEVEL - 1 if self.use_reference else MAX_LEVEL
        if not 0 <= self.max_level <= top:
            raise ValueError("max_level must be in [0, %d]" % top)
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_fine_steps < 1:
            raise ValueError("max_fine_steps must be >= 1")
        if not self.alpha1 > 0.0:
            raise ValueError("alpha1 must be positive")
        if self.experiment in ("linear", "homogeneous_check", "k_sweep"):
            if not isinstance(self.model, dispersion.Constant):
                raise ValueError(
                    "experiment %r needs a constant model" % self.experiment
                )
            if not self.model.c > 0.0:
                raise ValueError("constant permittivity must be positive")
            if self.beta is not None and not self.beta > 0.0:
                raise ValueError("beta must be positive for the constant model")
        if self.experiment == "homogeneous_check" and self.alpha1 != self.model.c:
            # the analytic reference holds for a homogeneous cell only
            raise ValueError(
                "homogeneous_check needs alpha1 == eps2, got %g and %g"
                % (self.alpha1, self.model.c)
            )
        if self.experiment == "dl_linearized":
            if not isinstance(self.model, dispersion.SimplifiedDL):
                raise ValueError(
                    "experiment 'dl_linearized' needs a simplified_dl model"
                )
            # the companion shift bound depends on the model: check it now
            # rather than after the level-0 assembly
            bound = shift_lower_bound(self.model)
            if self.beta is not None and not self.beta > bound:
                raise ValueError(
                    "beta = %g violates the companion shift bound %g" % (self.beta, bound)
                )
        if self.experiment == "newton":
            if not self.warm_eps2 > 0.0:
                raise ValueError("warm-start permittivity must be positive")
            if self.warm_rq_steps < 0:
                raise ValueError("warm_rq_steps must be >= 0")
        if self.sweep_points < 1:
            raise ValueError("sweep needs at least one point")
        return self

    @classmethod
    def from_ini(cls, path):
        """Read a run configuration from a flat INI file.

        Schema: ``[run]`` holds the scalar knobs (every field of this class
        except the model), ``[model]`` the permittivity (``kind`` plus its
        parameters), ``[sweep]`` an optional straight k-path. Unknown keys
        are rejected -- silent typos have burned enough afternoons.
        """
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = cp.read(path)
        if not read:
            raise OSError("cannot read config file %r" % (path,))
        cfg = cls()
        if cp.has_section("run"):
            run = cp["run"]
            known = {f.name: f.type for f in fields(cls)
                     if f.name != "model" and not f.name.startswith("sweep_")}
            for key in run:
                if key not in known:
                    raise ValueError("unknown [run] key %r in %s" % (key, path))
            cfg = replace(cfg, **{
                key: run.getboolean(key) if known[key] is bool else known[key](run[key])
                for key in run
            })
        cfg = replace(cfg, model=_model_from_section(cp))
        if cp.has_section("sweep"):
            sw = cp["sweep"]
            for key in sw:
                if key not in ("from_kx", "from_ky", "to_kx", "to_ky", "points"):
                    raise ValueError("unknown [sweep] key %r in %s" % (key, path))
            cfg = replace(
                cfg,
                sweep_from=(sw.getfloat("from_kx", 0.0), sw.getfloat("from_ky", 0.0)),
                sweep_to=(sw.getfloat("to_kx", math.pi), sw.getfloat("to_ky", 0.0)),
                sweep_points=sw.getint("points", 9),
            )
        return cfg.validate()


def _floats(text):
    return tuple(float(part) for part in text.replace(",", " ").split())


def _model_from_section(cp):
    if not cp.has_section("model"):
        return dispersion.Constant(1.0)
    sec = cp["model"]
    kind = sec.get("kind", "constant").strip().lower()
    if kind == "constant":
        return dispersion.Constant(sec.getfloat("eps2", 1.0))
    xi2 = _floats(sec.get("xi2", ""))
    eta2 = _floats(sec.get("eta2", ""))
    if len(xi2) != len(eta2):
        raise ValueError("model needs matching xi2/eta2 lists")
    if kind == "simplified_dl":
        terms = tuple(
            dispersion.LorentzTerm(xi2=x, eta2=e) for x, e in zip(xi2, eta2)
        )
        return dispersion.SimplifiedDL(alpha2=sec.getfloat("alpha2", 1.0), terms=terms)
    if kind == "real_dl":
        gamma = _floats(sec.get("gamma", ""))
        if len(gamma) != len(xi2):
            raise ValueError("real_dl model needs one gamma per pole")
        terms = tuple(
            dispersion.LorentzTerm(xi2=x, eta2=e, gamma=g)
            for x, e, g in zip(xi2, eta2, gamma)
        )
        return dispersion.RealDL(alpha=sec.getfloat("alpha", 1.0), terms=terms)
    raise ValueError("unknown model kind %r" % (kind,))


@dataclass(frozen=True)
class ReferenceSolution:
    """Eigenvalue on one level beyond max_level, iterated to 1e-12.

    For ``homogeneous_check`` it is the analytic Fourier value, with
    ``level`` and ``dofs`` None and a zero residual.
    """

    mu_ref: float
    lam_ref: float
    level: int
    dofs: int
    residual_dual: float


@dataclass(frozen=True)
class SweepPoint:
    kx: float
    ky: float
    lam1: float
    error: str = None

    def as_csv(self):
        return "%.17g,%.17g,%.17g" % (self.kx, self.ky, self.lam1)


# ---------------------------------------------------------------------------
# the schedule


def run_schedule(config):
    """Run one experiment through the steps-per-mesh schedule.

    One loop serves every experiment family: on each level (level 0 up to
    ``max_level``, or only the finest level when ``fine_only`` is set) it
    builds the mesh and hands it to the family's level function together
    with the previous level's ``(mesh, state)``. Below ``max_level`` the leg
    is ``steps_per_mesh`` solver steps; on ``max_level`` the solver iterates
    until ``tol`` or ``max_fine_steps``. Returns the accumulated
    :class:`IterationTrace`, with the last level's ``(mesh, state)`` in
    ``trace.final``; a solver failure is noted in ``trace.notes`` and
    re-raised with the partial trace attached.
    """
    config.validate()
    level_fn = {"dl_linearized": _companion_level, "newton": _newton_level}.get(
        config.experiment, _power_level
    )
    levels = [config.max_level] if config.fine_only else range(config.max_level + 1)
    trace = IterationTrace()
    coarse = None
    try:
        for level in levels:
            mesh = build_mesh(level)
            if level < config.max_level:
                leg = dict(steps=config.steps_per_mesh)
            else:
                leg = dict(tol=config.tol, max_steps=config.max_fine_steps)
            coarse = (mesh, level_fn(config, mesh, coarse, trace, leg))
        trace.final = coarse
    except NonConvergenceError as err:
        trace.note("aborted: %s" % err)
        if err.trace is None:
            err.trace = trace
        raise
    return trace


# Level functions: ``(config, mesh, coarse, trace, leg) -> state``. Each
# starts from scratch when ``coarse`` is None, or else lifts the state of
# the coarse ``(mesh, state)`` onto ``mesh``, then runs one solver leg. Every
# state has the field ``u`` and the eigenvalue ``lam``.


@dataclass(frozen=True)
class _PowerState:
    u: np.ndarray  # raw last iterate
    lam: float


def _power_pencil(config, mesh, coarse):
    """The beta-pencil on ``mesh`` and the start lifted from ``coarse``."""
    if coarse is None:
        u = np.ones(mesh.dof_count, dtype=complex)
    else:
        u = prolongate(coarse[1].u, coarse[0], mesh)
    pencil = Pencil.on_mesh(mesh, config.k, (config.alpha1, config.model.c),
                            config.resolved_beta())
    return pencil, u


def _release_reference_pieces(config, mesh):
    """Drops the cached region pieces once the operators of a reference
    level (one beyond ``max_level``) are built: a run reads no level's
    pieces after that."""
    if mesh.level > config.max_level:
        release_pieces()


def _power_level(config, mesh, coarse, trace, leg):
    pencil, u = _power_pencil(config, mesh, coarse)
    _, u = inverse_power_rq(pencil, u, mesh_level=mesh.level, trace=trace, **leg)
    return _PowerState(u=u, lam=trace[-1].lam)


def _companion_level(config, mesh, coarse, trace, leg):
    pencil = build_companion(
        mesh, config.k, config.model, alpha1=config.alpha1, beta=config.resolved_beta()
    )
    _release_reference_pieces(config, mesh)
    if coarse is None:
        z = default_big_start(pencil)
    else:
        # prolongate the physical field; reseed the auxiliary blocks at the
        # current eigenvalue
        coarse_mesh, sol = coarse
        z = lifted_big_start(pencil, prolongate(sol.u, coarse_mesh, mesh), sol.lam)
    return solve_linearized(pencil, z, mesh_level=mesh.level, trace=trace, **leg)


def _newton_level(config, mesh, coarse, trace, leg):
    """Bordered Newton from the warm start, or residual inverse iteration.

    A refined level runs :func:`~blochfem.newton.residual_inverse_iteration`
    from the prolongated field, with sigma the coarse lambda, and nothing
    else; it factors nothing, its solves with T(sigma) being GMRES solves
    to a relative 1e-3 (:data:`~blochfem.linalg.INNER_RTOL`) on the FFT
    inverse of K + M. A solve that misses it, a stall on the rounding floor
    and a spent step budget raise NonConvergenceError. The reference runs
    this branch on the level above. Level 0, or the only level of a
    ``fine_only`` run, runs :func:`~blochfem.newton.newton_solve` from the
    warm start's (u, lam), a fixed-step or a tolerance leg as ``leg`` says,
    and hands its last state on. Every bordered step factors its matrix
    and normalizes against the iterate it starts from.
    """
    pencil = NonlinearPencil(assemble_tm(mesh, config.k), config.model,
                             alpha1=config.alpha1)
    if coarse is not None:
        _release_reference_pieces(config, mesh)
        coarse_mesh, state = coarse
        u = prolongate(state.u, coarse_mesh, mesh)
        return residual_inverse_iteration(
            pencil, u, state.lam, mesh_level=mesh.level, trace=trace, **leg
        )
    u, lam = warm_start(
        mesh, config.k, const_eps2=config.warm_eps2,
        rq_steps=config.warm_rq_steps, alpha1=config.alpha1,
    )
    trace.note(
        "warm start: %d Rayleigh steps on the eps2=%g model, omega0=%.6g"
        % (config.warm_rq_steps, config.warm_eps2, math.sqrt(lam))
    )
    return newton_solve(pencil, u, lam, mesh_level=mesh.level, trace=trace,
                        **leg)


# ---------------------------------------------------------------------------
# references and persistence


def compute_reference(config, final=None):
    """Eigenvalue on the (max_level + 1) mesh, iterated down to
    :data:`REFERENCE_TOL`.

    Starts from ``final``, the ``(mesh, state)`` a schedule of ``config``
    ended on (``trace.final``); without it, the schedule runs first. The
    state is lifted onto the finer mesh and solved there by the family's
    level function, as one more level of the schedule. The power family
    instead runs :func:`~blochfem.eigeniter.lopcg` on the beta-pencil,
    preconditioned by the FFT inverse of K + w_min*M, w_min the smaller of
    ``alpha1`` and the model's constant, which lies below K + M_w
    (:class:`~blochfem.linalg.BoundedDualNorm`); it factors nothing. The
    row that stops the leg records an upper bound of its dual norm, by
    proof, and ``mu_ref`` is the pencil's own Rayleigh quotient.
    ``homogeneous_check`` returns the analytic Fourier value and solves
    nothing; the other families refuse a ``max_level`` of
    :data:`~blochfem.mesh.MAX_LEVEL` or more before the schedule runs.

    A reference is the last thing a run solves, so it releases the cached
    region pieces (:func:`~blochfem.assembly.release_pieces`) before the
    finer mesh is built, and keeps none of that mesh: the power family
    builds its pencil there with
    :func:`~blochfem.assembly.reference_pencil`, which caches nothing and
    keeps of M1 and M2 only the rows the bound reads; the other families
    release the finer mesh's pieces once their operators are built. A
    schedule run after it builds each level again.
    """
    config.validate()
    if config.experiment == "homogeneous_check":
        lam = fourier_lambda1(config.k, config.model.c)
        return ReferenceSolution(
            mu_ref=lam + config.resolved_beta(), lam_ref=lam, level=None,
            dofs=None, residual_dual=0.0,
        )
    if config.max_level + 1 > MAX_LEVEL:
        raise ValueError("a reference needs max_level < %d" % MAX_LEVEL)
    if final is None:
        final = run_schedule(config).final
    release_pieces()
    mesh = build_mesh(config.max_level + 1)
    trace = IterationTrace()
    leg = dict(tol=REFERENCE_TOL, max_steps=max(config.max_fine_steps, 2000))
    if config.experiment == "dl_linearized":
        _companion_level(config, mesh, final, trace, leg)
    elif config.experiment == "newton":
        _newton_level(config, mesh, final, trace, leg)
    else:
        weights, beta = (config.alpha1, config.model.c), config.resolved_beta()
        u = prolongate(final[1].u, final[0], mesh)
        forms, masses = reference_pencil(mesh, config.k, weights, beta)
        pencil = Pencil(*forms, beta)
        dual = BoundedDualNorm(pencil.dual_operator(), *masses, weights,
                               REFERENCE_TOL)
        lopcg(pencil, u, dual=dual, mesh_level=mesh.level, trace=trace, **leg)
    last = trace[-1]
    return ReferenceSolution(
        mu_ref=last.mu,
        lam_ref=last.lam,
        level=mesh.level,
        dofs=last.dofs,
        residual_dual=last.residual_dual,
    )


def fourier_lambda1(k, eps=1.0):
    """Smallest Bloch eigenvalue of a homogeneous cell of permittivity ``eps``.

    The plane waves exp(i (k + 2 pi n) . x) give min_n |k + 2 pi n|^2 / eps;
    each component of k is reduced to its nearest image.
    """
    return sum(math.remainder(c, 2 * math.pi) ** 2 for c in k) / eps


def emit_csv(trace, path):
    """Write a trace as CSV (17 significant digits, LF endings)."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in trace:
                fh.write(row.as_csv() + "\n")
    except OSError as err:
        raise OSError("cannot write trace CSV %r: %s" % (str(path), err)) from err


def linear_k_path(start, stop, points):
    """``points`` k-vectors evenly spaced on the segment [start, stop]."""
    if points < 1:
        raise ValueError("need at least one point")
    if points == 1:
        return [tuple(map(float, start))]
    ts = np.linspace(0.0, 1.0, points)
    a, b = np.asarray(start, float), np.asarray(stop, float)
    return [tuple(a + t * (b - a)) for t in ts]


def k_sweep(config, k_path):
    """Smallest eigenvalue along a list of Bloch vectors.

    Each point runs the configured solver through :func:`run_schedule`.
    A failing point is recorded (``lam1 = NaN`` plus the error text) and
    the sweep moves on.
    """
    if not k_path:
        raise ValueError("empty k path")
    config.validate()
    points = []
    for kx, ky in k_path:
        cfg = replace(config, kx=float(kx), ky=float(ky), out=None)
        try:
            tr = run_schedule(cfg)
            points.append(SweepPoint(kx=cfg.kx, ky=cfg.ky, lam1=tr[-1].lam))
        except (BlochFEMError, np.linalg.LinAlgError) as err:
            points.append(
                SweepPoint(kx=cfg.kx, ky=cfg.ky, lam1=math.nan, error=str(err))
            )
    return points


def emit_sweep_csv(points, path):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("kx,ky,lambda1\n")
            for p in points:
                fh.write(p.as_csv() + "\n")
    except OSError as err:
        raise OSError("cannot write sweep CSV %r: %s" % (str(path), err)) from err
