"""Per-step iteration records shared by every solver in the package.

A trace is a list of :class:`TraceRow`. Solvers add one row per step through
:meth:`IterationTrace.record`, which numbers steps globally across refinement
levels; the driver owns persistence (CSV) and fills the relative-error column.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["TraceRow", "IterationTrace", "CSV_HEADER"]

CSV_HEADER = "j,mesh_level,dofs,mu,lambda,rel_err,residual_dual,wall_seconds"


@dataclass(frozen=True)
class TraceRow:
    """One solver step.

    ``mu`` is the shifted eigenvalue approximation, ``lam = mu - beta`` the
    physical one. ``rel_err`` is NaN unless the run was given a reference.
    """

    j: int
    mesh_level: int
    dofs: int
    mu: float
    lam: float
    residual_dual: float
    wall_seconds: float
    rel_err: float = math.nan

    def as_csv(self):
        return "%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (
            self.j,
            self.mesh_level,
            self.dofs,
            self.mu,
            self.lam,
            self.rel_err,
            self.residual_dual,
            self.wall_seconds,
        )


@dataclass
class IterationTrace:
    rows: list = field(default_factory=list)
    # free-form annotations appended by the driver (solver failures, level
    # hand-offs); never written into the CSV rows
    notes: list = field(default_factory=list)
    # the (mesh, state) a finished schedule ended on, where its reference
    # starts; None on a partial trace
    final: object = field(default=None, compare=False, repr=False)

    def record(self, mesh_level, dofs, mu, lam, residual_dual, wall_seconds):
        """Append the row of one solver step, numbered after the last row."""
        self.rows.append(TraceRow(
            j=self.next_j, mesh_level=mesh_level, dofs=dofs, mu=mu, lam=lam,
            residual_dual=residual_dual, wall_seconds=wall_seconds,
        ))

    def fill_rel_err(self, mu_ref):
        """Set ``rel_err = |mu - mu_ref| / |mu_ref|`` on every row."""
        self.rows = [
            replace(r, rel_err=abs(r.mu - mu_ref) / abs(mu_ref)) for r in self.rows
        ]

    def note(self, message):
        self.notes.append(str(message))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    @property
    def next_j(self):
        return self.rows[-1].j + 1 if self.rows else 1

    def mus(self):
        return np.array([r.mu for r in self.rows])

    def residuals(self):
        return np.array([r.residual_dual for r in self.rows])

    def levels(self):
        return np.array([r.mesh_level for r in self.rows], dtype=int)

    def monotone_mu_violation(self):
        """Largest relative increase of mu within a fixed mesh level.

        Returns 0.0 for a clean trace. Increases across a refinement
        boundary are expected (the space changed) and are not counted.
        """
        worst = 0.0
        for a, b in zip(self.rows, self.rows[1:]):
            if b.mesh_level != a.mesh_level:
                continue
            scale = max(abs(a.mu), 1.0)
            worst = max(worst, (b.mu - a.mu) / scale)
        return max(worst, 0.0)

    def is_monotone_per_level(self, slack=1e-12):
        return self.monotone_mu_violation() <= slack
