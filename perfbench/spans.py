"""Spans around the package's public call boundaries, and the layer table.

``Tracer.install()`` wraps the public functions and methods listed in
TARGETS. A function that other modules import by name (``from .assembly
import assemble_tm``) is replaced in every ``blochfem`` module that holds it,
because that is where the call looks it up; a method is replaced on its
class, so every call through an instance sees it. ``EliminatedPencil.step``
overrides ``Pencil.step`` and is wrapped on its own.

Each span is ``[name, start_ns, end_ns, parent, solve, level, extra]``:
``parent`` is the index of the enclosing span (-1 at the top), ``solve``
the id of the solve it belongs to, ``level`` the mesh level read from the
call's mesh or matrix size (None where neither is known), ``extra`` a dict
of counts read from the call's public results. Spans stay in memory until
the worker writes them out at the end of its run.

``layer_metrics`` turns spans into the per-layer table. It needs only the
standard library, so the harness can run it without importing numpy.
"""

import functools
import time
from collections import defaultdict

#: DOFs of mesh level 0; level L has BASE_DOFS * 4**L
BASE_DOFS = 256


def level_of_size(n):
    """Mesh level of a matrix of size ``n``.

    Covers the plain (256 * 4**L), bordered (one more) and companion
    (physical plus auxiliary, below four times the physical) systems.
    """
    level = 0
    while BASE_DOFS * 4 ** (level + 1) <= n:
        level += 1
    return level


def _schedule_extra(result, config):
    """Fine/coarse step counts and Newton step usefulness of a trace."""
    rows = list(result)
    fine = sum(1 for r in rows if r.mesh_level == config.max_level)
    extra = {"fine_steps": fine, "coarse_steps": len(rows) - fine}
    if config.experiment == "newton":
        # a step is useful when it lowers the dual residual of the row before
        # it on the same level; newton_solve's first fine row is the start's
        # residual, not a step, and a level's first coarse row has no
        # predecessor on that level
        useful = attempted = 0
        for a, b in zip(rows, rows[1:]):
            if a.mesh_level == b.mesh_level:
                attempted += 1
                useful += b.residual_dual < a.residual_dual
        extra["useful_steps"] = useful
        extra["attempted_steps"] = attempted
    return extra


def _factorization_extra(fact):
    lu = fact.lu
    return {"lu_nnz": int(lu.L.nnz + lu.U.nnz), "a_nnz": int(fact.mat.nnz)}


# (span name, module, attribute, class name or None, level-of-call)
# level-of-call gets (args, kwargs, self-or-None) and returns a level or None
TARGETS = [
    ("driver.reference", "blochfem.driver", "compute_reference", None,
     lambda a, kw, s: a[0].max_level + 1),
    ("driver.schedule", "blochfem.driver", "run_schedule", None,
     lambda a, kw, s: a[0].max_level),
    ("mesh.build", "blochfem.mesh", "build_mesh", None, lambda a, kw, s: a[0]),
    ("mesh.prolongate", "blochfem.mesh", "prolongate", None,
     lambda a, kw, s: a[2].level),
    ("assembly.assemble", "blochfem.assembly", "assemble_tm", None,
     lambda a, kw, s: a[0].level),
    ("assembly.weighted_mass", "blochfem.assembly", "weighted_mass", None,
     lambda a, kw, s: a[0].level),
    ("linalg.hermitian_wrap", "blochfem.linalg", "__init__", "HermitianSparse",
     lambda a, kw, s: level_of_size(s.n)),
    ("linalg.factorize", "blochfem.linalg", "__init__", "Factorization",
     lambda a, kw, s: level_of_size(s.n)),
    ("linalg.solve", "blochfem.linalg", "solve", "Factorization",
     lambda a, kw, s: level_of_size(s.n)),
    ("linalg.rayleigh", "blochfem.linalg", "rayleigh_quotient", None,
     lambda a, kw, s: level_of_size(len(a[0]))),
    ("linalg.dual_norm", "blochfem.linalg", "__call__", "DualNorm",
     lambda a, kw, s: level_of_size(len(a[0]))),
    ("eigeniter.step", "blochfem.eigeniter", "step", "Pencil",
     lambda a, kw, s: level_of_size(s.n)),
    ("eigeniter.residual", "blochfem.eigeniter", "residual_dual", "Pencil",
     lambda a, kw, s: level_of_size(s.n)),
    ("companion.build", "blochfem.companion", "build_companion", None,
     lambda a, kw, s: a[0].level),
    ("companion.step", "blochfem.companion", "step", "EliminatedPencil",
     lambda a, kw, s: level_of_size(s.system.n_v)),
    ("companion.residual", "blochfem.companion", "__call__", "NonlinearResidual",
     lambda a, kw, s: level_of_size(len(a[0]))),
    ("newton.warm_start", "blochfem.newton", "warm_start", None,
     lambda a, kw, s: a[0].level),
    ("newton.step", "blochfem.newton", "newton_step", None,
     lambda a, kw, s: level_of_size(a[0].n)),
    ("newton.residual", "blochfem.newton", "residual_dual", "NonlinearPencil",
     lambda a, kw, s: level_of_size(s.n)),
]


class Tracer:
    """Records spans around TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self.solve = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, level_of, is_method):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span_name = name
            if name == "driver.schedule" and parent >= 0 and spans[parent][0] == "driver.reference":
                span_name = "driver.reference_schedule"
            span = [span_name, time.perf_counter_ns(), None, parent, tracer.solve, None, None]
            spans.append(span)
            tracer._stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                if name == "driver.schedule" and getattr(err, "trace", None) is not None:
                    result = err.trace
                raise
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
                self_obj = args[0] if is_method else None
                call_args = args[1:] if is_method else args
                try:
                    span[5] = level_of(call_args, kwargs, self_obj)
                except (AttributeError, IndexError, TypeError):
                    span[5] = None
                if name == "linalg.factorize" and hasattr(self_obj, "lu"):
                    span[6] = _factorization_extra(self_obj)
                elif name == "driver.schedule" and result is not None:
                    span[6] = _schedule_extra(result, call_args[0])

        return wrapper

    def install(self):
        import importlib
        import sys

        import blochfem.driver  # noqa: F401  (loads every solver module)

        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, modname, attr, clsname, level_of in TARGETS:
            mod = importlib.import_module(modname)
            # a boundary that a later version of the package removed is
            # skipped, and its rows in the layer table read 0
            if clsname is not None:
                cls = getattr(mod, clsname, None)
                orig = vars(cls).get(attr) if cls is not None else None
                if orig is not None:
                    setattr(cls, attr, self._wrap(name, orig, level_of, True))
                    self._undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, level_of, False)
            for other in list(sys.modules.values()):
                modname_other = getattr(other, "__name__", "")
                if not modname_other.startswith("blochfem"):
                    continue
                if getattr(other, attr, None) is orig:
                    setattr(other, attr, wrapped)
                    self._undo.append((other, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []


# ---------------------------------------------------------------------------
# the layer table


#: shorter names of the step spans' call counts
_COUNTS = {
    "eigeniter.step": "eigeniter.steps",
    "companion.step": "companion.steps",
    "newton.step": "newton.steps",
}


def merge(span_lists):
    """Concatenate the span lists of several workers, fixing parent indices."""
    out = []
    for spans in span_lists:
        base = len(out)
        out.extend(s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:] for s in spans)
    return out


def _self_times(spans):
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(spans, solves):
    """Per-solve layer table from the spans of ``solves`` traced solves.

    Times are seconds per solve, inclusive (``<name>_s``) and self
    (``<name>_self_s``); counts are calls per solve. Every time and count is
    also split by mesh level with a ``.L<level>`` suffix. Ratios come with
    their base: ``linalg.lu_fill_ratio`` over ``linalg.factorized_nnz``,
    ``linalg.solves_per_factorization`` over ``linalg.factorize_calls``,
    ``newton.useful_step_ratio`` over ``newton.attempted_steps``.
    """
    if solves < 1:
        raise ValueError("need at least one traced solve")
    names = [t[0] for t in TARGETS] + ["driver.reference_schedule"]
    total = defaultdict(float)
    selft = _self_times(spans)
    extras = defaultdict(int)
    for s, st in zip(spans, selft):
        name, level = s[0], s[5]
        dur = (s[2] - s[1]) * 1e-9
        keys = [""] if level is None else ["", ".L%d" % level]
        for suffix in keys:
            total[name + "_s" + suffix] += dur
            total[name + "_self_s" + suffix] += st * 1e-9
            total[name + "_calls" + suffix] += 1
        for key, val in (s[6] or {}).items():
            prefix = "driver.reference_" if name == "driver.reference_schedule" else ""
            extras[prefix + key] += val
            if level is not None and name == "linalg.factorize":
                extras[key + ".L%d" % level] += val
    out = {}
    for name in names:
        for kind in ("_s", "_self_s", "_calls"):
            base = name + kind
            for key in [base] + ["%s.L%d" % (base, lv) for lv in range(5)]:
                out[key] = total.get(key, 0.0) / solves
    for name, count_name in _COUNTS.items():
        for key in list(out):
            if key == name + "_calls" or key.startswith(name + "_calls."):
                out[count_name + key[len(name + "_calls"):]] = out[key]
    out["driver.fine_steps"] = extras["fine_steps"] / solves
    out["driver.coarse_steps"] = extras["coarse_steps"] / solves
    out["driver.reference_steps"] = extras["driver.reference_fine_steps"] / solves
    out["linalg.factorized_nnz"] = extras["a_nnz"] / solves
    out["linalg.lu_fill_ratio"] = extras["lu_nnz"] / extras["a_nnz"] if extras["a_nnz"] else 0.0
    for lv in range(5):
        a = extras["a_nnz.L%d" % lv]
        out["linalg.lu_fill_ratio.L%d" % lv] = extras["lu_nnz.L%d" % lv] / a if a else 0.0
    fact = total["linalg.factorize_calls"]
    out["linalg.solves_per_factorization"] = total["linalg.solve_calls"] / fact if fact else 0.0
    out["newton.attempted_steps"] = extras["attempted_steps"] / solves
    att = extras["attempted_steps"]
    out["newton.useful_step_ratio"] = extras["useful_steps"] / att if att else 0.0
    out["trace.spans"] = len(spans) / solves
    return out
