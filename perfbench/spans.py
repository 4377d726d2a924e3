"""Outside-in span recorder for the traced benchmark run.

The recorder replaces every module-level binding of the public layer
functions inside the ``arcshoot`` package with a wrapper that records a
span (name, start, end, parent, job id, a few attributes read from the
arguments or the result).  In a separate pass, the callbacks of the
``ProblemDef`` returned by ``arcshoot.problems.get_problem`` are wrapped
with plain counters; the two are never on together, so the counters' cost
stays out of the span times.  Nothing under ``src/`` is edited;
``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time

import numpy as np

# Public functions whose calls become spans; the layer is the module prefix
# of the metric names computed from them.
TARGETS = (
    "gauss_newton", "fd_jacobian", "propagate_endpoint", "propagate_arc",
    "validate_solution", "write_tp_csv", "save_omega", "direct_solve",
    "detect_structure", "linearized_matrices", "assemble_omega", "check_positivity",
)
CALLBACKS = (
    "f0", "f1", "df0", "df1", "g", "dg", "phi", "dphi", "Phi", "dPhi",
    "bracket_f1_f0", "bracket_f1f0_f0", "bracket_f1f0_f1", "dgamma",
)
PROBLEM_FACTORY = "get_problem"
PACKAGE = "arcshoot"


def _rows(x) -> int:
    """Batch rows of a state argument: the product of its leading axes."""
    return math.prod(np.shape(x)[:-1])


def _pe_call(a):
    return {"rows": _rows(a["x0"]), "steps": int(a["M"])}


def _arc_call(a):
    return {"steps": int(a["M"])}


def _gn_call(a):
    return {"arcs": int(a["struct"].N)}


def _gn_result(result):
    return {"iters": int(result[1].n_iter)}


def _gn_error(exc):
    return {"iters": int(exc.report.n_iter)}


def _direct_result(res):
    return {"iters": int(res.n_iters), "stalled": int(bool(res.stalled))}


def _assemble_result(qfd):
    lin = qfd.lin
    return {"ncoord": int(qfd.ncoord), "D": int(lin.D), "S": int(lin.n_channels),
            "nodes": int(lin.s.size)}


# name -> (from bound arguments, from the result, from a raised exception)
_ATTRS = {
    "propagate_endpoint": (_pe_call, None, None),
    "propagate_arc": (_arc_call, None, None),
    "gauss_newton": (_gn_call, _gn_result, _gn_error),
    "direct_solve": (None, _direct_result, None),
    "assemble_omega": (None, _assemble_result, None),
}
# Attribute read failures mean the program's interface moved; the metric
# built from that attribute is then reported as missing.
_ATTR_ERRORS = (AttributeError, KeyError, TypeError, IndexError, ValueError)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: int
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and callback counters; written out once by the caller."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = -1
        self.cb_calls = 0
        self.cb_rows = 0
        self._patches = []
        self.missing = {}

    # -- span bookkeeping -------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job, {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job: int) -> int:
        self.job = job
        return self.open("job")

    def end_job(self, root: int) -> None:
        self.close(root)

    def reset_counters(self) -> None:
        self.cb_calls = 0
        self.cb_rows = 0

    def counters(self) -> dict:
        return {"cb_calls": self.cb_calls, "cb_rows": self.cb_rows}

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn):
        on_call, on_result, on_error = _ATTRS.get(name, (None, None, None))
        sig = inspect.signature(fn) if on_call else None
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name)
            # Argument attributes are read before the call, so that a span
            # whose call raises still has them.
            if on_call:
                rec._attrs(idx, lambda: on_call(sig.bind(*args, **kwargs).arguments))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(idx)
                if on_error:
                    rec._attrs(idx, lambda: on_error(exc))
                raise
            rec.close(idx)
            if on_result:
                rec._attrs(idx, lambda: on_result(result))
            return result

        return traced

    def _attrs(self, idx, read) -> None:
        try:
            self.spans[idx].attrs.update(read())
        except _ATTR_ERRORS as exc:
            self.spans[idx].attrs["error"] = f"{type(exc).__name__}: {exc}"

    def _counted(self, fn):
        rec = self
        prod = math.prod

        # Called about a million times per cold job, so the common ndarray
        # case skips _rows' np.shape call.
        @functools.wraps(fn)
        def counted(*args):
            x = args[0]
            rec.cb_calls += 1
            rec.cb_rows += prod(x.shape[:-1]) if hasattr(x, "shape") else _rows(x)
            return fn(*args)

        return counted

    def _wrap_factory(self, fn):
        rec = self

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            prob = fn(*args, **kwargs)
            fields = {f.name for f in dataclasses.fields(prob)}
            return dataclasses.replace(prob, **{
                cb: rec._counted(getattr(prob, cb)) for cb in CALLBACKS
                if cb in fields and getattr(prob, cb) is not None
            })

        return factory

    def install(self, spans: bool) -> None:
        """Wrap every binding of the span targets (spans true) or of the
        problem factory (spans false) in the loaded arcshoot modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        wrapped = TARGETS if spans else (PROBLEM_FACTORY,)
        wrappers = {}
        found = set()
        for mod in modules:
            for name in TARGETS + (PROBLEM_FACTORY,):
                orig = mod.__dict__.get(name)
                if not callable(orig):
                    continue
                found.add(name)
                if name not in wrapped:
                    continue
                if id(orig) not in wrappers:
                    wrappers[id(orig)] = (self._wrap_factory(orig) if name == PROBLEM_FACTORY
                                          else self._wrap(name, orig))
                setattr(mod, name, wrappers[id(orig)])
                self._patches.append((mod, name, orig))
        self.missing = {name: f"no binding named {name!r} in any {PACKAGE} module"
                        for name in TARGETS + (PROBLEM_FACTORY,) if name not in found}

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches = []


# ---------------------------------------------------------------------------
# Per-job layer metrics
# ---------------------------------------------------------------------------

def assemble_gflop(a: dict) -> float:
    """Computed flops of the node loop of assemble_omega, from array shapes.

    Per node: Xi^T HXX Xi, the Xi^T M^T Y cross term, Y^T R Y and the four
    (ncoord x ncoord) accumulations; Xi is (D, ncoord), Y is (S, ncoord).
    """
    D, S, nc, m1 = a["D"], a["S"], a["ncoord"], a["nodes"]
    per_node = (2 * D * D * nc + 2 * D * nc * nc + 2 * D * S * nc + 2 * S * nc * nc
                + 2 * S * S * nc + 2 * S * nc * nc + 4 * nc * nc)
    return m1 * per_node / 1e9


def _under(spans, i, name) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _self_times(spans: list, root: int) -> tuple:
    """(indices of the job's spans after root, self time of each, child time of root)."""
    job = spans[root].job
    idx = [i for i in range(root + 1, len(spans)) if spans[i].job == job]
    child = {}
    for i in idx:
        child[spans[i].parent] = child.get(spans[i].parent, 0.0) + spans[i].dur
    return idx, {i: spans[i].dur - child.get(i, 0.0) for i in idx}, child.get(root, 0.0)


def job_metrics(spans: list, root: int, counters: dict, missing: dict) -> tuple:
    """(metrics, reasons) of one traced job whose root span index is root.

    Times are self times summed over the job, counts are per job.  A metric
    whose target is missing, or whose span attribute could not be read, is
    None, with the reason in the second dict.
    """
    idx, self_of, covered = _self_times(spans, root)
    pe, arc, gn, fd, asm = ("propagate_endpoint", "propagate_arc", "gauss_newton",
                            "fd_jacobian", "assemble_omega")

    def t(name):
        return sum((self_of[i] for i in idx if spans[i].name == name), 0.0)

    def calls(name):
        return sum(1 for i in idx if spans[i].name == name)

    def total(name, key):
        return sum(spans[i].attrs[key] for i in idx if spans[i].name == name)

    def one_row_residual():
        # Gauss-Newton's one-row residual passes: its one-row
        # propagate_endpoint calls outside fd_jacobian, one per arc and pass.
        return [i for i in idx if spans[i].name == pe and spans[i].attrs["rows"] == 1
                and _under(spans, i, gn) and not _under(spans, i, fd)]

    def passes():
        n = len(one_row_residual())
        return n / total(gn, "arcs") if n else 0.0

    def trials():
        return max(passes() - calls(gn), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    residual = (gn, fd, pe)
    # metric -> (wrapped targets it needs, formula)
    formulas = {
        "tp_dynamics.propagate_endpoint_s": ((pe,), lambda: t(pe)),
        "tp_dynamics.propagate_endpoint.calls": ((pe,), lambda: calls(pe)),
        "tp_dynamics.rows_per_call": ((pe,), lambda: ratio(total(pe, "rows"), calls(pe))),
        "tp_dynamics.rk4_steps": ((pe, arc), lambda: total(pe, "steps") + total(arc, "steps")),
        "tp_dynamics.propagate_arc_s": ((arc,), lambda: t(arc)),
        "problems.cb_calls": ((PROBLEM_FACTORY,), lambda: counters["cb_calls"]),
        "problems.cb_rows": ((PROBLEM_FACTORY,), lambda: counters["cb_rows"]),
        "shooting.gauss_newton_s": ((gn,), lambda: t(gn)),
        "shooting.gn_iters": ((gn,), lambda: total(gn, "iters")),
        "shooting.fd_jacobian_s": ((fd,), lambda: t(fd)),
        "shooting.fd_jacobian.calls": ((fd,), lambda: calls(fd)),
        "shooting.residual_s": (residual, lambda: sum((spans[i].dur for i in one_row_residual()),
                                                      0.0)),
        "shooting.residual.calls": (residual, passes),
        "shooting.ls_trials": (residual, trials),
        "shooting.ls_accept_ratio": (residual, lambda: ratio(total(gn, "iters"), trials())),
        "shooting.validate_s": (("validate_solution",), lambda: t("validate_solution")),
        "direct_init.direct_solve_s": (("direct_solve",), lambda: t("direct_solve")),
        "direct_init.iters": (("direct_solve",), lambda: total("direct_solve", "iters")),
        "direct_init.s_per_iter": (("direct_solve",),
                                   lambda: ratio(t("direct_solve"), total("direct_solve", "iters"))),
        "direct_init.stalled": (("direct_solve",), lambda: total("direct_solve", "stalled")),
        "arc_structure.detect_s": (("detect_structure",), lambda: t("detect_structure")),
        "second_order.linearized_matrices_s": (("linearized_matrices",),
                                               lambda: t("linearized_matrices")),
        "second_order.assemble_omega_s": ((asm,), lambda: t(asm)),
        "second_order.check_positivity_s": (("check_positivity",),
                                            lambda: t("check_positivity")),
        "second_order.ncoord": ((asm,), lambda: total(asm, "ncoord")),
        "second_order.assemble_gflop": ((asm,), lambda: sum(
            (assemble_gflop(spans[i].attrs) for i in idx if spans[i].name == asm), 0.0)),
        "cli.write_s": (("write_tp_csv", "save_omega"),
                        lambda: t("write_tp_csv") + t("save_omega")),
        "trace.coverage": ((), lambda: covered / spans[root].dur),
    }
    metrics = {}
    reasons = {}
    for name, (sources, formula) in formulas.items():
        gone = [missing[s] for s in sources if s in missing]
        if gone:
            metrics[name], reasons[name] = None, "; ".join(gone)
            continue
        try:
            metrics[name] = formula()
        except KeyError as exc:
            errs = sorted({spans[i].attrs["error"] for i in idx if "error" in spans[i].attrs})
            metrics[name] = None
            reasons[name] = f"span attribute {exc} unavailable: {'; '.join(errs)}"
    return metrics, reasons


def layer_shares(spans: list, root: int) -> dict:
    """Self time of each span name as a share of the job's wall time."""
    idx, self_of, covered = _self_times(spans, root)
    total = spans[root].dur
    shares = {"cli (outside spans)": (total - covered) / total}
    for i in idx:
        shares[spans[i].name] = shares.get(spans[i].name, 0.0) + self_of[i] / total
    return shares
