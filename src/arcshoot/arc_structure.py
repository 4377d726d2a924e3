"""Arc sequences: the hypothesized bang/constrained/singular structure.

Provides the :class:`ArcStructure` value type, the arc-kind lookup
:func:`arcs_of` and :func:`detect_structure`, which classifies a discretized
trajectory (from a direct method or from samples) into an ordered arc list
with switching-time guesses.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, StructureDetectionError
from .problem_def import ProblemDef


class ArcKind(enum.Enum):
    BMinus = "B-"
    BPlus = "B+"
    Constrained = "C"
    Singular = "S"

    @classmethod
    def from_token(cls, token: str) -> "ArcKind":
        for kind in cls:
            if kind.value == token:
                return kind
        raise ConfigurationError(f"unknown arc token {token!r}, use B-, B+, C or S")


@dataclass(frozen=True)
class ArcStructure:
    """Ordered arc kinds with interior switching-time guesses.

    ``tau`` holds the N-1 interior switching times, strictly increasing in
    (0, T).  Adjacent arcs must have distinct kinds.
    """

    kinds: tuple
    tau: tuple

    def __post_init__(self):
        kinds = tuple(self.kinds)
        tau = tuple(float(t) for t in self.tau)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "tau", tau)
        if len(kinds) < 1:
            raise ConfigurationError("structure needs at least one arc")
        if len(tau) != len(kinds) - 1:
            raise ConfigurationError(
                f"{len(kinds)} arcs need {len(kinds) - 1} switching times, got {len(tau)}"
            )
        for a, b in zip(kinds, kinds[1:]):
            if a == b:
                raise ConfigurationError(f"adjacent arcs must differ, got {a.value}{b.value}")
        if any(t2 <= t1 for t1, t2 in zip(tau, tau[1:])):
            raise ConfigurationError(f"switching times must be strictly increasing, got {tau}")

    @property
    def N(self) -> int:
        return len(self.kinds)

    def validate(self, prob: ProblemDef) -> None:
        """Check the structure against a problem (bounds present, times inside (0,T))."""
        if self.tau and (self.tau[0] <= 0.0 or self.tau[-1] >= prob.T):
            raise ConfigurationError(
                f"switching times must lie strictly inside (0, {prob.T}), got {self.tau}"
            )
        for kind in self.kinds:
            if kind is ArcKind.BMinus and prob.u_min is None:
                raise ConfigurationError("B- arc requires a finite lower control bound")
            if kind is ArcKind.BPlus and prob.u_max is None:
                raise ConfigurationError("B+ arc requires a finite upper control bound")

    def with_tau(self, tau) -> "ArcStructure":
        """Same kinds with replaced switching times (e.g. solved values)."""
        return ArcStructure(self.kinds, tuple(float(t) for t in tau))

    def tokens(self) -> list:
        return [k.value for k in self.kinds]

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], tau: Sequence[float]) -> "ArcStructure":
        return cls(tuple(ArcKind.from_token(t.strip()) for t in tokens), tuple(tau))


def arcs_of(kinds, kind):
    """0-based positions of the arcs of ``kind`` in ``kinds``: a slice (a view) for one arc."""
    ks = [k for k, kd in enumerate(kinds) if kd is kind]
    return slice(ks[0], ks[0] + 1) if len(ks) == 1 else ks


def detect_structure(
    prob: ProblemDef,
    grid: np.ndarray,
    u: np.ndarray,
    x: np.ndarray,
    min_arc_len: Optional[float] = None,
) -> ArcStructure:
    """Classify a sampled trajectory into an arc sequence with tau guesses.

    Per grid point: control at a bound wins over an active constraint
    (overlap signals a bang point), then g >= -tol_g marks a constrained
    point, anything else is singular.  The constraint test is one-sided
    because singular points require g < 0 strictly, while direct-method
    output sits slightly on the infeasible side of an active constraint.
    Runs shorter than ``min_arc_len`` (default 0.02 T) are merged into the
    longer neighbouring run; switching-time guesses sit at transition
    midpoints.  The tolerances scale with the data: tol_u = 1e-3 (u_max -
    u_min) (1e-3 with an absent bound), tol_g = 1e-4 (1 + max |g|).
    """
    grid = np.asarray(grid, dtype=float)
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    if grid.size == 0:
        raise StructureDetectionError("empty grid")
    if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
        raise StructureDetectionError("grid must be 1-D and strictly increasing")
    if u.shape != grid.shape or x.shape != (grid.size, prob.n):
        raise StructureDetectionError(
            f"samples misaligned: grid {grid.shape}, u {u.shape}, x {x.shape}"
        )
    if not all(np.all(np.isfinite(a)) for a in (grid, u, x)):
        raise StructureDetectionError("samples must be finite")
    bounded = prob.u_min is not None and prob.u_max is not None
    tol_u = 1e-3 * (prob.u_max - prob.u_min if bounded else 1.0)
    gvals = np.asarray(prob.g(x), dtype=float)
    tol_g = 1e-4 * (1.0 + float(np.max(np.abs(gvals))))
    min_len = 0.02 * prob.T if min_arc_len is None else min_arc_len

    # Assigned in reverse precedence, so a later kind overwrites an earlier one.
    raw = np.full(grid.size, ArcKind.Singular, dtype=object)
    raw[gvals >= -tol_g] = ArcKind.Constrained
    for kind, bound in ((ArcKind.BPlus, prob.u_max), (ArcKind.BMinus, prob.u_min)):
        if bound is not None:
            raw[np.abs(u - bound) <= tol_u] = kind

    runs = _merge_short_runs([(kind, i, i) for i, kind in enumerate(raw)], grid, min_len)

    kinds = tuple(kind for kind, _, _ in runs)
    tau = tuple(
        0.5 * (grid[runs[r][2]] + grid[runs[r + 1][1]]) for r in range(len(runs) - 1)
    )
    try:
        struct = ArcStructure(kinds, tau)
        struct.validate(prob)
    except ConfigurationError as exc:
        raise StructureDetectionError(str(exc), raw=raw) from exc
    return struct


def _merge_short_runs(runs: list, grid: np.ndarray, min_len: float) -> list:
    runs = _coalesce(runs)
    while len(runs) > 1:
        durations = [grid[e] - grid[s] for _, s, e in runs]
        shortest = int(np.argmin(durations))
        if durations[shortest] >= min_len:
            break
        kind, s, e = runs[shortest]
        left = runs[shortest - 1] if shortest > 0 else None
        right = runs[shortest + 1] if shortest + 1 < len(runs) else None
        if left is None:
            absorber = shortest + 1
        elif right is None:
            absorber = shortest - 1
        else:
            absorber = (
                shortest - 1
                if grid[left[2]] - grid[left[1]] >= grid[right[2]] - grid[right[1]]
                else shortest + 1
            )
        ak, as_, ae = runs[absorber]
        lo, hi = min(s, as_), max(e, ae)
        runs[min(shortest, absorber)] = (ak, lo, hi)
        del runs[max(shortest, absorber)]
        runs = _coalesce(runs)
    return runs


def _coalesce(runs: list) -> list:
    """Join neighbouring (kind, first_index, last_index) runs of one kind."""
    out = [runs[0]]
    for kind, s, e in runs[1:]:
        pk, ps, pe = out[-1]
        if kind == pk:
            out[-1] = (pk, ps, e)
        else:
            out.append((kind, s, e))
    return out


def read_trajectory_csv(path) -> tuple:
    """Read a `t,u,x1,...,xn` trajectory file; returns (t, u, x) arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 3 or header[0].strip() != "t" or header[1].strip() != "u":
            raise ConfigurationError(f"expected header t,u,x1,...,xn in {path}, got {header}")
        rows = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigurationError(f"line {reader.line_num} of {path}: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise StructureDetectionError(f"no samples in {path}")
    return data[:, 0], data[:, 1], data[:, 2:]


def write_trajectory_csv(path, t, u, x) -> None:
    """Write the `t,u,x1,...,xn` format consumed by detect_structure."""
    rows = np.column_stack([t, u, x]).astype(float)
    write_csv(path, ["t", "u"] + [f"x{i + 1}" for i in range(rows.shape[1] - 2)], [((), rows)])


def write_csv(path, header, blocks) -> None:
    """Write ``header`` and LF-ended rows, numbers with 9 significant digits.

    ``blocks`` yields (labels, values): the text fields ``labels`` lead each
    row of the 2-D array ``values``.
    """
    lines = [",".join(header)]
    for labels, values in blocks:
        lines += [",".join([*labels, *(f"{v:.9g}" for v in row)]) for row in values]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
