"""Violation reports shared by all structure checkers.

A checker lists its identities as ``(name, residual, power)`` triples and
hands them to :func:`check_identities`, the one place where residuals become
a :class:`CheckReport`.  Each violation records the identity name, the basis
tuple at which it fails, and the exact residual vector.  Reports are
deterministic: identities are evaluated in a fixed order and tuples in
lexicographic order, so the first violation of a broken structure is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class Violation:
    equation: str
    at: tuple[int, ...]
    residual: tuple[Fraction, ...]

    def __str__(self) -> str:
        res = ", ".join(str(x) for x in self.residual)
        return f"{self.equation} at basis tuple {self.at}: residual ({res})"


@dataclass
class CheckReport:
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed

    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def equations_violated(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for v in self.violations:
            seen.setdefault(v.equation, None)
        return tuple(seen)

    def render(self, max_per_equation: int = 20) -> str:
        """Human-readable report, truncated to ``max_per_equation`` residuals
        per identity with a total count."""
        if max_per_equation < 0:
            raise ValueError(f"max_per_equation must be at least 0, got {max_per_equation}")
        if self.passed:
            lines = ["pass"]
        else:
            lines = [f"FAIL: {len(self.violations)} violation(s)"]
            by_eq: dict[str, list[Violation]] = {}
            for v in self.violations:
                by_eq.setdefault(v.equation, []).append(v)
            for eq, vs in by_eq.items():
                shown = vs[:max_per_equation]
                lines.append(f"  [{eq}] {len(vs)} violation(s)")
                for v in shown:
                    res = ", ".join(str(x) for x in v.residual)
                    lines.append(f"    at {v.at}: ({res})")
                if len(vs) > len(shown):
                    lines.append(f"    ... {len(vs) - len(shown)} more")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class ReportError(ValueError):
    """An input failed a check; carries the report that shows why."""

    def __init__(self, message: str, report: Optional[CheckReport] = None):
        super().__init__(message if report is None else f"{message}\n{report.render()}")
        self.report = report


def exact_residual(column, scale: int = 1) -> tuple[Fraction, ...]:
    """The reported residual of a violating column computed ``scale`` times
    too large: each entry divided by ``scale``, as a Fraction."""
    return tuple(Fraction(x, scale) for x in column)


def require_stop_after(stop_after: Optional[int]) -> None:
    """Reject a ``stop_after`` below 1, which would stop before the first
    violation and let a broken structure pass."""
    if stop_after is not None and stop_after < 1:
        raise ValueError(f"stop_after must be at least 1, got {stop_after}")


def collect_tensor_violations(
    report: CheckReport,
    equation: str,
    residual: np.ndarray,
    *,
    stop_after: Optional[int] = None,
    scale: int = 1,
) -> bool:
    """Append a violation for every basis tuple (the input axes, i.e. all axes
    after axis 0) at which the residual slice is nonzero.  A checker that
    evaluated the identity on inputs scaled so that the residual comes out
    ``scale`` times the exact one passes ``scale``; only the violating
    slices are divided by it.

    Returns True when the caller should stop checking further identities
    because ``stop_after`` violations have been collected in total.
    """
    residual = np.asarray(residual)
    if np.count_nonzero(residual):
        if residual.ndim <= 1:
            report.violations.append(Violation(equation, (), exact_residual(residual.flat, scale)))
        else:
            # argwhere lists the violating columns in C order, i.e. lexicographically
            for idx in np.argwhere(np.count_nonzero(residual, axis=0)).tolist():
                idx = tuple(idx)
                column = residual[(slice(None),) + idx]
                report.violations.append(Violation(equation, idx, exact_residual(column, scale)))
                if stop_after is not None and len(report.violations) >= stop_after:
                    return True
    return stop_after is not None and len(report.violations) >= stop_after


def check_identities(
    identities: Iterable[tuple[str, np.ndarray, int]],
    *,
    den: int = 1,
    stop_after: Optional[int] = None,
    report: Optional[CheckReport] = None,
) -> CheckReport:
    """The report of ``(name, residual, power)`` triples, each residual
    computed ``den**power`` times too large (see :func:`collect_tensor_violations`).

    ``stop_after`` is checked before the first triple is drawn.  The triples
    are drawn in order, and none after the ``stop_after``-th violation in
    total, so a checker that yields them from a generator never computes a
    residual past the stop.  Violations are appended to ``report`` when one
    is given."""
    require_stop_after(stop_after)
    report = CheckReport() if report is None else report
    for name, residual, power in identities:
        if collect_tensor_violations(report, name, residual, stop_after=stop_after, scale=den**power):
            break
    return report
