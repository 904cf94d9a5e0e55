"""Machine-readable check reports.

A report is a flat list of named checks.  Serialization keeps keys sorted
and floats at full repr precision: two runs over the same config and seed
must produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["CheckResult", "Report"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check against its tolerance."""

    name: str
    max_err: float
    tol: float
    n: int

    def __post_init__(self) -> None:
        # normalize numpy scalars so json and identity checks behave
        object.__setattr__(self, "max_err", float(self.max_err))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "n", int(self.n))

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "max_err": self.max_err,
            "tol": self.tol,
            "n": self.n,
        }


@dataclass(frozen=True)
class Report:
    """All checks from one command invocation."""

    checks: tuple[CheckResult, ...]

    @property
    def verdict(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "checks": [c.to_json() for c in self.checks],
            "verdict": self.verdict,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render_lines(self) -> str:
        """Human-oriented one-line-per-check summary (stderr companion)."""
        width = max((len(c.name) for c in self.checks), default=0)
        rows = [f"{c.name:<{width}}  {c.status:4}  "
                f"max_err={c.max_err:.3e}  tol={c.tol:.3e}  n={c.n}"
                for c in self.checks]
        rows.append(f"verdict: {self.verdict}")
        return "\n".join(rows) + "\n"
