"""Machine-readable check reports.

A report is a flat list of named checks.  Serialization keeps keys sorted
and floats at full repr precision: two runs over the same config and seed
must produce byte-identical JSON.
``worst_index`` is the flat index of a check's worst per-sample error
(``null`` without per-sample errors); ``nonfinite`` counts NaN/inf errors.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

__all__ = ["CheckResult", "Report"]


def _json_value(v) -> str:
    """v as json.dumps writes it: null, an escaped ASCII string, a float
    by its repr (NaN, Infinity and -Infinity as json spells them), or an
    int."""
    if v is None:
        return "null"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return float.__repr__(v)
    return int.__repr__(v)


class CheckResult:
    """Outcome of one named check against its tolerance."""

    __slots__ = ("name", "max_err", "tol", "n", "worst_index", "nonfinite")

    def __init__(self, name: str, max_err: float, tol: float, n: int,
                 worst_index: int | None = None, nonfinite: int = 0):
        self.name, self.max_err, self.tol, self.n = name, max_err, tol, n
        self.worst_index, self.nonfinite = worst_index, nonfinite
        self.__post_init__()

    def __eq__(self, other):
        if type(other) is not CheckResult:
            return NotImplemented
        return self.to_json() == other.to_json()

    def __post_init__(self) -> None:
        # normalize numpy scalars so json and identity checks behave; a
        # method of its own, which the benchmark tracer wraps
        self.max_err, self.tol, self.n = \
            float(self.max_err), float(self.tol), int(self.n)

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
            "worst_index": self.worst_index,
            "nonfinite": self.nonfinite,
        }


class Report:
    """All checks from one command invocation."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]):
        self.checks = checks

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
        """The bytes of json.dumps(self.to_json(), indent=2, sort_keys=True)
        plus a newline, written out directly: with an indent, json runs its
        pure-Python encoder, whose closures leave reference cycles behind
        on every call."""
        checks = ",\n".join(
            "    {\n" + ",\n".join(f"      {_json_value(k)}: {_json_value(v)}"
                                   for k, v in sorted(c.to_json().items()))
            + "\n    }" for c in self.checks)
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        return (f'{{\n  "checks": {checks},\n'
                f'  "verdict": {_json_value(self.verdict)}\n}}\n')

    def render_lines(self) -> str:
        """Human-oriented one-line-per-check summary (stderr companion)."""
        width = max((len(c.name) for c in self.checks), default=0)
        rows = [f"{c.name:<{width}}  {c.status:4}  "
                f"max_err={c.max_err:.3e}  tol={c.tol:.3e}  n={c.n}"
                for c in self.checks]
        rows.append(f"verdict: {self.verdict}")
        return "\n".join(rows) + "\n"
