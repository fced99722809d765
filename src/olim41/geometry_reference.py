"""Reference geometry data and comparison against optimistic limits.

Hyperbolic surgeries carry a volume Vol and a Chern-Simons invariant cs
normalized so that CS = 2 pi^2 cs; the optimistic limit of a geometric
critical point is expected to equal CS + i Vol. Built-in rows cover the
framings whose values the sources print; further rows load from a CSV
with header `p,vol,cs` in the same normalization. The p -> infinity
closed form 2 i Cl2(pi/3) and the explicit approximate solution
(e^{-2 pi i/p}, e^{-i pi/3}) live here as well.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    ReferenceDataError,
    checked_integer,
    within_float_range,
)
from .specfun import clausen2

__all__ = [
    "GeometryReference",
    "MatchReport",
    "builtin_references",
    "load_references",
    "limit_infinity",
    "infinity_solution",
    "compare",
]

_TWO_PI_SQ = 2 * math.pi * math.pi


@dataclass(frozen=True)
class GeometryReference:
    """One framing's volume and Chern-Simons data.

    vol is dimensionless (v3 times the simplicial volume for the
    non-hyperbolic cases); cs uses the normalization with CS = 2 pi^2 cs.
    note flags rows whose value is inferred rather than computed.
    """

    p: int
    vol: float
    cs: float
    provenance: str = "paper-builtin"
    note: str = ""

    def __post_init__(self):
        checked_integer(self.p, "surgery coefficient")
        if not (math.isfinite(self.vol) and self.vol >= 0):
            raise DomainError(f"volume must be finite and nonnegative, got {self.vol!r}")
        if not math.isfinite(self.cs):
            raise DomainError(f"cs must be finite, got {self.cs!r}")

    @property
    def CS(self):
        """Chern-Simons invariant on the 2 pi^2 scale."""
        return _TWO_PI_SQ * self.cs

    @property
    def target(self):
        """CS + i Vol, the value an optimistic limit should reproduce."""
        return complex(self.CS, self.vol)


@dataclass(frozen=True)
class MatchReport:
    """Outcome of comparing an optimistic limit V with a reference."""

    p: int
    V: complex
    target: complex
    abs_error: float
    matched: bool


def builtin_references():
    """References printed by the sources: p = 0, 4, 6.

    The p = 4 row is inferred (V = 2 pi^2 x 0.09999999995 suggests
    cs = 1/10 as the sum of the two pieces' invariants) and is marked so.
    """
    return [
        GeometryReference(p=0, vol=0.0, cs=0.0),
        GeometryReference(p=4, vol=0.0, cs=0.1,
                          note="approximate: inferred from V = 2 pi^2 x 0.09999999995"),
        GeometryReference(p=6, vol=1.2844853, cs=0.0679316734799),
    ]


def load_references(path):
    """Builtins merged with user rows from a `p,vol,cs` CSV.

    Lines starting with # are comments; the first data line must be the
    header. A user row replaces the builtin with the same p; duplicate p
    within the file, malformed fields, or negative volume raise
    ReferenceDataError with the offending line number, and a file that
    cannot be read as UTF-8 text raises it with the path. A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeError) as exc:
        raise ReferenceDataError(
            f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}"
        ) from exc
    merged = {ref.p: ref for ref in builtin_references()}
    seen = set()
    header_done = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_done:
            if [c.strip() for c in line.split(",")] != ["p", "vol", "cs"]:
                raise ReferenceDataError(
                    f"line {lineno}: expected header 'p,vol,cs', got {line!r}"
                )
            header_done = True
            continue
        fields = [c.strip() for c in line.split(",")]
        if len(fields) != 3:
            raise ReferenceDataError(
                f"line {lineno}: expected 3 fields, got {len(fields)}"
            )
        try:
            p = int(fields[0])
            vol = float(fields[1])
            cs = float(fields[2])
        except ValueError as exc:
            raise ReferenceDataError(f"line {lineno}: {exc}") from exc
        if p in seen:
            raise ReferenceDataError(f"line {lineno}: duplicate framing p={p}")
        seen.add(p)
        try:
            merged[p] = GeometryReference(p=p, vol=vol, cs=cs, provenance="user-csv")
        except DomainError as exc:
            raise ReferenceDataError(f"line {lineno}: {exc}") from exc
    if not header_done:
        raise ReferenceDataError("missing header 'p,vol,cs'")
    return sorted(merged.values(), key=lambda ref: ref.p)


def limit_infinity():
    """The p -> infinity optimistic limit, 2 i Cl2(pi/3).

    The real part vanishes (the knot complement is amphicheiral) and the
    imaginary part is the figure-eight complement volume 2.029883212819.
    """
    return 2j * clausen2(math.pi / 3)


def infinity_solution(p):
    """The explicit approximate solution (e^{-2 pi i/p}, e^{-i pi/3}).

    It satisfies the critical-point system up to defects
    (zeta - 1)(omega + 1) and omega (zeta - 1)^2, both O(1/p); p >= 1,
    and p must have a float (DomainError otherwise).
    """
    p = checked_integer(p, "surgery coefficient")
    if p < 1:
        raise DomainError(f"the infinity solution needs p >= 1, got {p}")
    within_float_range(p, "surgery coefficient")
    return cmath.exp(-2j * math.pi / p), cmath.exp(-1j * math.pi / 3)


def compare(V, ref, tolerance):
    """MatchReport of V against ref's CS + i Vol at the given tolerance."""
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")
    V = complex(V)
    error = abs(V - ref.target)
    return MatchReport(p=ref.p, V=V, target=ref.target,
                       abs_error=error, matched=error < tolerance)
