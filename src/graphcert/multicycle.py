"""Chromatic index machinery for multicycles.

A multicycle is a multigraph whose underlying simple graph is a cycle: m
positions, slot i carrying mult[i] parallel edges between positions i and
i+1 (mod m). A proper coloring assigns each parallel edge a color so that the
colors meeting at any position are pairwise distinct; equivalently every color
class is an independent set of slots (no two cyclically consecutive).

The chromatic index is exactly max(Delta, tau), where tau = ceil(sigma/k) and
k = floor(m/2): one construction, the arc coloring, attains this lower bound
on every multicycle, multipaths (some slot empty) included. The proof is in
the docstring of `chromatic_index`; the tests check it against an exhaustive
oracle on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import ClassVar, Iterable, Sequence

from .bishop_rook import rarest_color_edges
from .core import CertificateError, VerificationReport


@dataclass(frozen=True)
class Multicycle:
    """Cyclic multigraph given by its slot multiplicities.

    Position i is the vertex between slots i-1 and i; order lists the vertex
    positions in the k-step arrangement used by derived multicycles.
    """

    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mult) < 3 or len(self.mult) % 2 == 0:
            raise ValueError("multicycle needs odd m >= 3")
        if any(x < 0 for x in self.mult):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.mult)

    @property
    def k(self) -> int:
        return self.m // 2

    @property
    def order(self) -> tuple[int, ...]:
        return tuple((j * self.k) % self.m + 1 for j in range(self.m))

    @property
    def sigma(self) -> int:
        return sum(self.mult)

    @property
    def mu_minus(self) -> int:
        return min(self.mult)

    @property
    def mu_plus(self) -> int:
        return max(self.mult)

    def degree(self, position: int) -> int:
        return self.mult[position - 1] + self.mult[position % self.m]

    @property
    def delta(self) -> int:
        return max(self.degree(i) for i in range(self.m))

    @property
    def tau(self) -> int:
        return ceil(self.sigma / self.k) if self.sigma else 0

    @property
    def lower_bound(self) -> int:
        return max(self.delta, self.tau)


@dataclass(frozen=True)
class MulticycleColoring:
    """Colors of the parallel edges, listed per slot."""

    slots: tuple[tuple[int, ...], ...]

    def colors_used(self) -> tuple[int, ...]:
        return tuple(sorted({c for s in self.slots for c in s}))

    @property
    def color_count(self) -> int:
        return len(self.colors_used())


def verify_multicycle_coloring(mc: Multicycle, coloring: MulticycleColoring,
                               expected_colors: int | None = None) -> VerificationReport:
    detail: list[str] = []
    if len(coloring.slots) != mc.m:
        detail.append(f"coloring has {len(coloring.slots)} slots, multicycle has {mc.m}")
    else:
        for p, colors in enumerate(coloring.slots):
            if len(colors) != mc.mult[p]:
                detail.append(f"slot {p} carries {len(colors)} colors, multiplicity {mc.mult[p]}")
            if any(c < 1 for c in colors):
                detail.append(f"slot {p} has a nonpositive color")
        for v in range(mc.m):
            at_vertex = list(coloring.slots[v - 1]) + list(coloring.slots[v])
            if len(at_vertex) != len(set(at_vertex)):
                detail.append(f"repeated color at position {v}")
    used = coloring.color_count
    if expected_colors is not None and used != expected_colors:
        detail.append(f"uses {used} colors, expected {expected_colors}")
    return VerificationReport(ok=not detail, colors_used=used, delta=mc.delta,
                              detail=tuple(detail))


# --- construction ----------------------------------------------------------------

def arc_coloring(mc: Multicycle) -> MulticycleColoring:
    """Color with exactly K = max(Delta, tau) colors by laying each slot's colors
    as a contiguous arc on the color circle Z_K.

    Walking around the cycle, slot p takes the next mult[p] colors after a gap
    of gap[p] <= slack[p] = K - mult[p-1] - mult[p] unused ones, so adjacent
    arcs are disjoint. The gaps add up to laps*K - sigma, which closes the walk
    after laps = ceil(sigma/K) turns; `chromatic_index` proves they fit. The
    coloring is returned unverified.
    """
    K = mc.lower_bound
    m = mc.m
    if K == 0:
        return MulticycleColoring(tuple(() for _ in range(m)))
    laps = ceil(mc.sigma / K)
    gap_total = laps * K - mc.sigma
    slack = [K - mc.mult[p - 1] - mc.mult[p] for p in range(m)]
    gaps = []
    for p in range(m):
        g = min(slack[p], gap_total)
        gaps.append(g)
        gap_total -= g
    slots: list[tuple[int, ...]] = []
    s = 0
    for p in range(m):
        s += gaps[p]
        slots.append(tuple((s + j) % K + 1 for j in range(mc.mult[p])))
        s += mc.mult[p]
    return MulticycleColoring(tuple(slots))


# --- chromatic index -------------------------------------------------------------

@dataclass(frozen=True)
class ChiResult:
    """Chromatic index and an unverified coloring that attains it."""

    value: int
    coloring: MulticycleColoring
    method: ClassVar[str] = "arc"


def chromatic_index(mc: Multicycle) -> ChiResult:
    """Exact chromatic index max(Delta, tau), attained by `arc_coloring`.

    Lower bound. The edges at one position pairwise meet, so chi' >= Delta.
    Parallel edges meet too, so a color class takes at most one edge per slot
    and no two consecutive slots: at most k = floor(m/2) edges. Hence
    chi' >= ceil(sigma/k) = tau.

    The arc coloring reaches it. Let K = max(Delta, tau) > 0.
    - Every slack[p] = K - mult[p-1] - mult[p] is >= 0, because K >= Delta.
      Each arc holds mult[p] <= K distinct colors for the same reason.
    - Slots p-1 and p get disjoint colors mod K, because their arcs and the
      gap between them span mult[p-1] + gap[p] + mult[p] <= K colors.
    - The walk ends at sigma + sum(gap) = laps*K = 0 mod K, so the last slot
      and slot 0 are separated by gap[0] in the same way.
    - The gaps fit: the needed total laps*K - sigma is below the total slack
      m*K - 2*sigma. Indeed sigma <= k*K because K >= tau, and
      laps*K < sigma + K, so laps*K + sigma < 2*sigma + K <= (2k+1)*K = m*K.
    """
    return ChiResult(mc.lower_bound, arc_coloring(mc))


# --- derived multicycles ---------------------------------------------------------

@dataclass(frozen=True)
class DerivedMulticycle:
    """Multicycle of the rarest bishop color's edges, projected to rows."""

    m: int
    n: int
    multicycle: Multicycle
    slot_edges: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def mult(self) -> tuple[int, ...]:
        return self.multicycle.mult

    @property
    def order(self) -> tuple[int, ...]:
        return self.multicycle.order

    @property
    def sigma(self) -> int:
        return self.multicycle.sigma


def derive(m: int, n: int) -> DerivedMulticycle:
    """Project the edges of the rarest canonical bishop color 2m-2 onto their
    row indices, arranged on the k-step cycle.

    Those edges are the second color of group (k, -), k = m // 2: every
    second edge along that group's paths from each leftmost end, which
    `rarest_color_edges` builds without coloring the rest of the board. An
    edge between rows not adjacent on the cycle raises CertificateError: a
    precondition of the projection.
    """
    if m % 2 == 0 or n % 2 == 0 or m > n:
        raise ValueError("derive needs odd m <= n")
    if m < 3:
        raise ValueError("derive needs m >= 3")
    k = m // 2
    pos = {(j * k) % m: j for j in range(m)}  # 0-based row -> position
    slot_edges: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for edge in rarest_color_edges(m, n):
        p1, p2 = pos[edge[0] // n], pos[edge[1] // n]
        if (p1 + 1) % m == p2:
            slot_edges[p1].append(edge)
        elif (p2 + 1) % m == p1:
            slot_edges[p2].append(edge)
        else:
            raise CertificateError("projected edge joins non-adjacent positions")
    mult = tuple(len(s) for s in slot_edges)
    return DerivedMulticycle(m, n, Multicycle(mult), tuple(tuple(sorted(s)) for s in slot_edges))


# --- survey ----------------------------------------------------------------------

SURVEY_COLUMNS = ("m", "n", "sigma", "mu_minus", "delta", "tau", "chi",
                  "conjecture4_ok", "conjecture5_ok")


@dataclass(frozen=True)
class SurveyRow:
    m: int
    n: int
    sigma: int
    mu_minus: int
    delta: int
    tau: int
    chi: int
    conjecture4_ok: bool
    conjecture5_ok: bool


def conjecture5_bounds(m: int, n: int) -> tuple[int, int]:
    """Sigma window [mn/2 - (m^2/2 - 1), mn/2 - (m^2+1)/4] scaled by 4 to
    stay in integers: returns (4*low, 4*high)."""
    low4 = 2 * m * n - (2 * m * m - 4)
    high4 = 2 * m * n - (m * m + 1)
    return low4, high4


def survey(m_values: Iterable[int], n_values: Iterable[int]) -> list[SurveyRow]:
    """One row per odd 3 <= m <= n. Each row's arc coloring is verified once;
    CertificateError names the m and n of a coloring that fails."""
    rows = []
    for m in sorted(set(m_values)):
        for n in sorted(set(n_values)):
            if m % 2 == 0 or n % 2 == 0 or m > n or m < 3:
                continue
            dm = derive(m, n)
            mc = dm.multicycle
            result = chromatic_index(mc)
            report = verify_multicycle_coloring(mc, result.coloring, result.value)
            if not report.ok:
                raise CertificateError(f"arc coloring at m={m} n={n} failed: "
                                       f"{'; '.join(report.detail)}")
            chi = result.value
            c4 = chi == ceil(2 * mc.sigma / (m - 1))
            low4, high4 = conjecture5_bounds(m, n)
            c5 = low4 <= 4 * mc.sigma <= high4
            rows.append(SurveyRow(m, n, mc.sigma, mc.mu_minus, mc.delta, mc.tau,
                                  chi, c4, c5))
    return rows


def survey_csv(rows: Sequence[SurveyRow]) -> str:
    lines = [",".join(SURVEY_COLUMNS)]
    for r in rows:
        lines.append(",".join(str(getattr(r, c)).lower() if isinstance(getattr(r, c), bool)
                              else str(getattr(r, c)) for c in SURVEY_COLUMNS))
    return "\n".join(lines) + "\n"
