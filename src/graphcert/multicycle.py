"""Chromatic index machinery for multicycles.

A multicycle is a multigraph whose underlying simple graph is a cycle: m
positions, slot i carrying mult[i] parallel edges between positions i and
i+1 (mod m). A proper coloring assigns each parallel edge a color so that the
colors meeting at any position are pairwise distinct; equivalently every color
class is an independent set of slots (no two cyclically consecutive).

The machinery here is exact for multipaths (some slot empty) and regular
multicycles, and combines greedy enumeration, a kernel/residual split with a
shared-color refinement, greedy recombination, and an exhaustive
branch-and-bound oracle into a composite solver that either certifies the
chromatic index or returns an explicit bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil
from typing import Iterable, Sequence

from .bishop_rook import canonical_bishop_coloring, rarest_bishop_color
from .chess import id_to_coord
from .core import CapExceeded, CertificateError, VerificationReport


@dataclass(frozen=True)
class Multicycle:
    """Cyclic multigraph given by its slot multiplicities.

    Position i is the vertex between slots i-1 and i; order lists the vertex
    labels in the k-step arrangement used by derived multicycles.
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

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for p, colors in enumerate(self.slots):
            for c in colors:
                out.setdefault(c, []).append(p)
        return {c: tuple(ps) for c, ps in out.items()}

    def normalized(self) -> "MulticycleColoring":
        remap = {c: i + 1 for i, c in enumerate(self.colors_used())}
        return MulticycleColoring(tuple(tuple(remap[c] for c in s) for s in self.slots))


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


# --- constructions ---------------------------------------------------------------

def multipath_coloring(mc: Multicycle) -> MulticycleColoring:
    """Exact Delta-coloring when some slot is empty: enumerate the remaining
    edges along the path and assign color i mod Delta."""
    if mc.mu_minus != 0:
        raise ValueError("multipath coloring needs a zero multiplicity")
    delta = mc.delta
    slots: list[list[int]] = [[] for _ in range(mc.m)]
    if delta:
        start = mc.mult.index(0)
        i = 0
        for off in range(mc.m):
            p = (start + off) % mc.m
            for _ in range(mc.mult[p]):
                slots[p].append(i % delta + 1)
                i += 1
    return MulticycleColoring(tuple(tuple(s) for s in slots))


def greedy_cyclic(mc: Multicycle, d: int, start: int = 0,
                  reverse: bool = False) -> MulticycleColoring | None:
    """Assign color i mod d to the i-th edge around the cycle; None on conflict."""
    if d < 1:
        raise ValueError("d must be positive")
    slots: list[list[int]] = [[] for _ in range(mc.m)]
    i = 0
    step = -1 if reverse else 1
    for off in range(mc.m):
        p = (start + step * off) % mc.m
        for _ in range(mc.mult[p]):
            slots[p].append(i % d + 1)
            i += 1
    coloring = MulticycleColoring(tuple(tuple(s) for s in slots))
    return coloring if verify_multicycle_coloring(mc, coloring).ok else None


def _kernel_slots(m: int, a: int, shared_color: int | None = None,
                  shared_slots: Sequence[int] | None = None,
                  first_color: int = 1) -> tuple[list[list[int]], int]:
    """Color the regular multicycle C_{m,a} in groups of at most k cycles.

    Each group spends two colors per cycle copy plus one extra color placed on
    a matching of slots. The last group's extra color and its slots can be
    overridden so it can be shared with another coloring. Returns the slots
    and the number of colors consumed from first_color onward.
    """
    k = m // 2
    groups = ceil(a / k)
    slots: list[list[int]] = [[] for _ in range(m)]
    nxt = first_color
    consumed = 0
    for g in range(groups):
        size = k if g < groups - 1 else a - k * (groups - 1)
        pair0 = nxt
        nxt += 2 * size
        consumed += 2 * size
        last = g == groups - 1
        if last and shared_color is not None:
            extra = shared_color
            extra_slots = list(shared_slots)
        else:
            extra = nxt
            nxt += 1
            consumed += 1
            extra_slots = [2 * j for j in range(size)]
        for j in range(size):
            q = extra_slots[j]
            slots[q].append(extra)
            for t in range(m - 1):
                slots[(q + 1 + t) % m].append(pair0 + 2 * j + t % 2)
    return slots, consumed


def regular_coloring(m: int, a: int) -> MulticycleColoring:
    """Optimal coloring of C_{m,a} with 2a + ceil(2a/(m-1)) colors."""
    if m < 3 or m % 2 == 0:
        raise ValueError("odd m >= 3 required")
    if a < 1:
        raise ValueError("a >= 1 required")
    slots, _ = _kernel_slots(m, a)
    return MulticycleColoring(tuple(tuple(s) for s in slots))


def regular_color_count(m: int, a: int) -> int:
    return 2 * a + ceil(2 * a / (m - 1))


def _independent_extension(m: int, blocked: set[int], t: int) -> list[int] | None:
    # t pairwise non-adjacent slots of the m-cycle avoiding blocked ones.
    candidates = [q for q in range(m) if q not in blocked]

    def pick(chosen: list[int], rest: list[int]) -> list[int] | None:
        if len(chosen) == t:
            return chosen
        for idx, q in enumerate(rest):
            if all((q - c) % m not in (1, m - 1) for c in chosen):
                got = pick(chosen + [q], rest[idx + 1:])
                if got is not None:
                    return got
        return None

    return pick([], candidates)


def _merge_slots(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> MulticycleColoring:
    return MulticycleColoring(tuple(tuple(x) + tuple(y) for x, y in zip(a, b)))


def kernel_residual_coloring(mc: Multicycle) -> tuple[MulticycleColoring, int]:
    """Split into the regular kernel C_{m,mu-} and the residual multipath.

    Base bound Delta + ceil(mu-/k). When the kernel's last group has fewer
    than k cycles, try to reuse one residual color as that group's extra
    color: its slots must extend the residual class to a larger independent
    set. Success saves one color; the returned bound reflects it.
    """
    m, k, mu = mc.m, mc.k, mc.mu_minus
    if mu == 0:
        coloring = multipath_coloring(mc)
        return coloring, mc.delta
    groups = ceil(mu / k)
    residual = Multicycle(tuple(x - mu for x in mc.mult))
    t = mu - k * (groups - 1)
    if residual.delta and t < k:
        res_delta = residual.delta
        zero_slots = [p for p in range(m) if residual.mult[p] == 0]
        for start, rev in itertools.product(zero_slots, (False, True)):
            res_slots: list[list[int]] = [[] for _ in range(m)]
            i = 0
            step = -1 if rev else 1
            for off in range(m):
                p = (start + step * off) % m
                for _ in range(residual.mult[p]):
                    res_slots[p].append(i % res_delta + 1)
                    i += 1
            classes: dict[int, list[int]] = {}
            for p, colors in enumerate(res_slots):
                for c in colors:
                    classes.setdefault(c, []).append(p)
            for c, members in sorted(classes.items(), key=lambda kv: len(kv[1])):
                blocked = {(p + d) % m for p in members for d in (-1, 0, 1)}
                ext = _independent_extension(m, blocked, t)
                if ext is None:
                    continue
                # kernel consumes 2*mu pair colors plus groups-1 own extras;
                # the shared extra is residual color c shifted past them
                kern, consumed = _kernel_slots(m, mu, shared_color=c + 2 * mu + groups - 1,
                                               shared_slots=ext, first_color=1)
                shifted = [[x + consumed for x in s] for s in res_slots]
                merged = _merge_slots(kern, shifted)
                bound = mc.delta + groups - 1
                if verify_multicycle_coloring(mc, merged).ok and merged.color_count <= bound:
                    return merged.normalized(), bound
    kern, consumed = _kernel_slots(m, mu)
    res_col = multipath_coloring(residual)
    shifted = [[x + consumed for x in s] for s in res_col.slots]
    merged = _merge_slots(kern, shifted)
    return merged, mc.delta + groups


def recombination_coloring(mc: Multicycle) -> tuple[MulticycleColoring, int]:
    """Color the kernel, then place residual edges greedily, reusing kernel
    colors wherever the slot neighborhood allows."""
    m, mu = mc.m, mc.mu_minus
    if mu == 0:
        coloring = multipath_coloring(mc)
        return coloring, mc.delta
    slots, _ = _kernel_slots(m, mu)
    residual = tuple(x - mu for x in mc.mult)
    start = residual.index(0) if 0 in residual else 0
    for off in range(m):
        p = (start + off) % m
        for _ in range(residual[p]):
            taken = set(slots[p - 1]) | set(slots[p]) | set(slots[(p + 1) % m])
            c = 1
            while c in taken:
                c += 1
            slots[p].append(c)
    coloring = MulticycleColoring(tuple(tuple(s) for s in slots))
    return coloring, coloring.color_count


def arc_coloring(mc: Multicycle) -> MulticycleColoring | None:
    """Color with exactly max(Delta, tau) colors by laying each slot's colors
    as a contiguous arc on the color circle Z_K.

    Consecutive arcs are separated by gaps chosen so that every adjacent pair
    fits inside one circumference (a[p-1] + gap[p] + a[p] <= K) and the walk
    closes after an integer number of laps. Total slack m*K - 2*sigma always
    absorbs the required gap t*K - sigma, so the construction succeeds; None
    is returned only if the final verification refuses the result.
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
    if gap_total:
        return None
    slots: list[tuple[int, ...]] = []
    s = 0
    for p in range(m):
        s += gaps[p]
        slots.append(tuple((s + j) % K + 1 for j in range(mc.mult[p])))
        s += mc.mult[p]
    coloring = MulticycleColoring(tuple(slots))
    return coloring if verify_multicycle_coloring(mc, coloring).ok else None


# --- exhaustive oracle -----------------------------------------------------------

def exhaustive_chromatic_index(mc: Multicycle, cap: int = 24) -> tuple[int, MulticycleColoring]:
    """Exact chromatic index by branch and bound; guarded by sigma <= cap."""
    if mc.sigma > cap:
        raise CapExceeded(f"sigma {mc.sigma} exceeds oracle cap {cap}")
    m = mc.m
    if mc.sigma == 0:
        return 0, MulticycleColoring(tuple(() for _ in range(m)))
    rot = max(range(m), key=lambda p: mc.mult[p])
    mult = tuple(mc.mult[(rot + i) % m] for i in range(m))

    def feasible(limit: int) -> list[tuple[int, ...]] | None:
        chosen: list[tuple[int, ...]] = []

        def dfs(p: int, max_used: int) -> bool:
            if p == m:
                return True
            need = mult[p]
            banned = set(chosen[p - 1]) if p else set()
            if p == m - 1:
                banned |= set(chosen[0])
            if need == 0:
                chosen.append(())
                if dfs(p + 1, max_used):
                    return True
                chosen.pop()
                return False
            old = [c for c in range(1, max_used + 1) if c not in banned]
            for fresh in range(min(need, limit - max_used) + 1):
                base = tuple(range(max_used + 1, max_used + fresh + 1))
                for pick in itertools.combinations(old, need - fresh):
                    chosen.append(tuple(sorted(pick + base)))
                    if dfs(p + 1, max_used + fresh):
                        return True
                    chosen.pop()
            return False

        got = dfs(0, 0)
        return chosen if got else None

    for limit in itertools.count(mc.lower_bound):
        result = feasible(limit)
        if result is not None:
            slots = [()] * m
            for i, colors in enumerate(result):
                slots[(rot + i) % m] = colors
            return limit, MulticycleColoring(tuple(slots))
    raise AssertionError("unreachable")


# --- composite solver ------------------------------------------------------------

@dataclass(frozen=True)
class ChiResult:
    """Chromatic index result; exact when lower == upper, else a bracket."""

    lower: int
    upper: int
    coloring: MulticycleColoring
    method: str

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"bracket [{self.lower}, {self.upper}] is not exact")
        return self.upper


def chromatic_index(mc: Multicycle, oracle_cap: int = 24) -> ChiResult:
    """Composite solver: exact multipath/regular cases, greedy enumeration over
    all anchors, kernel/residual with refinement, recombination, the arc
    construction, then the exhaustive oracle below the cap; otherwise an
    explicit bracket."""
    lower = mc.lower_bound
    if mc.mu_minus == 0:
        return ChiResult(lower, mc.delta, multipath_coloring(mc), "multipath")
    if mc.mu_plus == mc.mu_minus:
        coloring = regular_coloring(mc.m, mc.mu_minus)
        return ChiResult(lower, coloring.color_count, coloring, "regular")
    groups = ceil(mc.mu_minus / mc.k)
    best: tuple[int, MulticycleColoring, str] | None = None
    for d in range(mc.delta, mc.delta + groups + 1):
        for start, rev in itertools.product(range(mc.m), (False, True)):
            coloring = greedy_cyclic(mc, d, start=start, reverse=rev)
            if coloring is not None:
                best = (coloring.color_count, coloring, "greedy")
                break
        if best is not None:
            break
    for fn, tag in ((kernel_residual_coloring, "kernel-residual"),
                    (recombination_coloring, "recombination")):
        coloring, bound = fn(mc)
        count = coloring.color_count
        if best is None or count < best[0]:
            best = (count, coloring, tag)
    assert best is not None
    upper, coloring, tag = best
    if upper == lower:
        return ChiResult(lower, upper, coloring, tag)
    arc = arc_coloring(mc)
    if arc is not None and arc.color_count < upper:
        upper, coloring, tag = arc.color_count, arc, "arc"
    if upper == lower:
        return ChiResult(lower, upper, coloring, tag)
    if mc.sigma <= oracle_cap:
        exact, coloring = exhaustive_chromatic_index(mc, cap=oracle_cap)
        return ChiResult(exact, exact, coloring, "oracle")
    return ChiResult(lower, upper, coloring, "bracket")


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
    """Project the edges colored 2m-2 by the canonical bishop coloring onto
    their row indices, arranged on the k-step cycle."""
    if m % 2 == 0 or n % 2 == 0 or m > n:
        raise ValueError("derive needs odd m <= n")
    if m < 3:
        raise ValueError("derive needs m >= 3")
    k = m // 2
    cyan = rarest_bishop_color(m)
    coloring = canonical_bishop_coloring(m, n)
    pos = {(j * k) % m + 1: j for j in range(m)}
    slot_edges: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for edge, color in coloring.assignment.items():
        if color != cyan:
            continue
        r1 = id_to_coord(edge[0], n).row
        r2 = id_to_coord(edge[1], n).row
        p1, p2 = pos[r1], pos[r2]
        if (p1 + 1) % m == p2:
            slot_edges[p1].append(edge)
        elif (p2 + 1) % m == p1:
            slot_edges[p2].append(edge)
        else:
            raise CertificateError("projected edge joins non-adjacent positions")
    mult = tuple(len(s) for s in slot_edges)
    return DerivedMulticycle(m, n, Multicycle(mult), tuple(tuple(sorted(s)) for s in slot_edges))


def derived_sigma(m: int, n: int) -> int:
    """Number of edges wearing the rarest bishop color, without coloring the
    whole board: second colors along the last group's paths."""
    from .bishop_rook import bishop_path_decomposition

    pd = bishop_path_decomposition(m, n)
    k = m // 2
    total = 0
    for grp in pd.groups:
        if grp.i == k and grp.sign < 0:
            total += sum((len(p) - 1) // 2 for p in grp.paths)
    return total


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


def survey(m_values: Iterable[int], n_values: Iterable[int],
           oracle_cap: int = 24) -> list[SurveyRow]:
    rows = []
    for m in sorted(set(m_values)):
        for n in sorted(set(n_values)):
            if m % 2 == 0 or n % 2 == 0 or m > n or m < 3:
                continue
            dm = derive(m, n)
            mc = dm.multicycle
            result = chromatic_index(mc, oracle_cap=oracle_cap)
            chi = result.upper
            c4 = result.exact and chi == ceil(2 * mc.sigma / (m - 1))
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


def sigma_period_observed(m: int, n_start: int | None = None, samples: int = 4) -> bool:
    """Check whether 2*sigma - m*n repeats with period m^2 - 1 along odd n."""
    if m % 2 == 0:
        raise ValueError("odd m required")
    period = m * m - 1
    n0 = n_start if n_start is not None else m
    for idx in range(samples):
        n = n0 + 2 * idx
        a = 2 * derived_sigma(m, n) - m * n
        b = 2 * derived_sigma(m, n + period) - m * (n + period)
        if a != b:
            return False
    return True
