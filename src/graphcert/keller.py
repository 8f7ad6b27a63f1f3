"""Keller graphs on Z_4^d.

Vertices are d-tuples over {0,1,2,3}, encoded as base-4 integers with the most
significant digit first. Two vertices are adjacent when they differ in at
least two coordinates and at least one coordinate differs by exactly 2 mod 4.

Every computation reads digits from one int8 matrix, row v holding the digits
of vertex v (`_digit_matrix`), and applies the rule to whole arrays of rows:
`_shift` adds a fixed vector, `_joined` tests adjacency and `_rule_pairs`
lists the adjacent pairs of a set of rows. `build` makes G_d as the Cayley
graph Cay(Z_4^d, S), S the neighbourhood of vertex 0: the neighbours of row v
are the codes v + S, summed one digit column at a time, so no pair of rows is
tested. `_rule_pairs` serves the non-neighbours of vertex 0, a row subset
that is not a Cayley graph.
On the matrix the module builds the explicit Hamiltonian cycle, the
kernel-based class-1 edge coloring, the independence square with its
bitstring automorphisms, the neighborhood reduction for the independence
number, clique cover doubling, and a pairing search for Hamiltonian
decompositions. `verify_cover_by_rule` and `verify_square_by_rule` check a
clique cover and an independence square from the rule; no construction
repeats their checks. `parse_vertex` reads a code from the digit strings of
the fixtures and the CLI, which prints codes from the digit matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    CertificateError,
    ColorState,
    EdgeColoring,
    Graph,
    VerificationReport,
    _report,
    _verify_cover,
    exact_alpha,
)


def delta(d: int) -> int:
    return 4 ** d - 3 ** d - d


# omega is known exactly for small d and equals 2^d from d = 8 on; the d = 6, 7
# entries come from external computations and are not recomputed here.
KNOWN_OMEGA = {2: 2, 3: 5, 4: 12, 5: 28, 6: 60, 7: 124}


def omega_value(d: int) -> int:
    if d in KNOWN_OMEGA:
        return KNOWN_OMEGA[d]
    if d >= 8:
        return 2 ** d
    raise ValueError(f"no clique number on record for d={d}")


def alpha_value(d: int) -> int:
    if d < 2:
        raise ValueError("d >= 2 required")
    return 5 if d == 2 else 2 ** d


def parse_vertex(text: str, d: int) -> int:
    """Vertex code of a d-char base-4 digit string, else of a base-10 integer in range."""
    text = text.strip()
    if len(text) == d and all(ch in "0123" for ch in text):
        return int(text, 4)
    value = int(text)
    if not 0 <= value < 4 ** d:
        raise ValueError(f"{value} out of range for d={d}")
    return value


def _digit_matrix(d: int) -> np.ndarray:
    vals = np.arange(4 ** d)
    digs = np.zeros((4 ** d, d), dtype=np.int8)
    for i in range(d - 1, -1, -1):
        digs[:, i] = vals % 4
        vals = vals // 4
    return digs


def _shift(digs: np.ndarray, s: Sequence[int]) -> np.ndarray:
    """Code of v + s for every row v of the digit matrix (digit-wise mod 4)."""
    place = 4 ** np.arange(digs.shape[1] - 1, -1, -1, dtype=np.int64)
    return ((digs + np.asarray(s, dtype=np.int8)) & 3) @ place


def _joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The adjacency rule between digit rows a and b, broadcast over all but the last axis."""
    diff = (a - b) & 3
    return (np.count_nonzero(diff, axis=-1) >= 2) & (diff == 2).any(axis=-1)


# cells of a block held at once: the (rows, columns, d) digit-difference
# block of _rule_pairs, and the (rows, |S|) neighbour table of _cayley_rows,
# whose smaller blocks keep its transients to a few bytes an edge
_RULE_CELLS = 1 << 22
_TABLE_CELLS = 1 << 18


def _rule_pairs(digs: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row index pairs i < j of digs that are adjacent.

    Pairs come in lexicographic order, one chunk of rows at a time, so the
    difference block stays under _RULE_CELLS cells however many rows there are.
    """
    k, d = digs.shape
    step = max(1, _RULE_CELLS // max(1, k * d))
    for lo in range(0, k, step):
        i, j = np.nonzero(np.triu(_joined(digs[lo:lo + step, None, :], digs[None, lo:, :]), 1))
        yield i + lo, j + lo


def _rule_graph(digs: np.ndarray) -> Graph:
    """The graph on the rows of digs, joined by the adjacency rule."""
    chunks = list(_rule_pairs(digs))
    # _rule_pairs lists i < j in lexicographic order: already the sorted edge store
    pairs = np.column_stack((np.concatenate([i for i, _ in chunks]),
                             np.concatenate([j for _, j in chunks])))
    return Graph.from_array(len(digs), pairs.astype(np.int32))


def _cayley_rows(digs: np.ndarray, kernel: np.ndarray, rules: tuple[np.ndarray, ...] | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """The edges (v, w), v < w, of the Cayley graph on the digit rows digs with
    the difference rows kernel, ascending, as one read-only int32 (E, 2)
    array; with rules, also the read-only int32 colour of each edge.

    kernel must be closed under negation and must not hold the zero row, so
    that E = n·|kernel|/2. Each block of vertices v gets the (block, |kernel|)
    table of the codes v + x, built one digit column at a time mod 4. A
    sorted table row cut to w > v lists v's edges in order, so the blocks
    fill the arrays row by row, and no block holds more than _TABLE_CELLS
    cells. rules = (first, column, shift, sign), one entry per kernel row x,
    give the edge v -> v + x the colour
    first + ((digs[v, column] >> shift) & 1) · sign. The colour rides in
    the table below the code, so one sort orders both.
    """
    n, d = digs.shape
    size = len(kernel)
    pairs = np.empty((n * size // 2, 2), np.int32)
    colors = None if rules is None else np.empty(len(pairs), np.int32)
    bits = 0 if rules is None else int(rules[0].max() + 1).bit_length()  # sign is at most 1
    dtype = np.int32 if n << bits <= 2 ** 31 else np.int64
    step, at = max(1, _TABLE_CELLS // size), 0
    for lo in range(0, n, step):
        block = digs[lo:lo + step]
        table = np.zeros((len(block), size), dtype)
        for i in range(d):
            table <<= 2
            table += (block[:, i, None] + kernel[:, i]) & 3
        if rules is not None:
            first, column, shift, sign = rules
            bit = block[:, column]
            bit >>= shift
            bit &= 1
            bit *= sign
            table <<= bits
            table += first
            table += bit
            del bit
        table.sort(axis=1)
        v = np.arange(lo, lo + len(block), dtype=np.int32)
        later = table >= ((v[:, None].astype(dtype) + 1) << bits)
        kept = table[later]
        del table
        rows = pairs[at:at + kept.size]
        rows[:, 0] = np.repeat(v, later.sum(axis=1))
        del later
        np.right_shift(kept, bits, out=rows[:, 1])
        if colors is not None:
            np.bitwise_and(kept, (1 << bits) - 1, out=colors[at:at + kept.size])
        at += kept.size
    # handed over read-only, so the graph or colouring keeps them without a copy
    pairs.setflags(write=False)
    if colors is not None:
        colors.setflags(write=False)
    return pairs, colors


def build(d: int) -> Graph:
    """G_d as Cay(Z_4^d, S), S the rows the rule joins to vertex 0, its
    sorted edge store filled block by block by _cayley_rows."""
    if d < 2:
        raise ValueError("d >= 2 required")
    digs = _digit_matrix(d)
    pairs, _ = _cayley_rows(digs, digs[_joined(digs, digs[0])])
    return Graph.from_array(4 ** d, pairs)


# --- Hamiltonian cycle -------------------------------------------------------------

# The 16-step prefix cycle on Z_4^2; consecutive prefixes are adjacent already,
# so any fixed suffix keeps every step an edge, and the 32->00 junction differs
# in both leading digits no matter how the suffix changes.
_PREFIX_CYCLE = (
    "00", "23", "01", "20", "02", "21", "03", "22",
    "10", "33", "11", "30", "12", "31", "13", "32",
)


def ham_cycle(d: int) -> list[int]:
    if d < 2:
        raise ValueError("d >= 2 required")
    prefixes = [int(p, 4) for p in _PREFIX_CYCLE]
    block = 4 ** (d - 2)
    return [p * block + suffix for suffix in range(block) for p in prefixes]


# --- kernel-based class-1 edge coloring ---------------------------------------------

@dataclass(frozen=True)
class ColorKernel:
    """Difference set S driving the class-1 coloring, split by digit parity.

    Both parts hold vertex codes in ascending order.
    """

    d: int
    even: tuple[int, ...]
    odd: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.even) + len(self.odd)

    def odd_pairs(self) -> list[tuple[int, int]]:
        """(s, -s) for each odd s with s < -s."""
        return [(s, t) for s, t in zip(self.odd, _negated(self.odd, self.d)) if s < t]


def _negated(codes: Sequence[int], d: int) -> list[int]:
    """Code of -v for each vertex code v."""
    return _shift(-_digit_matrix(d)[list(codes)], (0,) * d).tolist()


def color_kernel(d: int) -> ColorKernel:
    """S is the neighbourhood of vertex 0: the vectors with at least two
    non-zero digits, one of them 2."""
    digs = _digit_matrix(d)
    s = np.flatnonzero(_joined(digs, digs[0]))
    even = ((digs[s] & 1) == 0).all(axis=1)
    return ColorKernel(d, tuple(s[even].tolist()), tuple(s[~even].tolist()))


def class1_coloring(d: int) -> EdgeColoring:
    """Proper edge coloring of G_d with exactly Delta colors.

    Colours are numbered along color_kernel(d): one for each even element,
    in ascending order, then two for each odd pair (s, -s) of odd_pairs(),
    in its order. Each even kernel element s is an involution v -> v+s and
    colors its matching. Each odd pair (s, -s) splits G_d's s-edges into
    4-cycles v, v+s, v+2s, v+3s, one per orbit, listed from its smallest
    vertex v, and colors (v, v+s), (v+2s, v+3s) with the pair's first color
    and (v, v+3s), (v+s, v+2s) with the next.

    So the s-edge {u, u+s} takes the first color when u sits at an even
    place of its orbit, and the orbit's least digit at the first non-zero
    digit i of s says which places those are: u's digit i is even (s_i odd)
    or below 2 (s_i = 2). The -s-edge from u is the s-edge from u - s, one
    place back. Every edge gets its colour from its kernel element and one
    digit of u, beside build's neighbour table (`_cayley_rows`), so the
    rows come in (u, v) order, ascending, in one int32 ends array and one
    int32 colour array.
    """
    kernel = color_kernel(d)
    digs = _digit_matrix(d)
    pairs = kernel.odd_pairs()
    codes = [*kernel.even, *(x for pair in pairs for x in pair)]
    # the table's size is n·|codes|/2 only for a set closed under negation, without 0
    if 0 in codes or sorted(codes) != sorted(_negated(codes, d)):
        raise CertificateError("kernel coloring: the kernel holds 0 or is not closed under "
                               "negation")
    rows = digs[codes]
    column = (rows != 0).argmax(axis=1)  # the first non-zero digit
    shift = (rows[np.arange(len(rows)), column] == 2).astype(np.int8)
    # s takes its pair's first colour at an even place and -s the next one there
    sign = np.array([0] * len(kernel.even) + [1, -1] * len(pairs), np.int8)
    ends, colors = _cayley_rows(digs, rows, (np.arange(1, len(codes) + 1, dtype=np.int32),
                                             column, shift, sign))
    try:
        return EdgeColoring.from_arrays(ends, colors, len(codes))
    except ValueError as exc:  # an edge coloured twice: the kernel is not what it claims
        raise CertificateError(f"kernel coloring: {exc}") from None


# --- independence square and automorphisms ------------------------------------------

def _row_col(digs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square row and column of each digit row, one bit per digit: the row bit
    is set for digits 2 and 3, the column bit for digits 1 and 2."""
    place = 2 ** np.arange(digs.shape[1] - 1, -1, -1, dtype=np.int64)
    return (digs >= 2) @ place, ((digs == 1) | (digs == 2)) @ place


def independence_square(d: int) -> np.ndarray:
    """The 2^d x 2^d grid of vertex codes, v at _row_col(v), and -1 in a cell
    no vertex takes. Every row and every column should be an independent set;
    verify_square_by_rule checks the grid that is emitted."""
    if d < 2:
        raise ValueError("d >= 2 required")
    side = 2 ** d
    rows, cols = _row_col(_digit_matrix(d))
    grid = np.full(side * side, -1, dtype=np.int64)
    grid[rows * side + cols] = np.arange(4 ** d)
    return grid.reshape(side, side)


def bitstring_automorphism(d: int, bits: str | Sequence[int]) -> list[int]:
    """Vertex permutation: where the bit is 1, swap digit 0<->1 and 2<->3."""
    pattern = [int(b) for b in bits]
    if len(pattern) != d or any(b not in (0, 1) for b in pattern):
        raise ValueError("need a bit-string of length d")
    image = _digit_matrix(d) ^ np.array(pattern, dtype=np.int8)
    return _shift(image, (0,) * d).tolist()  # the zero shift reads each row's code


def alpha_exact(d: int, cap: int = 4096) -> int:
    """Independence number via the non-neighborhood reduction at vertex 0."""
    if not 2 <= d <= 7:
        raise ValueError("2 <= d <= 7 required")
    digs = _digit_matrix(d)
    members = np.flatnonzero(~_joined(digs[1:], digs[0])) + 1
    if len(members) != 3 ** d + d - 1:
        raise CertificateError(f"vertex 0 has {len(members)} non-neighbours, "
                               f"expected 3^d + d - 1 = {3 ** d + d - 1}")
    # vectors over {0,1} stay pairwise non-adjacent: prime the bound with them
    seed = np.flatnonzero((digs[members] <= 1).all(axis=1)).tolist()
    best, _ = exact_alpha(_rule_graph(digs[members]), cap=cap, seed=seed)
    return 1 + best


MAX_INDEPENDENT_G2 = (3, 4, 6, 7, 11)  # 03, 10, 12, 13, 23 as base-4 codes


# --- clique covers -----------------------------------------------------------------

def verify_cover_by_rule(d: int, cover: Sequence[Iterable[int]]) -> VerificationReport:
    """Clique-cover check straight from the digit adjacency rule.

    Reports exactly as core.verify_clique_cover(build(d), cover) does, but
    does not materialize the graph, which matters for d >= 5.
    """
    digs = _digit_matrix(d)
    return _verify_cover(4 ** d, cover, lambda u, v: _joined(digs[u], digs[v]))


def verify_square_by_rule(d: int, grid: np.ndarray) -> VerificationReport:
    """Independence-square check straight from the digit adjacency rule.

    The rows of the grid, and separately its columns, must each partition
    V(G_d) into independent sets: the clique-cover check of the complement.
    R rows of C cells then give R * C = 4^d with R, C <= alpha(G_d), which
    forces a 2^d x 2^d grid. colors_used reports the number of rows.
    """
    digs = _digit_matrix(d)
    grid = np.asarray(grid)
    detail: list[str] = []
    for part, lines in (("row", grid), ("column", grid.T)):
        detail += _verify_cover(4 ** d, lines.tolist(), lambda u, v: ~_joined(digs[u], digs[v]),
                                part=part, misfit="holds edge").detail
    return _report(detail, len(grid))


def double_clique_cover(d: int, cover: Sequence[Iterable[int]]) -> list[list[int]]:
    """Lift a clique cover of G_d to one of G_{d+1} with 2x the cliques.

    Clique C doubles into prefix-0 C with prefix-2 (C+1), and prefix-1 C with
    prefix-3 (C+1), where C+1 adds 1 mod 4 to every digit. ValueError names
    an id outside 0..4^d-1. The input is not otherwise checked: a non-clique,
    a shared or an uncovered vertex of it is one of the output too, where the
    caller's check of the doubled cover finds it.
    """
    cover = [sorted(set(c)) for c in cover]
    block = 4 ** d
    if sum(len(c) for c in cover) != block:
        raise ValueError("cover size does not match dimension")
    for clique in cover:
        if clique and not (clique[0] >= 0 and clique[-1] < block):
            raise ValueError(f"vertex {clique[0] if clique[0] < 0 else clique[-1]} "
                             f"out of range for d={d}")
    plus_ones = _shift(_digit_matrix(d), (1,) * d)
    out: list[list[int]] = []
    for clique in cover:
        shifted = plus_ones[clique].tolist()
        out.append(clique + [2 * block + w for w in shifted])
        out.append([block + v for v in clique] + [3 * block + w for w in shifted])
    return out


@dataclass(frozen=True)
class ThetaBounds:
    d: int
    lower: int
    upper: int | None

    def __str__(self) -> str:
        hi = "?" if self.upper is None else str(self.upper)
        return f"{self.lower} <= theta(G_{self.d}) <= {hi}"


def theta_bounds(d: int, verified_cover_size: int | None = None) -> ThetaBounds:
    """ceil(4^d / omega) as the lower bound; a verified cover as the upper."""
    return ThetaBounds(d, math.ceil(4 ** d / omega_value(d)), verified_cover_size)


# --- fixtures ----------------------------------------------------------------------

def _fixture_rows(name: str) -> list[list[str]]:
    text = resources.files("graphcert").joinpath(f"fixtures/{name}.txt").read_text()
    return [line.split() for line in text.splitlines() if line.strip()]


def fixture_clique_cover(d: int) -> list[list[int]]:
    return [[parse_vertex(tok, d) for tok in row] for row in _fixture_rows(f"g{d}_clique_cover")]


def fixture_ham_decomposition() -> list[list[int]]:
    rows = _fixture_rows("g3_ham_decomposition")
    table = [[int(tok) for tok in row] for row in rows]
    cycles = [[table[r][c] for r in range(len(table))] for c in range(len(table[0]))]
    return cycles


# --- Hamiltonian decomposition search ------------------------------------------------

@dataclass(frozen=True)
class HamDecomposition:
    d: int
    cycles: tuple[tuple[int, ...], ...]
    matching: tuple[tuple[int, int], ...] | None
    switches_used: int


def _union_cycle_count(at: Sequence[Sequence[int | None]], a: int, b: int
                       ) -> tuple[int, list[int]]:
    """Number of cycles in the union of the perfect matchings a and b, plus the first.

    at[v][c] is the partner of v in matching c, as in ColorState.at.
    """
    n = len(at)
    visited = [False] * n
    count = 0
    first: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        count += 1
        walk = []
        v, col, other = start, a, b
        while not visited[v]:
            visited[v] = True
            walk.append(v)
            v = at[v][col]
            col, other = other, col
        if count == 1:
            first = walk
    return count, first


def _pair_up(colors: list[int], compatible: dict[tuple[int, int], bool],
             leftover: int | None, node_cap: int = 200_000
             ) -> list[tuple[int, int]] | None:
    """Backtracking perfect matching on the class-compatibility relation."""
    pool = [c for c in colors if c != leftover]
    nodes = 0

    def solve(remaining: frozenset[int]) -> list[tuple[int, int]] | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return None
        if not remaining:
            return []
        anchor = min(remaining)
        rest = remaining - {anchor}
        for partner in sorted(rest):
            key = (min(anchor, partner), max(anchor, partner))
            if not compatible[key]:
                continue
            tail = solve(rest - {partner})
            if tail is not None:
                return [(anchor, partner)] + tail
            if nodes > node_cap:
                return None
        return None

    return solve(frozenset(pool))


def _pair_cycles(at: Sequence[Sequence[int | None]], colors: list[int]
                 ) -> dict[tuple[int, int], tuple[int, list[int]]]:
    """_union_cycle_count of every pair of classes (ci, cj), ci < cj."""
    return {(ci, cj): _union_cycle_count(at, ci, cj)
            for i, ci in enumerate(colors) for cj in colors[i + 1:]}


def _score(colors: list[int], cycles: dict[tuple[int, int], tuple[int, list[int]]]
           ) -> tuple[int, int, int]:
    """Lexicographic score, larger is better: pairable classes, then fewer
    cycles in the worst pair, then fewer cycles overall."""
    pairable = sum(1 for c in colors
                   if any(cycles[(min(c, o), max(c, o))][0] == 1
                          for o in colors if o != c))
    counts = [cnt for cnt, _ in cycles.values()]
    return (pairable, -max(counts), -sum(counts))


def ham_decomposition_search(d: int, budget: int = 400,
                             seed: int = 0) -> HamDecomposition | None:
    """Pair the color classes of a class-1 coloring into Hamiltonian cycles.

    Delta odd leaves one class as the perfect matching. Kempe switches, scored
    by (pairable classes, worst pair cycle count, total cycle count), perturb
    the coloring when the pairing search gets stuck. None when the budget runs
    out.

    The whole search edits one ColorState in place. Every class is a perfect
    matching, so every two-colour chain is a cycle, the one walk from its
    start. A trial switch inverts that walk, is scored, and is undone by
    inverting the walk from the same start again: a step keeps the colour
    it was walked with, so inverting the old steps a second time would
    repeat the switch. The best trial is then walked and inverted again.
    """
    if budget < 1:
        raise ValueError("the switch budget must be positive")
    n = 4 ** d
    dd = delta(d)
    rng = random.Random(seed)
    state = ColorState.of(n, class1_coloring(d))
    colors = list(range(1, dd + 1))
    # G_d is Delta-regular: every color at every vertex makes every class a perfect matching
    if any(p != (1 << (dd + 1)) - 1 for p in state.present):
        raise CertificateError("a color class of the kernel coloring is not a perfect matching")
    switches = 0

    while True:
        cycles = _pair_cycles(state.at, colors)
        compatible = {p: cnt == 1 for p, (cnt, _) in cycles.items()}
        leftovers: list[int | None] = [None] if dd % 2 == 0 else list(colors)
        for leftover in leftovers:
            pairs = _pair_up(colors, compatible, leftover)
            if pairs is None:
                continue
            found = tuple(tuple(cycles[p][1]) for p in pairs)
            matching = None
            if leftover is not None:
                matching = tuple(state.class_edges(leftover))
            return HamDecomposition(d, found, matching, switches)
        if switches >= budget:
            return None
        # escape: try a few random Kempe switches, keep the best-scoring one
        base_score = _score(colors, cycles)
        best = None
        for _ in range(8):
            a, b = rng.sample(colors, 2)
            start = rng.randrange(n)
            state.invert(state.walk(start, a, b), a, b)
            score = _score(colors, _pair_cycles(state.at, colors))
            state.invert(state.walk(start, a, b), a, b)
            if best is None or score > best[0]:
                best = (score, start, a, b)
            switches += 1
            if switches >= budget:
                break
        if best is not None and best[0] >= base_score:
            _, start, a, b = best
            state.invert(state.walk(start, a, b), a, b)
        if switches >= budget:
            return None
