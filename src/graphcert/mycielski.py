"""Mycielskian graphs and explicit Hamiltonian paths on mu(odd cycle).

Vertices of mu(G) for an n-vertex G: the original X layer keeps ids 0..n-1,
the shadow Y layer is n..2n-1 (y_i adjacent to x's neighbors), and the apex z
is 2n, adjacent to every y. For odd cycles a Hamiltonian path between any two
vertices is produced from a small family of zigzag templates, placed by the
dihedral symmetry and verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CertificateError, Graph, verify_hamiltonian_path


@dataclass(frozen=True)
class MycielskiVertex:
    kind: str  # 'x', 'y', or 'z'
    index: int = 0  # 1..n for x/y, 0 for z

    def __post_init__(self) -> None:
        if self.kind not in ("x", "y", "z"):
            raise ValueError(f"bad vertex kind {self.kind!r}")
        if self.kind == "z" and self.index != 0:
            raise ValueError("z carries no index")
        if self.kind != "z" and self.index < 1:
            raise ValueError("x/y indices start at 1")

    def to_id(self, n: int) -> int:
        if self.kind == "x":
            return self.index - 1
        if self.kind == "y":
            return n + self.index - 1
        return 2 * n

    @staticmethod
    def from_id(v: int, n: int) -> "MycielskiVertex":
        if v == 2 * n:
            return MycielskiVertex("z")
        if v >= n:
            return MycielskiVertex("y", v - n + 1)
        return MycielskiVertex("x", v + 1)

    @staticmethod
    def parse(text: str) -> "MycielskiVertex":
        text = text.strip().lower()
        if text == "z":
            return MycielskiVertex("z")
        return MycielskiVertex(text[0], int(text[1:]))

    def __str__(self) -> str:
        return "z" if self.kind == "z" else f"{self.kind}{self.index}"


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def mycielskian(g: Graph) -> Graph:
    n = g.vertex_count
    edges: list[tuple[int, int]] = []
    for u, v in g.edges:
        edges.append((u, v))
        edges.append((u, n + v))
        edges.append((v, n + u))
    for i in range(n):
        edges.append((2 * n, n + i))
    return Graph.from_edges(2 * n + 1, edges)


def mycielski_graph(n: int) -> Graph:
    """M_1 = K_1, M_2 = K_2, and M_k = mu(M_{k-1}) from there on."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        return Graph.from_edges(1, [])
    g = Graph.from_edges(2, [(0, 1)])
    for _ in range(n - 2):
        g = mycielskian(g)
    return g


# --- Hamiltonian path templates on mu(C_n), n odd --------------------------------

Step = tuple[str, int]  # ('x'|'y', 1..n) or ('z', 0)


def _zig(lo: int, hi: int, odd_kind: str, reverse: bool = False) -> list[Step]:
    # Indices lo..hi with kinds alternating by parity: odd indices get odd_kind.
    other = "y" if odd_kind == "x" else "x"
    rng = range(hi, lo - 1, -1) if reverse else range(lo, hi + 1)
    return [((odd_kind if i % 2 == 1 else other), i) for i in rng]


def _canonical_cycle(n: int) -> list[Step]:
    # y1,x2,y3,...,y_n, x1, x_n, y_{n-1},...,y2, z and back to y1.
    path = _zig(1, n, "y")
    path += [("x", 1), ("x", n)]
    path += _zig(2, n - 1, "x", reverse=True)
    path += [("z", 0)]
    return path


def _t_xx(n: int, j: int) -> list[Step]:
    # x1 -> x_j, j odd, 3 <= j <= n-2
    path = _zig(1, j - 1, "x")
    path += [("z", 0)]
    path += _zig(1, n, "y", reverse=True)
    path += _zig(j, n, "x", reverse=True)
    return path


def _t_xy_first(n: int) -> list[Step]:
    # x1 -> y1
    path = _zig(1, n, "x")
    path += [("x", n - 1), ("y", n), ("z", 0)]
    path += _zig(1, n - 2, "y", reverse=True)
    return path


def _t_xy(n: int, j: int) -> list[Step]:
    # x1 -> y_j, j odd, 3 <= j <= n-2
    path = _zig(1, j - 1, "x")
    path += [("z", 0)]
    path += _zig(j + 1, n, "y", reverse=True)
    path += [("x", j)]
    path += _zig(j + 1, n, "x")
    path += [("y", 1)]
    path += _zig(2, j, "y")
    return path


def _t_xz(n: int) -> list[Step]:
    # x1 -> z: two laps around the cycle, then the apex.
    return _zig(1, n, "x") + _zig(1, n, "y") + [("z", 0)]


def _t_yy_even(n: int, j: int) -> list[Step]:
    # y1 -> y_j, j even, 2 <= j <= n-3
    path = [("y", 1)] + _zig(j + 1, n, "x", reverse=True)
    path += [("x", j + 2)]
    path += _zig(j + 3, n, "y")
    path += [("z", 0)]
    path += _zig(2, j + 1, "y", reverse=True)
    path += [("x", 1)]
    path += _zig(2, j, "x")
    return path


def _t_yy_odd(n: int, j: int) -> list[Step]:
    # y1 -> y_j, j odd, 3 <= j <= n-2
    path = [("y", 1)] + _zig(j, n, "x", reverse=True)
    path += [("x", j + 1)]
    path += _zig(j + 2, n, "y")
    path += [("z", 0)]
    path += _zig(1, j - 1, "x", reverse=True)
    path += [("x", 2)]
    path += _zig(3, j, "y")
    return path


def _dihedral_maps(n: int) -> list[tuple[bool, int]]:
    return [(reflect, r) for reflect in (False, True) for r in range(n)]


def _apply(sigma: tuple[bool, int], step: Step, n: int) -> Step:
    reflect, r = sigma
    kind, i = step
    if kind == "z":
        return step
    j = (r - i) if reflect else (r + i)
    return (kind, (j - 1) % n + 1)


def _invert(sigma: tuple[bool, int], n: int) -> tuple[bool, int]:
    reflect, r = sigma
    return sigma if reflect else (False, (-r) % n)


def _mu_adjacent(a: Step, b: Step, n: int) -> bool:
    (ka, ia), (kb, ib) = a, b
    if ka == "z" or kb == "z":
        return (ka, kb) in (("z", "y"), ("y", "z"))
    diff = (ia - ib) % n
    if diff not in (1, n - 1):
        return False
    return (ka, kb) != ("y", "y")


def _steps_to_ids(steps: Sequence[Step], n: int) -> list[int]:
    out = []
    for kind, i in steps:
        out.append(MycielskiVertex(kind, 0 if kind == "z" else i).to_id(n))
    return out


def ham_path_mu_odd_cycle(n: int, a: MycielskiVertex, b: MycielskiVertex) -> list[int]:
    """Hamiltonian path of mu(C_n) between two given vertices, n odd >= 3.

    Returns the first template that applies under a dihedral map, unverified;
    CertificateError when none does.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("odd n >= 3 required")
    if a == b:
        raise ValueError("endpoints must differ")
    step_a: Step = (a.kind, a.index if a.kind != "z" else 0)
    step_b: Step = (b.kind, b.index if b.kind != "z" else 0)
    for p, q, swapped in ((step_a, step_b, False), (step_b, step_a, True)):
        for sigma in _dihedral_maps(n):
            candidate = _candidate(n, _apply(sigma, p, n), _apply(sigma, q, n))
            if candidate is None:
                continue
            inv = _invert(sigma, n)
            steps = [_apply(inv, s, n) for s in candidate]
            if swapped:
                steps.reverse()
            return _steps_to_ids(steps, n)
    raise CertificateError(f"no template applies to {a} -> {b} in mu(C_{n})")


def _candidate(n: int, p: Step, q: Step) -> list[Step] | None:
    if _mu_adjacent(p, q, n):
        cyc = _canonical_cycle(n)
        length = len(cyc)
        for sigma in _dihedral_maps(n):
            image = [_apply(sigma, s, n) for s in cyc]
            if p not in image:
                continue
            pos = image.index(p)
            if image[(pos + 1) % length] == q:
                return [image[(pos - t) % length] for t in range(length)]
            if image[(pos - 1) % length] == q:
                return [image[(pos + t) % length] for t in range(length)]
        return None
    if p == ("x", 1):
        if q[0] == "x" and q[1] % 2 == 1 and 3 <= q[1] <= n - 2:
            return _t_xx(n, q[1])
        if q == ("y", 1):
            return _t_xy_first(n)
        if q[0] == "y" and q[1] % 2 == 1 and 3 <= q[1] <= n - 2:
            return _t_xy(n, q[1])
        if q[0] == "z":
            return _t_xz(n)
    if p == ("y", 1) and q[0] == "y":
        j = q[1]
        if n == 3 and j == 2:
            # both template ranges are empty at n=3; one explicit path suffices,
            # the dihedral maps reach every other shadow pair from it
            return [("y", 1), ("z", 0), ("y", 3), ("x", 1), ("x", 2), ("x", 3), ("y", 2)]
        if j % 2 == 0 and 2 <= j <= n - 3:
            return _t_yy_even(n, j)
        if j % 2 == 1 and 3 <= j <= n - 2:
            return _t_yy_odd(n, j)
    return None


def ham_path_mu_of_hc_graph(g: Graph, ham_cycle: Sequence[int],
                            a: int, b: int) -> list[int]:
    """Hamiltonian path of mu(g) between mu-vertex ids a and b, using only the
    mu-image of the given Hamiltonian cycle."""
    n = g.vertex_count
    if n % 2 == 0:
        raise ValueError("odd vertex count required")
    if sorted(ham_cycle) != list(range(n)):
        raise ValueError("ham_cycle must visit every vertex once")
    for i, u in enumerate(ham_cycle):
        v = ham_cycle[(i + 1) % n]
        if not g.has_edge(u, v):
            raise ValueError("ham_cycle is not a cycle of g")
    position = {u: i for i, u in enumerate(ham_cycle)}

    def to_canonical(v: int) -> MycielskiVertex:
        if v == 2 * n:
            return MycielskiVertex("z")
        if v >= n:
            return MycielskiVertex("y", position[v - n] + 1)
        return MycielskiVertex("x", position[v] + 1)

    canonical = ham_path_mu_odd_cycle(n, to_canonical(a), to_canonical(b))

    def from_canonical(cv: int) -> int:
        if cv == 2 * n:
            return 2 * n
        if cv >= n:
            return n + ham_cycle[cv - n]
        return ham_cycle[cv]

    path = [from_canonical(cv) for cv in canonical]
    mu_cycle_edges = mycielskian(cycle_graph(n)).edges
    relabel = {i: ham_cycle[i] for i in range(n)}
    relabel.update({n + i: n + ham_cycle[i] for i in range(n)})
    relabel[2 * n] = 2 * n
    allowed = {tuple(sorted((relabel[u], relabel[v]))) for u, v in mu_cycle_edges}
    for u, v in zip(path, path[1:]):
        if tuple(sorted((u, v))) not in allowed:
            raise CertificateError(f"path strayed off the cycle's mu-image at ({u},{v})")
    report = verify_hamiltonian_path(mycielskian(g), path, start=a, end=b)
    if not report.ok:
        raise CertificateError(f"mapped path failed verification: {report.detail}")
    return path


# --- exhaustive small-graph searches ----------------------------------------------

def _ham_path_search(g: Graph, s: int, t: int) -> tuple[list[int] | None, int]:
    n = g.vertex_count
    adj = [sorted(g.adjacency[v]) for v in range(n)]
    visited = [False] * n
    visited[s] = True
    path = [s]
    nodes = 0

    def reachable_t() -> bool:
        # t must stay reachable from the path head through unvisited vertices.
        stack = [path[-1]]
        seen = {path[-1]}
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w == t:
                    return True
                if not visited[w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def dfs() -> bool:
        nonlocal nodes
        nodes += 1
        u = path[-1]
        if len(path) == n:
            return u == t
        if visited[t] or not reachable_t():
            return False
        for w in adj[u]:
            if not visited[w]:
                visited[w] = True
                path.append(w)
                if dfs():
                    return True
                path.pop()
                visited[w] = False
        return False

    found = dfs()
    return (list(path) if found else None), nodes


@dataclass(frozen=True)
class ParityWitnessReport:
    n: int
    path_exists: bool
    nodes_explored: int


def even_cycle_parity_witness(n: int) -> ParityWitnessReport:
    """Exhaustively confirm there is no Hamiltonian path x1 -> z in mu(C_n)."""
    if n < 4 or n % 2 == 1:
        raise ValueError("even n >= 4 required")
    g = mycielskian(cycle_graph(n))
    path, nodes = _ham_path_search(g, 0, 2 * n)
    return ParityWitnessReport(n, path is not None, nodes)


def hc_check_all_pairs(g: Graph) -> bool:
    """True iff every vertex pair admits a Hamiltonian path (small graphs)."""
    if g.vertex_count > 30:
        raise ValueError("all-pairs check is limited to 30 vertices")
    for s in range(g.vertex_count):
        for t in range(s + 1, g.vertex_count):
            path, _ = _ham_path_search(g, s, t)
            if path is None:
                return False
    return True


def decode_vertex_code(code: int, n: int) -> MycielskiVertex:
    """Grid codes 1..n = x1..xn, n+1..2n = y1..yn, 2n+1 = z."""
    if not 1 <= code <= 2 * n + 1:
        raise ValueError(f"code {code} out of range for n={n}")
    if code <= n:
        return MycielskiVertex("x", code)
    if code <= 2 * n:
        return MycielskiVertex("y", code - n)
    return MycielskiVertex("z")
