"""Shared graph builders and brute-force oracles for the test suite."""

from graphcert.core import (EdgeColoring, Graph, VerificationReport, _report,
                            max_degree)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless(n: int) -> Graph:
    return Graph.from_edges(n, [])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def naive_alpha(g: Graph) -> int:
    """Plain subset enumeration; only for graphs with <= 16 vertices."""
    assert g.vertex_count <= 16
    masks = neighbor_masks(g)
    best = 0
    for subset in range(1 << g.vertex_count):
        if any(subset >> v & 1 and subset & masks[v] for v in range(g.vertex_count)):
            continue
        best = max(best, bin(subset).count("1"))
    return best


def naive_omega(g: Graph) -> int:
    assert g.vertex_count <= 16
    masks = neighbor_masks(g)
    full = (1 << g.vertex_count) - 1
    best = 0
    for subset in range(1 << g.vertex_count):
        members = [v for v in range(g.vertex_count) if subset >> v & 1]
        if all((masks[v] | 1 << v) & subset == subset for v in members):
            best = max(best, len(members))
    return best


def find_ham_cycle(g: Graph) -> list[int] | None:
    """Backtracking Hamiltonian cycle search for small graphs."""
    n = g.vertex_count
    adj = [sorted(g.adjacency[v]) for v in range(n)]
    visited = [False] * n
    visited[0] = True
    order = [0]

    def dfs() -> bool:
        if len(order) == n:
            return g.has_edge(order[-1], 0)
        for w in adj[order[-1]]:
            if not visited[w]:
                visited[w] = True
                order.append(w)
                if dfs():
                    return True
                order.pop()
                visited[w] = False
        return False

    return list(order) if dfs() else None


def reference_verify_edge_coloring(g: Graph, coloring: EdgeColoring,
                                   require_total: bool = True) -> VerificationReport:
    """Per-vertex dictionary check of an edge coloring: the oracle for
    graphcert.core.verify_edge_coloring, which must report the same tuple."""
    detail: list[str] = []
    delta = max_degree(g) if g.vertex_count else 0
    for e in coloring.assignment:
        if e not in g.edges:
            detail.append(f"colored edge {e} not in graph")
    seen: dict[int, dict[int, tuple[int, int]]] = {}
    for e, c in coloring.assignment.items():
        for v in e:
            at_v = seen.setdefault(v, {})
            if c in at_v:
                detail.append(f"color {c} repeated at vertex {v} on {at_v[c]} and {e}")
            else:
                at_v[c] = e
    if require_total:
        missing = g.edges - set(coloring.assignment)
        for e in sorted(missing)[:10]:
            detail.append(f"edge {e} uncolored")
        if len(missing) > 10:
            detail.append(f"...{len(missing) - 10} more uncolored edges")
    return _report(detail, len(coloring.colors_used), delta)
