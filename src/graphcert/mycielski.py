"""Mycielskian graphs, Hamiltonian paths on mu(odd cycle), and the even case.

Vertices of mu(G) for an n-vertex G are integer ids: the original X layer
keeps ids 0..n-1, the shadow Y layer is n..2n-1 (y_i adjacent to x_i's
neighbors), and the apex z is 2n, adjacent to every y. On mu(C_n) the names
x_i = i-1, y_i = n+i-1 and z = 2n are read and written only at the command
line, by `parse_vertex` and `vertex_name`.

For odd n a Hamiltonian path of mu(C_n) between any two vertices comes from
the canonical Hamiltonian cycle, opened at the pair when it is an edge, and
otherwise from a small family of zigzag templates, placed by the dihedral
symmetry of C_n. The paths are returned unverified.

For even n there is no Hamiltonian path x1 -> z: a parity count, checked on
the pairs of mu(C_n), shows that such a path would need all n x's to share
x1's parity, and only n/2 do.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CertificateError, Graph, verify_hamiltonian_cycle


def parse_vertex(text: str, n: int) -> int:
    """Id of the vertex of mu(C_n) named z, x1..xn or y1..yn."""
    match = re.fullmatch(r"([xy])([0-9]+)|z", text.strip().lower())
    if match is None or (match[1] and not 1 <= int(match[2]) <= n):
        raise ValueError(f"vertex {text!r} is not one of z, x1..x{n}, y1..y{n}")
    if not match[1]:
        return 2 * n
    return int(match[2]) - 1 + (n if match[1] == "y" else 0)


def vertex_name(v: int, n: int) -> str:
    """The name z, x_i or y_i of id v of mu(C_n)."""
    if not 0 <= v <= 2 * n:
        raise ValueError(f"{v} out of range for n={n}")
    if v == 2 * n:
        return "z"
    return f"{'xy'[v // n]}{v % n + 1}"


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    i = np.arange(n)
    return Graph.from_array(n, np.sort(np.column_stack((i, (i + 1) % n)), axis=1))


def mycielskian(g: Graph) -> Graph:
    """mu(g): g on 0..n-1, y_i = n+i joined to the neighbors of i, and z = 2n
    joined to every y_i."""
    n = g.vertex_count
    u, v = g.pairs[:, 0], g.pairs[:, 1]
    y = np.arange(n, 2 * n)
    return Graph.from_array(2 * n + 1, np.concatenate((
        g.pairs, np.column_stack((u, n + v)), np.column_stack((v, n + u)),
        np.column_stack((y, np.full(n, 2 * n))))))


def mycielski_graph(n: int) -> Graph:
    """M_1 = K_1, M_2 = K_2, and M_k = mu(M_{k-1}) from there on."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        return Graph.from_array(1, [])
    g = Graph.from_array(2, [[0, 1]])
    for _ in range(n - 2):
        g = mycielskian(g)
    return g


# --- Hamiltonian path templates on mu(C_n), n odd --------------------------------

X, Y, Z = 0, 1, 2  # the layer v // n of x_i, y_i and z


def _zig(n: int, lo: int, hi: int, odd_layer: int, reverse: bool = False) -> list[int]:
    # Ids of the indices lo..hi, odd indices in odd_layer and even ones in the other.
    rng = range(hi, lo - 1, -1) if reverse else range(lo, hi + 1)
    return [i - 1 + n * (odd_layer ^ (i % 2 == 0)) for i in rng]


def _canonical_cycle(n: int) -> list[int]:
    # y1,x2,y3,...,y_n, x1, x_n, y_{n-1},...,y2, z and back to y1.
    return _zig(n, 1, n, Y) + [0, n - 1] + _zig(n, 2, n - 1, X, reverse=True) + [2 * n]


def _t_xx(n: int, j: int) -> list[int]:
    # x1 -> x_j, j odd, 3 <= j <= n-2
    return (_zig(n, 1, j - 1, X) + [2 * n] + _zig(n, 1, n, Y, reverse=True)
            + _zig(n, j, n, X, reverse=True))


def _t_xy_first(n: int) -> list[int]:
    # x1 -> y1, through x_{n-1}, y_n, z
    return _zig(n, 1, n, X) + [n - 2, 2 * n - 1, 2 * n] + _zig(n, 1, n - 2, Y, reverse=True)


def _t_xy(n: int, j: int) -> list[int]:
    # x1 -> y_j, j odd, 3 <= j <= n-2, through z, then x_j, then y1
    return (_zig(n, 1, j - 1, X) + [2 * n] + _zig(n, j + 1, n, Y, reverse=True) + [j - 1]
            + _zig(n, j + 1, n, X) + [n] + _zig(n, 2, j, Y))


def _t_xz(n: int) -> list[int]:
    # x1 -> z: two laps around the cycle, then the apex.
    return _zig(n, 1, n, X) + _zig(n, 1, n, Y) + [2 * n]


def _t_yy_even(n: int, j: int) -> list[int]:
    # y1 -> y_j, j even, 2 <= j <= n-3, through x_{j+2}, z, x1
    return ([n] + _zig(n, j + 1, n, X, reverse=True) + [j + 1] + _zig(n, j + 3, n, Y)
            + [2 * n] + _zig(n, 2, j + 1, Y, reverse=True) + [0] + _zig(n, 2, j, X))


def _t_yy_odd(n: int, j: int) -> list[int]:
    # y1 -> y_j, j odd, 3 <= j <= n-2, through x_{j+1}, z, x2
    return ([n] + _zig(n, j, n, X, reverse=True) + [j] + _zig(n, j + 2, n, Y) + [2 * n]
            + _zig(n, 1, j - 1, X, reverse=True) + [1] + _zig(n, 3, j, Y))


def _dihedral(n: int, reflect: bool, r: int, v: int | np.ndarray) -> int | np.ndarray:
    """Id v, or each id of an array, under the map of mu(C_n) that sends cycle
    position k to r + k, or to r - 2 - k when it reflects. The map keeps each
    layer, fixes z and keeps adjacency. The rotation by -r undoes the rotation
    by r; a reflection undoes itself."""
    k = v % n
    image = (r - 2 - k if reflect else r + k) % n
    return v + (v < 2 * n) * (image - k)


def _check_ends(n: int, a: int, b: int) -> None:
    if not (0 <= a <= 2 * n and 0 <= b <= 2 * n):
        raise ValueError(f"endpoints must be ids in 0..{2 * n}")
    if a == b:
        raise ValueError("endpoints must differ")


def ham_path_mu_odd_cycle(mu: Graph, a: int, b: int) -> list[int]:
    """Hamiltonian path of mu(C_n) between ids a and b, n odd >= 3.

    mu is mycielskian(cycle_graph(n)), which the caller builds once, for
    this call and for the check of its result; it is read only to ask
    whether ab is an edge. An edge ab opens
    the first image of the canonical cycle under a dihedral map that runs
    through it. Any other pair takes the first template that applies once a
    rotation or a reflection carries one end to x1 or y1, where every
    template starts. The path is unverified; CertificateError when nothing
    applies.
    """
    n, extra = divmod(mu.vertex_count - 1, 2)
    if extra or n < 3 or n % 2 == 0:
        raise ValueError("odd n >= 3 required")
    _check_ends(n, a, b)
    if mu.edge_index(np.array([a]), np.array([b]))[0] >= 0:
        cycle = np.array(_canonical_cycle(n))
        length = len(cycle)
        at = np.empty(length, dtype=int)
        at[cycle] = np.arange(length)
        for reflect, r in itertools.product((False, True), range(n)):
            inverse = r if reflect else -r
            pa = at[_dihedral(n, reflect, inverse, a)]
            pb = at[_dihedral(n, reflect, inverse, b)]
            if pb == (pa + 1) % length:
                step = -1  # walk the image backwards from a, ending at b
            elif pb == (pa - 1) % length:
                step = 1
            else:
                continue
            image = _dihedral(n, reflect, r, cycle)
            return image[(pa + step * np.arange(length)) % length].tolist()
    else:
        for p, q, swapped in ((a, b, False), (b, a, True)):
            k = p % n  # the maps that send cycle position k to 0
            for reflect, r in ((False, -k % n), (True, (k + 2) % n)):
                template = _candidate(n, _dihedral(n, reflect, r, p), _dihedral(n, reflect, r, q))
                if template is not None:
                    path = _dihedral(n, reflect, r if reflect else -r, np.array(template))
                    return (path[::-1] if swapped else path).tolist()
    raise CertificateError(f"no template applies to {vertex_name(a, n)} -> "
                           f"{vertex_name(b, n)} in mu(C_{n})")


def _candidate(n: int, p: int, q: int) -> list[int] | None:
    """A template path p -> q for a pair that is not an edge, or None."""
    layer, j = q // n, q % n + 1  # q is x_j or y_j, or z
    inner_odd = j % 2 == 1 and 3 <= j <= n - 2
    if p == 0:  # x1
        if layer == X and inner_odd:
            return _t_xx(n, j)
        if q == n:
            return _t_xy_first(n)
        if layer == Y and inner_odd:
            return _t_xy(n, j)
        if layer == Z:
            return _t_xz(n)
    if p == n and layer == Y:  # y1 -> y_j
        if n == 3 and j == 2:
            # both template ranges are empty at n=3; one explicit path suffices,
            # the dihedral maps reach every other shadow pair from it
            return [3, 6, 5, 0, 1, 2, 4]  # y1 z y3 x1 x2 x3 y2
        if j % 2 == 0 and 2 <= j <= n - 3:
            return _t_yy_even(n, j)
        if inner_odd:
            return _t_yy_odd(n, j)
    return None


def ham_path_mu_of_hc_graph(g: Graph, ham_cycle: Sequence[int], mu: Graph,
                            a: int, b: int) -> list[int]:
    """Hamiltonian path of mu(g) between mu-vertex ids a and b, n = |g| odd.

    The relabelling lift = [hc, n + hc, 2n] carries mu(C_n) onto the
    mu-image of the Hamiltonian cycle hc, a subgraph of mu(g); the path is
    the lift of the path of mu(C_n) between the preimages of a and b, and it
    is returned unverified. mu is mycielskian(cycle_graph(n)), which the
    caller builds once for all the lifts of one n, as for
    ham_path_mu_odd_cycle.
    """
    n = g.vertex_count
    if n % 2 == 0:
        raise ValueError("odd vertex count required")
    if mu.vertex_count != 2 * n + 1:
        raise ValueError(f"mu has {mu.vertex_count} vertices, not 2n + 1 = {2 * n + 1}")
    report = verify_hamiltonian_cycle(g, ham_cycle)
    if not report.ok:
        raise ValueError(f"ham_cycle is not a Hamiltonian cycle of g: {'; '.join(report.detail)}")
    _check_ends(n, a, b)
    hc = np.asarray(ham_cycle)
    lift = np.concatenate((hc, n + hc, [2 * n]))
    preimage = np.empty_like(lift)
    preimage[lift] = np.arange(2 * n + 1)
    path = ham_path_mu_odd_cycle(mu, int(preimage[a]), int(preimage[b]))
    return lift[path].tolist()


# --- the even case: a parity certificate -----------------------------------------

@dataclass(frozen=True)
class ParityWitnessReport:
    n: int
    same_parity_x: int  # the x's whose index has x1's parity, n/2 of the n a path needs


def even_cycle_parity_witness(n: int) -> ParityWitnessReport:
    """Certify that mu(C_n), n even, has no Hamiltonian path x1 -> z.

    Three premises are checked on the pairs of the graph:
    (a) z's neighbours are exactly y1..yn; (b) no edge joins two y's;
    (c) every x-y edge joins indices of opposite parity.
    Every y is interior to such a path, and by (a) and (b) 2n - 1 of the
    y's 2n path-edge ends go to x's; the x's hold 2n - 1 path-edge ends in
    all, so the path alternates x, y. By (c) each x on it then has x1's
    parity, and only n/2 x's do. CertificateError names a failed premise.
    """
    if n < 4 or n % 2 == 1:
        raise ValueError("even n >= 4 required")
    pairs = mycielskian(cycle_graph(n)).pairs
    u, v = pairs[:, 0], pairs[:, 1]  # u < v, so z = 2n is never u
    if not np.array_equal(np.sort(u[v == 2 * n]), np.arange(n, 2 * n)):
        raise CertificateError(f"premise (a) fails: z's neighbours are not exactly y1..y{n}")
    for premise, bad, why in (
            ("b", (u >= n) & (v < 2 * n), "joins two y's"),
            ("c", (u < n) & (v >= n) & (v < 2 * n) & ((u - v + n) % 2 == 0),
             "joins x and y indices of equal parity")):
        if bad.any():
            a, b = pairs[bad.argmax()].tolist()
            raise CertificateError(f"premise ({premise}) fails: edge "
                                   f"{vertex_name(a, n)} {vertex_name(b, n)} {why}")
    return ParityWitnessReport(n, n // 2)
