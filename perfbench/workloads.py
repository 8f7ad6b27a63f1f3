"""Operation lists of the benchmark workloads.

Every operation is one ``graphcert`` command line, run in-process through
``graphcert.cli.main`` with ``--json --jobs 1``. File names are bare: the
worker runs inside a scratch directory, so command output never depends on
where the checkout lives.

``tiny`` swaps each workload for a seconds-long version with the same shape
(same subcommands, same kinds of certificate), used by the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI call, the exit code it must end with, and how to re-check it.

    ``check`` is the ``verify`` command line that re-verifies the certificate
    this operation writes; the gate runs it after timing ends.
    """

    argv: tuple[str, ...]
    expect_exit: int = 0
    check: tuple[str, ...] | None = None

    @property
    def outputs(self) -> tuple[str, ...]:
        """Files the operation writes (its ``--out`` and ``--csv`` targets)."""
        return tuple(self.argv[i + 1] for i, tok in enumerate(self.argv[:-1])
                     if tok in ("--out", "--csv"))


@dataclass(frozen=True)
class Workload:
    prepare: tuple[tuple[str, ...], ...]  # untimed set-up calls, each must exit 0
    ops: tuple[Op, ...]


def _argv(*tokens) -> tuple[str, ...]:
    return tuple(str(t) for t in tokens)


def _verify_coloring(graph: str, cert: str) -> tuple[str, ...]:
    return _argv("verify", "coloring", "--graph", graph, "--certificate", cert)


def queen_boards(seed: int, tiny: bool) -> Workload:
    # One board per construction, each the largest allowed without --long-run:
    # EvenUnion, SquareOdd, LadderMulticycle, OverfullDeltaPlusOne.
    boards = ([(4, 6), (5, 5), (5, 7), (3, 13)] if tiny
              else [(50, 50), (49, 49), (25, 49), (3, 51)])
    random.Random(seed).shuffle(boards)
    prepare, ops = [], []
    for m, n in boards:
        graph, cert = f"q{m}x{n}.col", f"q{m}x{n}.coloring"
        prepare.append(_argv("gen", "--family", "queen", "--m", m, "--n", n, "--out", graph))
        ops.append(Op(_argv("color", "--m", m, "--n", n, "--seed", seed, "--out", cert),
                      check=_verify_coloring(graph, cert)))
    return Workload(tuple(prepare), tuple(ops))


# Boards conjectured class 1 that no construction covers, so classify_and_color
# falls through to the Kempe search.
GAP_BOARDS = [(5, 29), (5, 45), (7, 31), (7, 45), (7, 79), (9, 49), (11, 71)]
# Search seed of every gap board: the CLI default. The search time is
# heavy-tailed in this seed (one pass of GAP_BOARDS took 12 s at seed 0 and
# 47 s at seed 1), so letting the workload seed pick it would swamp any bound.
GAP_SEARCH_SEED = 0
# Exits 3 after a fixed number of switches: measures the cost per switch.
GAP_PROBE = ((5, 69), 300, 2)


def gap_search(seed: int, tiny: bool) -> Workload:
    boards = [(3, 7)] if tiny else list(GAP_BOARDS)
    (pm, pn), switches, restarts = ((5, 29), 20, 1) if tiny else GAP_PROBE
    prepare, ops = [], []
    for m, n in boards:
        graph, cert = f"q{m}x{n}.col", f"q{m}x{n}.coloring"
        prepare.append(_argv("gen", "--family", "queen", "--m", m, "--n", n, "--out", graph))
        ops.append(Op(_argv("color", "--m", m, "--n", n, "--seed", GAP_SEARCH_SEED,
                            "--out", cert),
                      check=_verify_coloring(graph, cert)))
    ops.append(Op(_argv("color", "--m", pm, "--n", pn, "--seed", GAP_SEARCH_SEED,
                        "--budget-switches", switches, "--restarts", restarts),
                  expect_exit=3))
    random.Random(seed).shuffle(ops)
    return Workload(tuple(prepare), tuple(ops))


def certificate_roundtrip(seed: int, tiny: bool) -> Workload:
    d = 3 if tiny else 5          # Keller G_d: build, colour, Hamiltonian cycle
    cover_d = 2 if tiny else 3    # cover of G_{cover_d + 1} by prefix doubling
    n = 9 if tiny else 201        # Mycielskian of C_n
    names = ([f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
             + ["z"])
    src, dst = random.Random(seed).sample(names, 2)
    start = names.index(src) + 1  # 1-based vertex ids, x1..xn, y1..yn, z
    end = names.index(dst) + 1
    g, g_cover, mu = f"g{d}.col", f"g{cover_d + 1}.col", f"mu{n}.col"
    coloring, cycle = f"g{d}.coloring", f"g{d}.ham"
    cover, path = f"g{cover_d + 1}.cover", f"mu{n}.path"
    # each certificate is verified inside the pass, and again by the gate
    verify_coloring = _verify_coloring(g, coloring)
    verify_cycle = _argv("verify", "hamcycle", "--graph", g, "--certificate", cycle)
    verify_cover = _argv("verify", "cover", "--graph", g_cover, "--certificate", cover)
    verify_path = _argv("verify", "hampath", "--graph", mu, "--certificate", path,
                        "--start", start, "--end", end)
    ops = (
        Op(_argv("keller", "build", "--d", d, "--out", g)),
        Op(_argv("keller", "edgecolor", "--d", d, "--out", coloring), check=verify_coloring),
        Op(verify_coloring),
        Op(_argv("keller", "hamcycle", "--d", d, "--out", cycle), check=verify_cycle),
        Op(verify_cycle),
        Op(_argv("keller", "double-cover", "--d", d)),
        Op(_argv("keller", "build", "--d", cover_d + 1, "--out", g_cover)),
        Op(_argv("keller", "double-cover", "--d", cover_d, "--out", cover), check=verify_cover),
        Op(verify_cover),
        Op(_argv("conjecture", "9", "--d-max", d)),
        Op(_argv("gen", "--family", "mycielski", "--n", n, "--out", mu)),
        Op(_argv("mycielski", "hampath", "--n", n, "--from", src, "--to", dst, "--out", path),
           check=verify_path),
        Op(verify_path),
    )
    return Workload((), ops)


CHI_CALLS = 400


def multicycle_sweep(seed: int, tiny: bool) -> Workload:
    heights, n_max, calls = ("3,5", 11, 20) if tiny else ("3,5,7,9,11,13", 61, CHI_CALLS)
    ops = [Op(_argv("multicycle", "survey", "--m", heights, "--n-max", n_max,
                    "--csv", "survey.csv"))]
    rng = random.Random(seed)
    for _ in range(calls):
        m = rng.choice((3, 5, 7, 9, 11, 13))
        mult = ",".join(str(rng.randint(0, 11)) for _ in range(m))
        ops.append(Op(_argv("multicycle", "chi", "--mult", mult)))
    return Workload((), tuple(ops))


WORKLOADS = {
    "queen-boards": queen_boards,
    "gap-search": gap_search,
    "certificate-roundtrip": certificate_roundtrip,
    "multicycle-sweep": multicycle_sweep,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's operations; all of them are fixed by ``seed``."""
    workload = WORKLOADS[name](seed, tiny)
    common = ("--json", "--jobs", "1")
    return Workload(
        tuple(argv + common for argv in workload.prepare),
        tuple(Op(op.argv + common, op.expect_exit,
                 op.check + common if op.check else None) for op in workload.ops))
