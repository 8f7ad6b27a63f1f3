"""Batch command line frontend.

Constructions and searches return unverified results. Each handler verifies
the result it emits once, before exiting 0: `keller square` checks the grid
it prints, after --flip, with `keller.verify_square_by_rule`; `color` and
`conjecture 2` check each queen claim on its board with `_queen_detail`, a
class-2 claim's overfullness included; `conjecture 3` relies on
`edge_critical_check`, which verifies each colouring it finds, and
`multicycle survey` and `conjecture 4`/`5` rely on `multicycle.survey`,
which verifies each row's colouring. Nothing unverified ever exits 0.
Exit codes: 0 success/verified, 1 verification failed or the construction
reported none, 2 usage error, 3 budget exhausted (search inconclusive). With
--json, exits 1, 2 and 3 print one JSON line as success does; a closed stdout
ends the run with exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import sys
from typing import Sequence

import numpy as np

from . import io as gio
from . import keller
from .chess import (QueenClass, build_bishop, build_queen, build_rook,
                    classify_queen_prediction)
from .core import (CertificateError, Graph, is_overfull, verify_clique_cover,
                   verify_edge_coloring, verify_hamiltonian_cycle,
                   verify_hamiltonian_decomposition, verify_hamiltonian_path)
from .kempe import BudgetExhaustedError, SearchBudget, edge_critical_check, find_class1
from .multicycle import (Multicycle, chromatic_index, derive, survey, survey_csv,
                         verify_multicycle_coloring)
from .mycielski import (cycle_graph, even_cycle_parity_witness, ham_path_mu_odd_cycle,
                        mycielskian, parse_vertex, vertex_name)
from .queen import (MethodInapplicableError, QueenColoringCertificate, class1_even,
                    class1_ladder_multicycle, class1_square_odd, class2_overfull_coloring,
                    classify_and_color)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# boards larger than this (in squares) sit behind --long-run
BOARD_SQUARE_CAP = 2500
# keller dimensions past this need --long-run for anything that walks all edges
KELLER_DIM_CAP = 5

# raised failures other than usage errors -> (stderr prefix, exit code)
_RAISED = {
    MethodInapplicableError: ("no construction", EXIT_FAIL),
    BudgetExhaustedError: ("budget exhausted", EXIT_BUDGET),
    CertificateError: ("verification failed", EXIT_FAIL),
}


def _emit(args, payload: dict, lines: Sequence[str] = ()) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _finish(args, payload: dict, lines: Sequence[str], detail: Sequence[str] = (),
            write: Sequence[tuple] = (), fail: int = EXIT_FAIL) -> int:
    """Report a finished run and return its exit code; every handler ends here.

    `write` holds (target, writer) pairs: each writer is called with its
    target, when the target is set and only when `payload["ok"]` is true, so
    an unverified certificate never reaches disk. A failed run prints each
    `detail` line to stderr as `fail: <line>` and carries the same list in
    the JSON as `"detail"`. Text mode prints `lines` either way; the JSON
    line gets the run's seed.
    """
    ok = payload["ok"]
    payload = {**payload, "seed": args.seed}
    if ok:
        for target, writer in write:
            if target:
                writer(target)
    else:
        for line in detail:
            print(f"fail: {line}", file=sys.stderr)
        payload["detail"] = list(detail)
    _emit(args, payload, lines)
    return EXIT_OK if ok else fail


def _write_text(text: str, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _params(args) -> dict:
    out = {}
    for key in ("m", "n", "d", "table"):
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    return out


def _need_long_run(args, why: str) -> None:
    if not getattr(args, "long_run", False):
        raise ValueError(f"{why}; pass --long-run to proceed")


def _budget(args) -> SearchBudget:
    # An explicit 0 must reach SearchBudget's check, not fall back to the default.
    default = SearchBudget.default(args.seed)
    switches = getattr(args, "budget_switches", None)
    restarts = getattr(args, "restarts", None)
    return SearchBudget(
        max_switches=default.max_switches if switches is None else switches,
        max_restarts=default.max_restarts if restarts is None else restarts,
        seed=args.seed)


def _parallel_map(fn, tasks: list, jobs: int) -> list:
    # pool.map keeps input order, so output is deterministic for any N
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.Pool(processes=min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
        return pool.map(fn, tasks, chunksize=1)


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _count_detail(report, colors: int, want: int) -> list[str]:
    """The verifier's detail, plus a line when the declared color count is not `want`."""
    if colors == want:
        return list(report.detail)
    return [*report.detail, f"declares {colors} colors, expected {want}"]


def _queen_detail(g: Graph, cert: QueenColoringCertificate) -> list[str]:
    """Every reason to refuse cert on its board g: the verifier's detail, a
    declared count other than Delta for class 1 and Delta+1 for class 2, and,
    for a class-2 claim, a board that is not overfull. Delta and the overfull
    test are read off g itself, not from a closed form."""
    colors = cert.coloring.declared_color_count
    report = verify_edge_coloring(g, cert.coloring)
    detail = _count_detail(report, colors, report.delta + (cert.claimed_class - 1))
    if cert.claimed_class == 2 and not is_overfull(g):
        bound = g.max_degree * (g.vertex_count // 2)
        detail.append(f"class 2 needs an overfull board, and Q_{cert.m},{cert.n} is not: "
                      f"{g.edge_count} edges, not more than Delta * floor(mn/2) = {bound}")
    return detail


# --- gen ---------------------------------------------------------------------------

def _build_family(args) -> Graph:
    fam = args.family
    if fam == "keller":
        if args.d is None:
            raise ValueError("--d is required for the keller family")
        if args.d > KELLER_DIM_CAP:
            _need_long_run(args, f"building G_{args.d} walks {4 ** args.d} vertices")
        return keller.build(args.d)
    if fam == "mycielski":
        if args.n is None:
            raise ValueError("--n is required for the mycielski family")
        return mycielskian(cycle_graph(args.n))
    if args.m is None or args.n is None:
        raise ValueError("--m and --n are required for board families")
    if args.m * args.n > BOARD_SQUARE_CAP:
        _need_long_run(args, f"a {args.m}x{args.n} board has {args.m * args.n} squares")
    builder = {"queen": build_queen, "rook": build_rook, "bishop": build_bishop}[fam]
    return builder(args.m, args.n)


def _finish_graph(args, g: Graph, family: str, comment: str) -> int:
    """Write a generated graph to --out, or to stdout in text mode."""
    if args.json and not args.out:
        raise ValueError("--json without --out would discard the graph; add --out")
    payload = {"ok": True, "family": family, "params": _params(args), "size": g.edge_count}
    return _finish(args, payload, [f"vertices = {g.vertex_count}", f"edges = {g.edge_count}"],
                   write=[(args.out or sys.stdout,
                           functools.partial(gio.write_dimacs, g, comments=[comment]))])


def _cmd_gen(args) -> int:
    comment = f"family={args.family} " + " ".join(f"{k}={v}" for k, v in _params(args).items())
    return _finish_graph(args, _build_family(args), args.family, comment)


# --- color -------------------------------------------------------------------------

def _color_auto(args, g: Graph) -> QueenColoringCertificate:
    return classify_and_color(args.m, args.n, budget=_budget(args), graph=g)


def _color_square_odd(args, g: Graph) -> QueenColoringCertificate:
    if args.m != args.n:
        raise ValueError("square-odd needs m = n")
    return class1_square_odd(args.n, graph=g)


def _color_kempe(args, g: Graph) -> QueenColoringCertificate:
    warm = gio.read_coloring(args.warm_start) if args.warm_start else None
    outcome = find_class1(g, _budget(args), warm_start=warm)
    if outcome.coloring is None:
        if outcome.reason == "overfull":
            raise MethodInapplicableError("board is overfull: no Delta coloring exists")
        raise BudgetExhaustedError("kempe search exhausted its budget")
    return QueenColoringCertificate(args.m, args.n, outcome.coloring, 1, "KempeSearch")


# --construction name -> the certificate it builds, given the board it is verified on
_CONSTRUCTIONS = {
    "auto": _color_auto,
    "even-union": lambda args, g: class1_even(args.m, args.n, graph=g),
    "square-odd": _color_square_odd,
    "ladder-multicycle": lambda args, g: class1_ladder_multicycle(args.m, args.n, graph=g),
    "overfull": lambda args, g: class2_overfull_coloring(args.m, args.n, graph=g),
    "kempe": _color_kempe,
}


def _cmd_color(args) -> int:
    m, n = args.m, args.n
    if m * n > BOARD_SQUARE_CAP:
        _need_long_run(args, f"a {m}x{n} board has {m * n} squares")
    if args.construction != "kempe" and args.warm_start:
        raise ValueError("--warm-start only applies to the kempe construction")
    g = build_queen(m, n)
    cert = _CONSTRUCTIONS[args.construction](args, g)
    detail = _queen_detail(g, cert)
    colors = cert.coloring.declared_color_count
    payload = {"ok": not detail, "family": "queen",
               "params": _params(args), "class": cert.claimed_class, "colors": colors,
               "construction": cert.construction}
    comment = f"queen m={m} n={n} construction={cert.construction}"
    return _finish(args, payload, [f"class = {cert.claimed_class}", f"colors = {colors}",
                                   f"construction = {cert.construction}"],
                   detail, write=[(args.out, functools.partial(
                       gio.write_coloring, cert.coloring, comments=[comment]))])


# --- verify ------------------------------------------------------------------------

def _check_coloring(args, g: Graph):
    coloring = gio.read_coloring(args.certificate)
    report = verify_edge_coloring(g, coloring)
    extra = {"colors": coloring.declared_color_count}
    if report.ok and coloring.declared_color_count in (report.delta, report.delta + 1):
        extra["class"] = coloring.declared_color_count - report.delta + 1
    return report, extra


def _check_hamcycle(args, g: Graph):
    seq = gio.read_sequence(args.certificate)
    return verify_hamiltonian_cycle(g, seq), {"size": len(seq)}


def _check_hampath(args, g: Graph):
    for option, value in (("--start", args.start), ("--end", args.end)):
        if value is not None and not 1 <= value <= g.vertex_count:
            raise ValueError(f"{option} {value} is not a vertex id in 1..{g.vertex_count}")
    seq = gio.read_sequence(args.certificate)
    start = args.start - 1 if args.start is not None else None
    end = args.end - 1 if args.end is not None else None
    # the endpoint lines name the 1-based ids of the file and the options
    return verify_hamiltonian_path(g, seq, start=start, end=end, base=1), {"size": len(seq)}


def _check_decomposition(args, g: Graph):
    cycles = gio.read_vertex_sets(args.certificate)
    matching = None
    if args.matching:
        pairs = gio.read_vertex_sets(args.matching)
        for p in pairs:
            if len(p) != 2:
                line = " ".join(str(v + 1) for v in p)
                raise CertificateError(f"matching line {line!r} is not a pair")
        matching = [tuple(p) for p in pairs]
    return verify_hamiltonian_decomposition(g, cycles, matching), {"size": len(cycles)}


def _check_cover(args, g: Graph):
    sets = gio.read_vertex_sets(args.certificate)
    return verify_clique_cover(g, sets), {"size": len(sets)}


# verify subcommand -> (report, extra payload fields) for its certificate
_CHECKS = {
    "coloring": _check_coloring,
    "hamcycle": _check_hamcycle,
    "hampath": _check_hampath,
    "decomposition": _check_decomposition,
    "cover": _check_cover,
}


def _cmd_verify(args) -> int:
    report, extra = _CHECKS[args.kind](args, gio.read_dimacs(args.graph))
    payload = {"ok": report.ok, "family": "file",
               "params": {"graph": args.graph, "certificate": args.certificate}, **extra}
    return _finish(args, payload, [f"ok = {report.ok}"] +
                   [f"{k} = {v}" for k, v in extra.items()], report.detail)


# --- multicycle --------------------------------------------------------------------

def _cmd_multicycle_derive(args) -> int:
    dm = derive(args.m, args.n)
    payload = {"ok": True, "family": "multicycle",
               "params": {"m": args.m, "n": args.n, "mult": list(dm.mult),
                          "order": list(dm.order)}, "size": dm.sigma}
    return _finish(args, payload, [f"mult = {','.join(str(x) for x in dm.mult)}",
                                   f"order = {','.join(str(x) for x in dm.order)}",
                                   f"sigma = {dm.sigma}"])


def _cmd_multicycle_chi(args) -> int:
    mc = Multicycle(tuple(_csv_ints(args.mult)))
    result = chromatic_index(mc)
    report = verify_multicycle_coloring(mc, result.coloring, result.value)
    payload = {"ok": report.ok, "family": "multicycle",
               "params": {"mult": list(mc.mult)}, "colors": result.value,
               "construction": result.method}
    return _finish(args, payload, [f"chi = {result.value}", f"construction = {result.method}"],
                   report.detail)


def _survey_task(task):
    m, n = task
    return survey([m], [n])


def _survey_rows(args):
    m_values = _csv_ints(args.m)
    n_values = [n for n in range(3, args.n_max + 1) if n % 2 == 1 and n >= args.n_min]
    tasks = [(m, n) for m in sorted(set(m_values)) for n in n_values if m <= n]
    chunks = _parallel_map(_survey_task, tasks, args.jobs)
    return [row for chunk in chunks for row in chunk]


def _cmd_survey(args) -> int:
    """`multicycle survey` and `conjecture 4`/`5`: check `args.conjectures` on each row.

    The survey prints the rows as CSV (unless --csv takes them); a conjecture
    prints a count of the rows it checked and names each violation.
    """
    rows = _survey_rows(args)
    csv_text = survey_csv(rows)
    csv_path = getattr(args, "csv", None)
    bad = [(r, c) for r in rows for c in args.conjectures if not getattr(r, f"conjecture{c}_ok")]
    if args.summary:
        lines = ([f"checked = {len(rows)}, violations = {len(bad)}"] +
                 [f"violated at m={r.m} n={r.n}" for r, _ in bad])
    else:
        lines = [] if csv_path else [csv_text.rstrip("\n")]
    payload = {"ok": not bad, "family": "multicycle",
               "params": {"m": _csv_ints(args.m), "n_max": args.n_max}, "size": len(rows)}
    return _finish(args, payload, lines,
                   [f"conjecture {c} violated at m={r.m} n={r.n}" for r, c in bad],
                   write=[(csv_path, functools.partial(_write_text, csv_text))])


# --- mycielski ---------------------------------------------------------------------

def _cmd_mycielski_hampath(args) -> int:
    n = args.n
    src, dst = parse_vertex(args.src, n), parse_vertex(args.dst, n)
    mu = mycielskian(cycle_graph(n))
    path = ham_path_mu_odd_cycle(mu, src, dst)
    report = verify_hamiltonian_path(mu, path, start=src, end=dst)
    payload = {"ok": report.ok, "family": "mycielski",
               "params": {"n": n, "from": vertex_name(src, n), "to": vertex_name(dst, n)},
               "size": len(path), "construction": "template"}
    names = " ".join(vertex_name(v, n) for v in path)
    return _finish(args, payload, [names], report.detail,
                   write=[(args.out, functools.partial(gio.write_sequence, path))])


def _cmd_mycielski_witness(args) -> int:
    # a failed premise of the parity count raises, so a report means no path
    rep = even_cycle_parity_witness(args.n)
    payload = {"ok": True, "family": "mycielski", "params": {"n": args.n},
               "size": rep.same_parity_x}
    return _finish(args, payload, ["path exists = False",
                                   f"x with x1's parity = {rep.same_parity_x} of {args.n}"])


# --- keller ------------------------------------------------------------------------

def _keller_dim(args, cap: int = KELLER_DIM_CAP) -> int:
    if args.d < 2:
        raise ValueError("--d must be at least 2")
    if args.d > cap:
        _need_long_run(args, f"dimension {args.d} walks {4 ** args.d} vertices")
    return args.d


def _cmd_keller_build(args) -> int:
    d = _keller_dim(args)
    return _finish_graph(args, keller.build(d), "keller", f"keller d={d}")


def _cmd_keller_hamcycle(args) -> int:
    d = _keller_dim(args)
    cycle = keller.ham_cycle(d)
    report = verify_hamiltonian_cycle(keller.build(d), cycle)
    payload = {"ok": report.ok, "family": "keller", "params": {"d": d},
               "size": len(cycle), "construction": "prefix-blocks"}
    return _finish(args, payload, [f"cycle length = {len(cycle)}"], report.detail,
                   write=[(args.out, functools.partial(gio.write_sequence, cycle))])


def _cmd_keller_edgecolor(args) -> int:
    d = _keller_dim(args)
    coloring = keller.class1_coloring(d)
    report = verify_edge_coloring(keller.build(d), coloring)
    colors, want = coloring.declared_color_count, report.delta
    payload = {"ok": report.ok and colors == want, "family": "keller", "params": {"d": d},
               "class": 1, "colors": colors, "construction": "difference-kernel"}
    return _finish(args, payload, [f"colors = {colors}"], _count_detail(report, colors, want),
                   write=[(args.out, functools.partial(gio.write_coloring, coloring,
                                                       comments=[f"keller d={d} class 1"]))])


def _cmd_keller_square(args) -> int:
    d = _keller_dim(args, cap=7)
    grid = keller.independence_square(d)
    if args.flip:
        # the appended -1 keeps a cell that no vertex takes at -1
        grid = np.append(keller.bitstring_automorphism(d, args.flip), -1)[grid]
    report = keller.verify_square_by_rule(d, grid)
    # one digit string per vertex code, and "-1" last for a cell no vertex takes
    digits = keller._digit_matrix(d) + ord("0")
    cells = np.append(digits.view(f"S{d}").ravel().astype(str), "-1")
    rows = [" ".join(row) for row in cells[grid].tolist()]
    payload = {"ok": report.ok, "family": "keller", "params": {"d": d}, "size": len(grid)}
    return _finish(args, payload, rows, report.detail,
                   write=[(args.out, functools.partial(_write_text, "\n".join(rows) + "\n"))])


def _cmd_keller_alpha(args) -> int:
    d = _keller_dim(args)
    value = keller.alpha_exact(d)
    expected = keller.alpha_value(d)
    payload = {"ok": value == expected, "family": "keller", "params": {"d": d}, "size": value}
    return _finish(args, payload, [f"alpha = {value}"],
                   [f"alpha computed {value}, table says {expected}"])


def _source_cover(args, d: int) -> list[list[int]]:
    if d in (3, 4, 5):
        return keller.fixture_clique_cover(d)
    if d == 2:
        # any single color class of the class-1 coloring is a perfect matching
        coloring = keller.class1_coloring(2)
        return np.unique(coloring.ends[coloring.colors == 1], axis=0).tolist()
    if d in (6, 7):
        _need_long_run(args, f"the G_{d} cover is rebuilt by repeated doubling")
        cover = keller.fixture_clique_cover(5)
        for dim in range(5, d):
            cover = keller.double_clique_cover(dim, cover)
        return cover
    raise ValueError("covers are available for 2 <= d <= 7")


def _cmd_keller_double_cover(args) -> int:
    d = args.d
    cover = _source_cover(args, d)
    doubled = keller.double_clique_cover(d, cover)
    report = keller.verify_cover_by_rule(d + 1, doubled)
    payload = {"ok": report.ok, "family": "keller",
               "params": {"d": d, "target": d + 1}, "size": len(doubled),
               "construction": "prefix-doubling"}
    return _finish(args, payload, [f"cover of G_{d + 1} with {len(doubled)} cliques verified"],
                   report.detail,
                   write=[(args.out, functools.partial(gio.write_vertex_sets, doubled))])


def _cmd_keller_decompose(args) -> int:
    d = _keller_dim(args, cap=2)
    result = keller.ham_decomposition_search(d, budget=args.budget_switches, seed=args.seed)
    if result is None:
        raise BudgetExhaustedError("decomposition search exhausted its budget")
    cycles = [list(c) for c in result.cycles]
    report = verify_hamiltonian_decomposition(keller.build(d), cycles, result.matching)
    payload = {"ok": report.ok, "family": "keller", "params": {"d": d},
               "size": len(cycles), "construction": "kernel+kempe"}
    write = [(args.out, functools.partial(gio.write_vertex_sets, cycles))]
    if result.matching is not None:
        write.append((args.matching_out, functools.partial(
            gio.write_vertex_sets, [list(e) for e in result.matching])))
    lines = [f"cycles = {len(cycles)}",
             f"matching = {'yes' if result.matching else 'no'}",
             f"switches used = {result.switches_used}"]
    return _finish(args, payload, lines, report.detail, write=write)


def _cmd_keller_verify_fixture(args) -> int:
    table = args.table
    if table == 1:
        cycles = keller.fixture_ham_decomposition()
        report = verify_hamiltonian_decomposition(keller.build(3), cycles)
        size = len(cycles)
    else:
        d = {5: 3, 6: 4, 7: 5}[table]
        cover = keller.fixture_clique_cover(d)
        report = keller.verify_cover_by_rule(d, cover)
        size = len(cover)
    payload = {"ok": report.ok, "family": "keller", "params": {"table": table}, "size": size}
    return _finish(args, payload, [f"ok = {report.ok}", f"size = {size}"], report.detail)


# --- conjecture --------------------------------------------------------------------

def _class_task(task):
    """(m, n, predicted class, class coloured or None when the search gave up, detail)."""
    m, n, switches, restarts, seed = task
    pred = classify_queen_prediction(m, n)
    predicted = 2 if pred.status is QueenClass.CLASS2_OVERFULL else 1
    g = build_queen(m, n)
    try:
        cert = classify_and_color(m, n, budget=SearchBudget(switches, restarts, seed), graph=g)
    except BudgetExhaustedError:
        return (m, n, predicted, None, [])
    detail = _queen_detail(g, cert)
    if predicted != cert.claimed_class:
        detail.insert(0, f"predicted class {predicted}, colored as class {cert.claimed_class}")
    return (m, n, predicted, cert.claimed_class, detail)


def _cmd_conjecture2(args) -> int:
    """Every board's row; a board whose search gave up is open, and any open
    board without a disagreement makes the run inconclusive (exit 3)."""
    budget = _budget(args)
    tasks = [(m, n, budget.max_switches, budget.max_restarts, args.seed)
             for m in range(1, args.m_max + 1)
             for n in range(m, args.n_max + 1)]
    results = _parallel_map(_class_task, tasks, args.jobs)
    bad = [(m, n, detail) for m, n, _, _, detail in results if detail]
    open_boards = [[m, n] for m, n, _, got, _ in results if got is None]
    payload = {"ok": not bad and not open_boards, "family": "queen",
               "params": {"m_max": args.m_max, "n_max": args.n_max}, "size": len(results)}
    if open_boards:
        payload["open"] = open_boards
    lines = [f"Q_{m},{n}: predicted class {p}, "
             + ("open" if g is None else f"colored as class {g}") for m, n, p, g, _ in results]
    lines.append(f"checked = {len(results)}, disagreements = {len(bad)}")
    return _finish(args, payload, lines,
                   [f"Q_{m},{n}: {line}" for m, n, detail in bad for line in detail] +
                   [f"Q_{m},{n}: search budget exhausted" for m, n in open_boards],
                   fail=EXIT_FAIL if bad else EXIT_BUDGET)


def _cmd_conjecture3(args) -> int:
    _need_long_run(args, "edge criticality re-colors the board once per edge")
    report = edge_critical_check(build_queen(args.m, args.n), _budget(args))
    payload = {"ok": report.critical, "family": "queen", "params": _params(args),
               "size": len(report.failures) + len(report.disproved)}
    lines = [f"critical = {report.critical}",
             f"inconclusive edges = {len(report.failures)}",
             f"disproving edges = {len(report.disproved)}"]
    detail = ([f"edge {e}: the graph without it is still overfull" for e in report.disproved] +
              [f"edge {e}: search budget exhausted" for e in report.failures])
    return _finish(args, payload, lines, detail,
                   fail=EXIT_FAIL if report.disproved else EXIT_BUDGET)


def _cmd_conjecture9(args) -> int:
    if args.d_max > 7:
        raise ValueError("omega is tabulated through d=7 only")
    lines = []
    detail = []
    ok = True
    settled = {}
    for d in range(2, args.d_max + 1):
        cover = _source_cover(args, d)
        report = keller.verify_cover_by_rule(d, cover)
        ok = ok and report.ok
        detail += [f"G_{d}: {line}" for line in report.detail]
        bounds = keller.theta_bounds(d, len(cover))
        settled[d] = bounds.upper == bounds.lower
        lines.append(f"{bounds}" + ("  (matches the conjectured value)"
                                    if settled[d] else "  (open)"))
    payload = {"ok": ok, "family": "keller", "params": {"d_max": args.d_max},
               "size": sum(1 for v in settled.values() if v)}
    return _finish(args, payload, lines, detail)


# --- parser ------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, out: bool = False) -> None:
    """The options of every subcommand, and --out where the result can be written."""
    p.add_argument("--json", action="store_true", help="print a JSON result line")
    if out:
        p.add_argument("--out", default=None, help="write the artifact to this file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--long-run", action="store_true",
                   help="allow paper-scale computations")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for sweeps, at most one per CPU; output order is fixed")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-switches", type=int, default=None,
                   help="switches per search start; one switch uncolours one edge")
    p.add_argument("--restarts", type=int, default=None, help="search starts")


def _add_color_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--construction", default="auto", choices=list(_CONSTRUCTIONS))
    _add_budget(p)
    p.add_argument("--warm-start", default=None,
                   help="coloring file seeding the kempe search")
    _add_common(p, out=True)
    p.set_defaults(handler=_cmd_color, family="queen")


def build_parser() -> argparse.ArgumentParser:
    """Build a fresh, fully configured parser for the graphcert CLI.

    `main` builds one with this on its first call and reuses it for the rest
    of the process; a caller that wants to add arguments builds its own.
    """
    parser = argparse.ArgumentParser(
        prog="graphcert",
        description="Certified colorings, paths, and covers for chess-piece, "
                    "Mycielski, and Keller graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a graph as DIMACS")
    p.add_argument("--family", required=True,
                   choices=["queen", "rook", "bishop", "mycielski", "keller"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    _add_common(p, out=True)
    p.set_defaults(handler=_cmd_gen)

    _add_color_args(subs.add_parser("color", help="edge-color a queen graph"))

    # `queen color ...` is accepted as a spelled-out alias of `color ...`
    queen = subs.add_parser("queen", help="queen-graph commands")
    queen_subs = queen.add_subparsers(dest="queen_command", required=True)
    _add_color_args(queen_subs.add_parser("color"))

    verify = subs.add_parser("verify", help="check a certificate against a graph")
    vsubs = verify.add_subparsers(dest="kind", required=True)
    for kind in _CHECKS:
        vp = vsubs.add_parser(kind)
        vp.add_argument("--graph", required=True)
        vp.add_argument("--certificate", required=True)
        if kind == "hampath":
            vp.add_argument("--start", type=int, default=None,
                            help="required first vertex, 1-based")
            vp.add_argument("--end", type=int, default=None,
                            help="required last vertex, 1-based")
        if kind == "decomposition":
            vp.add_argument("--matching", default=None,
                            help="file of leftover matching pairs, one per line")
        _add_common(vp)
        vp.set_defaults(handler=_cmd_verify, kind=kind)

    mc = subs.add_parser("multicycle", help="derived multicycle machinery")
    msubs = mc.add_subparsers(dest="mc_command", required=True)
    p = msubs.add_parser("derive")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_multicycle_derive)
    p = msubs.add_parser("chi")
    p.add_argument("--mult", required=True, help="comma-separated multiplicities")
    _add_common(p)
    p.set_defaults(handler=_cmd_multicycle_chi)
    p = msubs.add_parser("survey")
    p.add_argument("--m", required=True, help="comma-separated odd board heights")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--csv", default=None, help="write rows as CSV to this file")
    _add_common(p)
    p.set_defaults(handler=_cmd_survey, conjectures=(4, 5), summary=False)

    my = subs.add_parser("mycielski", help="Hamiltonian paths in mu(C_n)")
    ysubs = my.add_subparsers(dest="my_command", required=True)
    p = ysubs.add_parser("hampath")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", dest="src", required=True, help="endpoint, e.g. x1")
    p.add_argument("--to", dest="dst", required=True, help="endpoint, e.g. y6")
    _add_common(p, out=True)
    p.set_defaults(handler=_cmd_mycielski_hampath)
    p = ysubs.add_parser("witness")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_mycielski_witness)

    ke = subs.add_parser("keller", help="Keller graph commands")
    ksubs = ke.add_subparsers(dest="keller_command", required=True)
    for name, handler in (("build", _cmd_keller_build),
                          ("hamcycle", _cmd_keller_hamcycle),
                          ("edgecolor", _cmd_keller_edgecolor),
                          ("alpha", _cmd_keller_alpha),
                          ("double-cover", _cmd_keller_double_cover)):
        p = ksubs.add_parser(name)
        p.add_argument("--d", type=int, required=True)
        _add_common(p, out=name != "alpha")
        p.set_defaults(handler=handler)
    p = ksubs.add_parser("square")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--flip", default=None,
                   help="bit-string automorphism to apply, e.g. 001")
    _add_common(p, out=True)
    p.set_defaults(handler=_cmd_keller_square)
    p = ksubs.add_parser("decompose")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget-switches", type=int, default=400)
    p.add_argument("--matching-out", default=None)
    _add_common(p, out=True)
    p.set_defaults(handler=_cmd_keller_decompose)
    p = ksubs.add_parser("verify-fixture")
    p.add_argument("--table", type=int, required=True, choices=[1, 5, 6, 7])
    _add_common(p)
    p.set_defaults(handler=_cmd_keller_verify_fixture)

    co = subs.add_parser("conjecture", help="conjecture check harnesses")
    csubs = co.add_subparsers(dest="which", required=True)
    p = csubs.add_parser("2", help="class 2 iff overfull, over a board sweep")
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=12)
    _add_budget(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_conjecture2)
    p = csubs.add_parser("3", help="just-overfull boards are edge critical")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=13)
    _add_budget(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_conjecture3)
    for which in ("4", "5"):
        p = csubs.add_parser(which)
        p.add_argument("--m", default="3,5,7,9", help="comma-separated odd heights")
        p.add_argument("--n-max", type=int, default=39)
        p.add_argument("--n-min", type=int, default=3)
        if which == "5":
            p.add_argument("--csv", default=None)
        _add_common(p)
        p.set_defaults(handler=_cmd_survey, conjectures=(int(which),), summary=True)
    p = csubs.add_parser("9", help="theta equals ceil(4^d / omega)")
    p.add_argument("--d-max", type=int, default=5)
    _add_common(p)
    p.set_defaults(handler=_cmd_conjecture9)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one CLI command and return its exit code.

    The parser is built on the first call and reused by every later call in
    the process. Reuse carries no state: `parse_args` returns a fresh
    namespace, and no argument appends to a shared default. A caller that
    wants extra arguments builds its own parser with `build_parser`.
    """
    args = _parser().parse_args(argv)
    try:
        try:
            code = args.handler(args)
        except BrokenPipeError:
            raise  # a closed stdout, handled below
        except (*_RAISED, ValueError, OSError) as exc:
            prefix, code = next((v for cls, v in _RAISED.items() if isinstance(exc, cls)),
                                ("error", EXIT_USAGE))
            print(f"{prefix}: {exc}", file=sys.stderr)
            _emit(args, {"ok": False, "family": getattr(args, "family", args.command),
                         "params": _params(args), "error": str(exc), "seed": args.seed})
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: the rest of the output, and the flush at
        # exit, go to the null device, and the unreported run fails
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
