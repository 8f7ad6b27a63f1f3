"""graphcert benchmark: certified CLI workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload queen-boards --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Each run builds its inputs from ``--seed``, times the workload's operations
in a fresh worker process (``worker.py``) for ``--seconds``, re-verifies every
certificate the operations wrote, and prints one line per metric followed by
a last line holding one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REGISTRY = WORK / "digests.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from layertrace import CHI_METHODS, LAYERS, TRACED  # noqa: E402

SETUP_PROBES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for fn in LAYERS["io"]:
        units[f"io.{fn}.bytes"] = "bytes"
    units["core.verify_edge_coloring.edges"] = "count"
    for method in CHI_METHODS:
        units[f"multicycle.chromatic_index.method.{method}"] = "count"
    units["kempe.find_class1.restarts"] = "count"
    units["kempe.find_class1.budget_exhausted"] = "count"
    units["kempe.eliminate_color.success_ratio"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


def code_digest() -> str:
    """Identity of the code that made a run: the graphcert package and this
    benchmark's own Python files."""
    h = hashlib.sha256()
    files = [p for p in (SRC / "graphcert").rglob("*") if p.is_file()] + list(HERE.glob("*.py"))
    for path in sorted(p for p in files if "__pycache__" not in p.parts):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def setup_seconds(deadline: float) -> list[float]:
    """Fresh interpreters from start to CLI parser built; the first one only
    compiles bytecode and is not counted."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool,
               flip: bool, deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    workdir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--workdir", str(workdir),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(WORK / f"spans-{workload}-s{seed}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    if flip:
        cmd.append("--flip-one-color")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_registry(key: str, digests: dict, counts: dict | None) -> list[str]:
    """Compare this run's certificates (and exact counts, when traced) with an
    earlier run of the same code, workload and seed, then record them."""
    registry = json.loads(REGISTRY.read_text()) if REGISTRY.exists() else {}
    entry = registry.setdefault(key, {})
    problems = []
    for field, value in (("digests", digests), ("counts", counts)):
        if value is None:
            continue
        if field in entry and entry[field] != value:
            changed = sorted(k for k in value.keys() | entry[field].keys()
                             if value.get(k) != entry[field].get(k))
            problems.append(f"{field} differ from an earlier run of the same code and seed: "
                            f"{changed}")
        entry.setdefault(field, value)
    tmp = REGISTRY.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, REGISTRY)
    return problems


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
            flip: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the lines that describe it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = setup_seconds(deadline)
    raw = run_worker(workload, seed, seconds, trace, tiny, flip, deadline)
    layers = raw.get("layers")
    key = f"{code_digest()}:{workload}:{seed}:{'tiny' if tiny else 'full'}"
    problems = raw["problems"] + check_registry(key, raw["digests"],
                                                layers["counts"] if layers else None)
    walls, op_times, per_pass = raw["walls"], raw["op_times"], raw["ops_per_pass"]
    wall = statistics.median(walls)
    ops_failed = raw["ops_failed"]
    lines = [
        f"workload {workload}, seed {seed}, trace {trace}: {len(walls)} pass(es) of "
        f"{per_pass} operations",
        f"wall_s = {wall:.4f} s (median of {len(walls)} passes: "
        f"{', '.join(f'{w:.3f}' for w in walls)})",
        f"op_p50_s = {statistics.median(op_times):.6f} s (median of {len(op_times)} operations)",
        f"peak_rss_mb = {raw['peak_rss_mb']:.1f} MB",
        f"setup_s = {statistics.median(setup):.4f} s (median of {len(setup)} fresh interpreters)",
        f"ops_failed = {ops_failed}/{raw['attempted']} = {ops_failed / raw['attempted']:.4f} "
        f"(non-zero exit, ok not true, or certificate rejected; expected exits included)",
        f"unexpected outcomes = {len(raw['failures'])}",
    ]
    lines += [f"digest {name} sha256 {value}" for name, value in sorted(raw["digests"].items())]
    if trace:
        units = per_layer_units()
        values = dict(layers["counts"])
        values.update(layers["self_s"])
        values["trace_overhead"] = statistics.median(raw["traced_walls"]) / wall
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        exact = set(layers["counts"])
        lines += [f"{name} = {values[name]} {unit}{' (exact)' if name in exact else ''}"
                  for name, unit in units.items()]
        lines.append(f"largest gap between an operation's traced time and its self times: "
                     f"{layers['self_sum_error_s']:.3g} s")
    else:
        values = {"wall_s": wall, "op_p50_s": statistics.median(op_times),
                  "peak_rss_mb": raw["peak_rss_mb"], "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    lines += [f"FAILED {line}" for line in raw["failures"]]
    lines += [f"PROBLEM {line}" for line in problems]
    result = {"correct": not raw["failures"] and not problems,
              "attempted": raw["attempted"], "failed": len(raw["failures"]),
              "metrics": metrics}
    return result, lines


def self_test() -> int:
    """Tiny versions of every workload: metric names and units match
    BENCHMARK.json, two traced runs give identical exact counts and
    certificates, and a certificate with one colour flipped is caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            result, lines = measure(workload, 1, 0.01, trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{workload} trace {trace}: metrics or units differ from "
                                f"BENCHMARK.json: {diff}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: " + "; ".join(
                    line for line in lines if line.startswith(("FAILED", "PROBLEM"))))
            if trace:
                counts.append({name: m["value"] for name, m in result["metrics"].items()
                               if m["unit"] != "s" and name != "trace_overhead"})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: exact counts differ between two traced runs")
        print(f"self-test {workload}: {'ok' if not problems else 'problems so far'}")
    result, lines = measure("queen-boards", 1, 0.01, 0, tiny=True, flip=True)
    if result["correct"] or result["failed"] < 1 or not any(
            "re-verification" in line for line in lines):
        problems.append("a certificate with one colour flipped passed the gate")
    else:
        print("self-test flipped colour: the gate reported a failed operation")
    for line in problems:
        print(f"PROBLEM {line}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark itself on tiny inputs")
    args = ap.parse_args()
    if not (SRC / "graphcert" / "cli.py").is_file():
        print(f"error: no graphcert sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
