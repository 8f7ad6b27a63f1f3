"""Run one workload in this (fresh) process and print its raw measurements.

Started by ``run.py``; not meant to be run by hand. The last line of standard
output is one JSON object with the per-pass timings, the outcome of every
operation, the certificate digests and, when traced, the per-layer numbers.

Phases, in order:
  1. set-up: the workload's ``prepare`` calls (untimed);
  2. passes over the operation list for ``--seconds``; with ``--trace 1``,
     untraced and traced passes alternate;
  3. the gate: every certificate the last pass wrote is re-verified with the
     matching ``graphcert verify`` subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


def _call(cli, argv) -> tuple[int, dict | None, str, str, float]:
    """One in-process CLI call: exit code, parsed JSON line, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        # a crash or a usage error is a failed operation, not the end of the run
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    lines = out.getvalue().strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        payload = None
    return code, payload, out.getvalue(), err.getvalue(), elapsed


def _failure(what: str, argv, code: int, payload: dict | None, stderr: str) -> str:
    ok = None if payload is None else payload.get("ok")
    return f"{what}{' '.join(argv)}: exit {code}, ok {ok}, stderr {stderr.strip()[:300]!r}"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _flip_one_color(path: str) -> None:
    """Give the first edge of a coloring file the colour of another edge at the
    same vertex, so the file has a clash the verifier must catch."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    rows = [(i, line.split()) for i, line in enumerate(lines)
            if line and not line.startswith("c")]
    i0, (u, v, c) = rows[0]
    for _, (a, b, d) in rows[1:]:
        if u in (a, b) and d != c:
            lines[i0] = f"{u} {v} {d}"
            Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
            return
    raise ValueError(f"{path}: no second colour at vertex {u}")


class Runner:
    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.failures: list[str] = []   # operations that failed, one line each
        self.problems: list[str] = []   # failed self-checks of the benchmark
        self.attempted = 0
        # operations that exited non-zero, printed ok other than true, or wrote a
        # certificate the gate rejected, whether or not that outcome was expected
        self.ops_failed = 0
        self.digests: dict[str, str] | None = None

    def prepare(self) -> None:
        for argv in self.workload.prepare:
            code, payload, _, err, _ = _call(self.cli, argv)
            if code != 0 or not (payload or {}).get("ok"):
                self.failures.append(_failure("set-up ", argv, code, payload, err))

    def one_pass(self, tracer: Tracer | None) -> tuple[float, list[float]]:
        times, stdout = [], hashlib.sha256()
        # Every pass writes new files. Truncating the previous pass's files can
        # make the filesystem flush them inside a timed call, which made small
        # writes swing between 4 and 90 ms.
        for op in self.workload.ops:
            for name in op.outputs:
                if os.path.exists(name):
                    os.remove(name)
        gc.collect()
        start = time.perf_counter()
        for index, op in enumerate(self.workload.ops):
            if tracer is not None:
                tracer.op = index
            code, payload, text, err, elapsed = _call(self.cli, op.argv)
            times.append(elapsed)
            stdout.update(text.encode())
            self.attempted += 1
            self.ops_failed += code != 0 or payload is None or payload.get("ok") is not True
            want_ok = op.expect_exit == 0
            if code != op.expect_exit or payload is None or payload.get("ok") is not want_ok:
                self.failures.append(_failure(f"(want exit {op.expect_exit}) ", op.argv, code,
                                              payload, err))
        wall = time.perf_counter() - start
        digests = {"stdout": stdout.hexdigest()}
        for op in self.workload.ops:
            for name in op.outputs:
                if os.path.exists(name):
                    digests[name] = _sha256(name)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in digests.keys() | self.digests.keys()
                             if digests.get(k) != self.digests.get(k))
            self.problems.append(f"outputs differ between passes of one run: {changed}")
        return wall, times

    def passes(self, seconds: float, modes: tuple[bool, ...]):
        """Run passes, cycling through ``modes`` (True for a traced pass), until
        ``seconds`` have gone by and each mode has run at least once.

        Returns the pass times per mode, the operation times of the untraced
        passes, and one tracer per traced pass."""
        walls: dict[bool, list[float]] = {mode: [] for mode in modes}
        op_times, tracers = [], []
        start = time.perf_counter()
        count = 0
        while count < len(modes) or time.perf_counter() - start < seconds:
            traced = modes[count % len(modes)]
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                wall, times = self.one_pass(tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    tracers.append(tracer)
            walls[traced].append(wall)
            if not traced:
                op_times.extend(times)
            count += 1
        return walls, op_times, tracers

    def gate(self) -> None:
        for op in self.workload.ops:
            if op.check is None:
                continue
            code, payload, _, err, _ = _call(self.cli, op.check)
            if code != 0 or not (payload or {}).get("ok"):
                self.ops_failed += 1
                self.failures.append(_failure("re-verification ", op.check, code, payload, err))


def _layers(tracers: list[Tracer], problems: list[str]) -> dict:
    counts, self_times, worst = None, [], 0.0
    for tracer in tracers:
        c, s = tracer.layer_metrics()
        if counts is None:
            counts = c
        elif c != counts:
            changed = sorted(k for k in c if c[k] != counts[k])
            problems.append(f"exact counts differ between traced passes: {changed}")
        self_times.append(s)
        worst = max(worst, tracer.self_time_gap())
    if worst > 1e-6:
        problems.append(f"self times miss an operation's traced time by {worst:.3g} s")
    return {"counts": counts,
            "self_s": {k: statistics.median(s[k] for s in self_times) for k in self_times[0]},
            "self_sum_error_s": worst}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, help="directory holding the graphcert package")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="with --trace 1, write the spans here")
    ap.add_argument("--flip-one-color", action="store_true",
                    help="corrupt the first coloring certificate before the gate")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from graphcert import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"graphcert imported from {cli.__file__}, not from {src}")

    os.chdir(args.workdir)
    runner = Runner(cli, workloads.build(args.workload, args.seed, args.tiny))
    runner.prepare()
    # a traced run alternates untraced and traced passes, so that drift in the
    # machine's speed cancels out of trace_overhead
    modes = (False, True) if args.trace else (False,)
    walls, op_times, tracers = runner.passes(args.seconds, modes)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"walls": walls[False], "op_times": op_times,
              "ops_per_pass": len(runner.workload.ops), "peak_rss_mb": peak_rss_kb / 1024.0}
    if args.trace:
        result["traced_walls"] = walls[True]
        result["layers"] = _layers(tracers, runner.problems)
        if args.spans:
            with open(args.spans, "w", encoding="ascii") as fh:
                for pass_no, tracer in enumerate(tracers):
                    for name, start, end, parent, op in tracer.spans:
                        fh.write(json.dumps([pass_no, op, name, start, end, parent]) + "\n")
    if args.flip_one_color:
        _flip_one_color(next(name for op in runner.workload.ops for name in op.outputs
                             if name.endswith(".coloring")))
    runner.gate()
    result.update(attempted=runner.attempted, ops_failed=runner.ops_failed,
                  failures=runner.failures, problems=runner.problems, digests=runner.digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
