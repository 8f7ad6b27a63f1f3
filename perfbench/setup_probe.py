"""Print the seconds from a fresh interpreter to graphcert's CLI parser built.

Usage: python3 setup_probe.py <directory holding the graphcert package>
Only ``sys`` and ``time`` load before the clock starts, so the modules the
CLI pulls in (argparse, json, numpy, ...) are all counted.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from graphcert import cli  # noqa: E402

cli.build_parser()
print(repr(time.perf_counter() - start))
