"""One set-up sample: a fresh interpreter's ``import minimaxreg`` plus one warm-up call.

Usage: python3 bench/probe.py MANIFEST.json WORKDIR

Prints {"setup_s": ...} as its last line. Nothing beyond the start-up
modules is imported before the clock starts, so numpy, scipy and the
package all count; preparing the tiny warm-up input is left out.
"""

import sys
import time

t0 = time.perf_counter()
from locate import import_package  # noqa: E402

import_package()
t1 = time.perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402

with open(sys.argv[1]) as fh:
    warmup = workloads.warmup_call(json.load(fh), sys.argv[2])
t2 = time.perf_counter()
warmup()
t3 = time.perf_counter()
print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
