"""One fresh-interpreter set-up: import ``ghzqss.cli``, then run the warm-up items.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``; prints the import
time as JSON on its last line.
"""

import time

t0 = time.perf_counter()
import ghzqss.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--tiny", action="store_true")
args = parser.parse_args()
workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny).warm_up()
print(json.dumps({"import_s": import_s}))
