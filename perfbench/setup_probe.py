"""One set-up of a workload in a fresh process, for the setup_s metric.

    python3 perfbench/setup_probe.py <workload> <out_dir> <seed>

Prints time.monotonic() once the first operation is ready; the caller
subtracts the monotonic time at which it spawned this process.
"""

import sys
import time
from pathlib import Path

import workloads

workloads.use_checkout_source(Path(__file__).resolve().parent.parent)
workloads.WORKLOADS[sys.argv[1]].setup(Path(sys.argv[2]), int(sys.argv[3]))
print(repr(time.monotonic()))
