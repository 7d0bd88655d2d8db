"""Stand-in for `python -m planaralg` that samples the host's speed.

    python perfbench/cli_probe.py OUT.json ARGS...

Runs the package's `__main__` the way `python -m planaralg ARGS` does (the
same `sys.argv`, stdout, stderr, uncaught exceptions and exit code) under a
`speed.SpeedProbe`, and on the way out writes the probe's total kernel time
and call count to OUT.json.  The benchmark takes those samples out of the
job's wall time and scales the rest to the reference speed, from the
process that did the work (see `speed.py`).
"""

import json
import runpy
import sys

from speed import SpeedProbe  # this file's directory is sys.path[0]

out_path = sys.argv.pop(1)
probe = SpeedProbe()
try:
    with probe:
        probe.sample()
        runpy.run_module("planaralg", run_name="__main__", alter_sys=True)
finally:
    probe.sample()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"kernel_s": probe.seconds, "kernel_calls": probe.calls}, handle)
