"""Traced stand-in for `python -m planaralg`, used by the traced cli-batch run.

    python -X importtime perfbench/cli_launcher.py OUT.json ARGS...

Imports the package, installs the layer wrappers, calls
`planaralg.cli.main(ARGS)` and exits with its return value, so stdout, stderr
and the exit code are what the plain command gives.  The span totals and
the time spent inside this script go to OUT.json even when `main` raises.
"""

import sys
import time

start = time.perf_counter()

import json  # noqa: E402

import tracing  # noqa: E402  (this file's directory is sys.path[0])

out_path, argv = sys.argv[1], sys.argv[2:]
tracer = tracing.Tracer()
tracer.enter("cli.import")
import planaralg  # noqa: E402
import planaralg.cli  # noqa: E402

tracer.exit("cli.import")
tracer.install(planaralg)
code = 1
try:
    code = planaralg.cli.main(argv)
finally:
    sys.stdout.flush()
    tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"script_s": time.perf_counter() - start, "snapshot": tracer.snapshot(), "spans": tracer.spans},
            handle,
        )
sys.exit(code)
