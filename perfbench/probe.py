"""One set-up sample: import gms, numpy and scipy, then generate the workload's inputs.

Run in a fresh interpreter by run.py, with the same environment as the
measured process:

    python3 perfbench/probe.py <workload> <seed> <input-dir> [--tiny]

Prints ``{"setup_s": <seconds>}`` as its last line.  Interpreter start-up is
not included.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv):
    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import gms.cli

    import workloads

    name, seed, inp = argv[0], int(argv[1]), Path(argv[2])
    workload = workloads.get(name, tiny="--tiny" in argv[3:])
    for call in workload.inputs(seed, inp):
        with contextlib.redirect_stdout(io.StringIO()):
            code = gms.cli.main(call)
        if code != 0:
            print(f"input generation {call[0]} exited {code}", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
