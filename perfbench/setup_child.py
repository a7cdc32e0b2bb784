"""One set-up measurement: a fresh interpreter turns input texts into objects.

Reads the inputs as JSON on stdin, imports ``conicfree`` and builds the
program objects exactly as the measured runs do.  It then prints, as JSON,
the moment the inputs were ready (``time.perf_counter``, the system's
monotonic clock, which run.py reads too, so interpreter start-up and the
import are included) and the machine's slowness, sampled in this process
right after the set-up work (see speed.py).
"""

import json
import sys
import time

from program import build_objects, import_program

if __name__ == "__main__":
    items = json.load(sys.stdin)
    mods = import_program()
    for item in items:
        build_objects(mods, item)
    ready = time.perf_counter()
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.burst(5)
    print(json.dumps({"ready": ready, "slowness": probe.factor(ready, ready)}))
