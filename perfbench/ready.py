"""Set-up: import ambreal, load the prelude, compile every prelude entry.

    python3 perfbench/ready.py

As a script it times set-up in a fresh interpreter that has imported only
speed.py (fractions, statistics) first: the import of ambreal once, then
LOADS loads one after the other (load_prelude and compiling every entry).
Each part is scaled like an operation's time (speed.py), by the kernel
timed just before and just after it.  It prints {"setup_s": ...,
"raw_setup_s": ..., "first_load_s": ...}: the import plus the median
load, scaled and raw, and the first load alone, scaled.

Loads are repeated in one interpreter because the machine's speed changes
within a part this long, most of all in a process that has just started:
the median of 7 set-ups timed in fresh interpreters spread 0.10 over ten
runs, and the median of 7 loads in one interpreter 0.04.
"""

import os
import statistics
import sys
import time

from speed import KERNEL_REF_S, kernel_s

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LOADS = 7


def _import():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from ambreal import codec, compact, engine, intervals, prelude, terms  # noqa: F401

    return prelude, engine


def load(prelude):
    p = prelude.load_prelude()
    for name in p.names():
        p.node(name)
    return p


def setup(tracer=None):
    """Returns (prelude, seconds, engine.COMPILED).  A tracer is installed
    once ambreal is imported, records the rest and is uninstalled."""
    t0 = time.perf_counter()
    prelude, engine = _import()
    if tracer is not None:
        tracer.install()
        tracer.active = True
    p = load(prelude)
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
    return p, time.perf_counter() - t0, engine.COMPILED


def timed(fn, *args):
    """(raw seconds, scaled seconds, result) of fn(*args)."""
    k0 = kernel_s()
    t0 = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - t0
    return dt, dt * 2 * KERNEL_REF_S / (k0 + kernel_s()), out


if __name__ == "__main__":
    import json

    raw_import, import_s, (prelude, _engine) = timed(_import)
    loads = [timed(load, prelude)[:2] for _ in range(LOADS)]
    print(
        json.dumps(
            {
                "setup_s": import_s + statistics.median(s for _r, s in loads),
                "raw_setup_s": raw_import + statistics.median(r for r, _s in loads),
                "first_load_s": loads[0][1],
            }
        )
    )
