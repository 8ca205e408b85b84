"""One benchmark process: set a workload up, run one round of it, check it.

    python3 perfbench/worker.py WORKLOAD SEED {setup,plain,traced} [SPANS_PATH]

Run from the root of the checkout with src/ on PYTHONPATH (run.py does
this).  Prints "ready" once the inputs are built; run.py times set-up from
the spawn to that line.  In the setup mode the process then exits; otherwise
it runs one round and prints the round's record as one JSON line.  A traced
round writes its spans to SPANS_PATH as [name, start, end, parent index].
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy
import s2xs2

import workloads
from layers import LAYERS, layer_metrics
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded; None if not found."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    if not Path(s2xs2.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"s2xs2 imported from {s2xs2.__file__}, not from this checkout's src/", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name](seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install(LAYERS)
    rnd = workloads.Round()
    t0 = time.perf_counter()
    try:
        workload.run(rnd)
    finally:
        verdict_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    ops = workload.check(rnd)

    record = {
        "mode": mode,
        "verdict_s": verdict_s,
        "mc_calls": rnd.mc_calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "seeds": {"run": seed, **workload.seeds},
        "estimates": rnd.estimates(),
        "ops": ops,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
        },
    }
    if tracer is not None:
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer).items()}
        Path(argv[3]).write_text(json.dumps(tracer.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
