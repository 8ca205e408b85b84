"""Benchmark of the s2xs2 verification engine: time to verdict, count rate, set-up, memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  NAME is closed-forms, anti-diagonal,
deformed-chain, or all (the three in turn).  Every round runs in a fresh
worker process (perfbench/worker.py) with one BLAS thread, so each kernel
sweep is a first evaluation in its process, as in a user's CLI run.  Rounds
repeat while another fits in S seconds; there is always at least one.  Seven
or more processes are timed from spawn to "ready" for the set-up time.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 each step runs an untraced round and
then a traced one, and the JSON carries the per-layer metrics of the traced
rounds and their overhead.  The full record of the run, with every round's
checks, goes to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("closed-forms", "anti-diagonal", "deformed-chain")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170.0


class WorkerFailed(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, mode, spans_path=None):
    """Run one worker; returns (set-up seconds, round record or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{workload} {mode} worker ran past {WORKER_TIMEOUT_S} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"{workload} {mode} worker exited {proc.returncode} before finishing")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _counts(record):
    return {k: v["value"] for k, v in record["layers"].items() if v["unit"] == "count"}


def run_workload(workload, seed, seconds, trace):
    modes = ("plain", "traced") if trace else ("plain",)
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        for mode in modes:
            spans = OUT / f"{workload}-seed{seed}-round{len(rounds)}.spans.json"
            setup_s, record = spawn(workload, seed, mode, spans if mode == "traced" else None)
            setups.append(setup_s)
            rounds.append(record)
        now = time.perf_counter()
        if now - start + (now - step) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")[0])

    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(1 for op in ops if not op["ok"])
    # every round of a run makes the same calls on the same inputs, so the
    # exact counts must agree between its rounds
    repeatable = all(r["estimates"] == rounds[0]["estimates"] for r in rounds) and all(
        _counts(r) == _counts(traced[0]) for r in traced)
    verdict = statistics.median(r["verdict_s"] for r in plain)
    if trace:
        metrics = {name: (statistics.median(r["layers"][name]["value"] for r in traced), entry["unit"])
                   for name, entry in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = (statistics.median(r["verdict_s"] for r in traced) - verdict, "s")
    else:
        metrics = {
            "verdict_s": (verdict, "s"),
            # pooled over the run: single calls jitter by ±20% on a shared machine
            "count_rate": (sum(n for r in plain for n, _ in r["mc_calls"])
                           / sum(s for r in plain for _, s in r["mc_calls"]), "samples/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "machine": rounds[0]["machine"],
        "setups_s": setups,
        "rounds": rounds,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, {"correct": failed == 0 and repeatable, "attempted": len(ops), "failed": failed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "s2xs2" / "__init__.py").is_file():
        print(f"error: no s2xs2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    results = {}
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            record, result = run_workload(workload, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        for name, entry in record["metrics"].items():
            print(f"{workload:15s} {name:42s} {entry['value']:14.6g} {entry['unit']}")
        result["metrics"] = record["metrics"]
        results[workload] = result
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
