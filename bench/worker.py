"""One benchmark pass in a fresh interpreter; prints one JSON line.

Every pass gets its own process because every ``carlab`` invocation does:
users pay import and first-call costs on each run, numpy's FFT plan cache
and the cutoff polynomial cache live per process, and ``ru_maxrss`` is then
the peak of this one pass.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` runs from the spawn (interpreter
start-up, site imports and this module's imports included) to ready.  The
monotonic clock is system-wide on Linux and macOS, so the two readings
compare.

Modes: ``setup`` stops after import and input generation; ``pass`` runs the
workload's checks untraced; ``trace`` runs them with spans recorded;
``freeze`` runs each check once per seeded input set and prints the numbers
for ``reference.json``.  Run it through ``run.py``, which sets PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time


def _run_check(check, tracer) -> dict:
    start = time.perf_counter()
    try:
        if tracer is None:
            numbers, statuses = check.run()
        else:
            numbers, statuses = tracer.run_span("harness.check", check.run)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failing check is a result
        numbers, statuses, error = {}, [], repr(exc)
    return {"name": check.name, "criterion": check.criterion,
            "seeded": check.seeded, "families": check.families,
            "seconds": time.perf_counter() - start, "numbers": numbers,
            "statuses": statuses, "error": error}


def _freeze(build, out_dir: str) -> dict:
    from workloads import POOL

    ref: dict = {}
    for check in build(0, out_dir, False):
        if not check.seeded:
            r = _run_check(check, None)
            ref[check.name] = {"numbers": r["numbers"],
                               "statuses": r["statuses"]}
    for pool_seed in range(POOL):
        for check in build(pool_seed, out_dir, False):
            if check.seeded:
                r = _run_check(check, None)
                ref.setdefault(check.name, {"by_seed": {}})["by_seed"][
                    str(pool_seed)] = {"numbers": r["numbers"],
                                       "statuses": r["statuses"]}
    return {"checks": ref, "pool": POOL}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "pass", "trace", "freeze"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import workloads

    out_dir = os.path.join(args.work_dir, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    build = workloads.BUILDERS[args.workload]
    checks = build(args.seed, out_dir, args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    try:
        if args.mode == "freeze":
            result.update(_freeze(build, out_dir))
        elif args.mode != "setup":
            result.update(_measure(args, checks))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(args, checks) -> dict:
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    results = [_run_check(check, tracer) for check in checks]
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    out = {"wall_s": wall,
           "cpu_s": (after.ru_utime - before.ru_utime)
           + (after.ru_stime - before.ru_stime),
           "peak_rss_mb": after.ru_maxrss / 1024.0,
           "checks": results}
    if tracer is not None:
        tracer.uninstall()
        per_check: dict[str, float] = {}
        for r in results:
            if r["criterion"]:
                per_check[r["criterion"]] = (per_check.get(r["criterion"], 0.0)
                                             + r["seconds"])
        metrics, layers = tracer.metrics(per_check, wall)
        tracer.save(os.path.join(args.work_dir,
                                 f"spans-{args.workload}.npz"))
        out.update({"per_layer": metrics, "layers": layers,
                    "out_of_order": tracer.out_of_order,
                    "min_self_s": tracer.min_self_s()})
    return out


if __name__ == "__main__":
    sys.exit(main())
