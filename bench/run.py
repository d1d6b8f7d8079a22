"""carlab benchmark: workloads, end-to-end and per-layer metrics, checks.

Measure one workload (the last line of stdout is the JSON result)::

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

``--trace 1`` alternates untraced and traced passes (at least one of each)
and reports the per-layer metrics instead.  ``--record FILE`` appends the full result,
machine block included, to a JSON-lines file, and ``--compare PARENT
CHANGE`` reads two such files and prints one verdict row per (workload,
metric).  ``--smoke`` is a seconds-long self-test of the harness on reduced
inputs; its sizes are never used for measurements.  ``--freeze`` rewrites
``reference.json`` from the checked-out program.

Run it from the repository root; it imports carlab from ``src/``.  See
README.md for the workloads, the metrics and why each was chosen.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("lattice", "radial", "resonant")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
SETUP_SAMPLES = 16
# share of the traced wall time that may lie outside every wrapped layer
UNCOVERED_SHARE = 0.02
RUN_LIMIT_S = 170.0


class HarnessError(RuntimeError):
    """The harness itself could not produce a measurement."""


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def worker(workload: str, seed: int, mode: str, smoke: bool,
           timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    if timeout <= 0:
        raise HarnessError(f"no time left for a {mode} worker")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode, "--work-dir", WORK]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} worker for {workload} exceeded "
                           f"{timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{mode} worker for {workload} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# correctness against the frozen reference
# ---------------------------------------------------------------------------


def _close(kind: str, tol: float, x: float, ref: float) -> bool:
    if math.isnan(x) or math.isnan(ref):
        return False
    if kind == "rel":
        return abs(x - ref) <= tol * abs(ref)
    if kind == "abs":
        return abs(x - ref) <= tol
    if kind == "dev":
        return x <= ref + tol
    raise ValueError(f"unknown comparison kind {kind!r}")


def check_problems(result: dict, reference: dict | None, workload: str,
                   seed: int) -> list[str]:
    """Why a check failed: raised, a verdict that is not pass, or a number
    outside the tolerance of its frozen value.  Empty when it passed."""
    if result["error"]:
        return [f"raised {result['error']}"]
    problems = [f"verdict {s}" for s in result["statuses"]
                if not s.endswith(":pass")]
    if reference is None:
        return problems
    ref = reference["checks"].get(workload, {}).get(result["name"])
    if ref is not None and result["seeded"]:
        ref = ref["by_seed"].get(str(seed % reference["pool"]))
    if ref is None:
        return problems + ["no frozen reference"]
    if ref["statuses"] != result["statuses"]:
        problems.append(f"statuses {result['statuses']} != frozen "
                        f"{ref['statuses']}")
    numbers, frozen = result["numbers"], ref["numbers"]
    if set(numbers) != set(frozen) or set(numbers) - set(result["families"]):
        return problems + [f"number families {sorted(numbers)} != frozen "
                           f"{sorted(frozen)}"]
    for family, (kind, tol) in result["families"].items():
        got, want = numbers.get(family, []), frozen.get(family, [])
        if len(got) != len(want):
            problems.append(f"{family}: {len(got)} numbers, frozen "
                            f"{len(want)}")
            continue
        bad = [i for i, (x, r) in enumerate(zip(got, want))
               if not _close(kind, tol, x, r)]
        if bad:
            i = bad[0]
            problems.append(f"{family}[{i}] = {got[i]!r} vs frozen "
                            f"{want[i]!r} ({kind} tol {tol:g}); "
                            f"{len(bad)} of {len(got)} off")
    return problems


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            reference: dict | None, setup_samples: int) -> dict:
    """Untraced passes for ``seconds``, each in a fresh process.

    Set-up is sampled ``setup_samples`` times: half in set-up-only workers
    before the passes, then each pass's own, then set-up-only workers after
    the passes until there are enough, so a machine that drifts during the
    run weighs on both ends of the median.
    """
    begin = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - begin)

    def setup() -> float:
        return worker(workload, seed, "setup", smoke, left())["setup_s"]

    setups = [setup() for _ in range(setup_samples // 2)]
    measuring = time.perf_counter()
    passes, longest = [], 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(worker(workload, seed, "pass", smoke, left()))
        longest = max(longest, time.perf_counter() - t0)
        used = time.perf_counter() - measuring
        if used + longest > seconds or longest > left():
            break
    setups += [p["setup_s"] for p in passes]
    setups += [setup() for _ in range(setup_samples - len(setups))]
    checks = [c for p in passes for c in p["checks"]]
    problems: dict[str, list[str]] = {}
    failed = 0
    for c in checks:
        found = check_problems(c, reference, workload, seed)
        if found:
            failed += 1
            problems.setdefault(c["name"], found)
    metrics = {name: summary([p[name] for p in passes])
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = summary(setups)
    return {"workload": workload, "seed": seed, "trace": 0,
            "metrics": metrics, "attempted": len(checks), "failed": failed,
            "problems": problems,
            "check_seconds": {c["name"]: c["seconds"]
                              for c in passes[-1]["checks"]}}


def _hygiene(traced: dict) -> list[str]:
    """Breaches of tracing hygiene in one traced pass."""
    wall, layers = traced["wall_s"], traced["layers"]
    found = []
    if traced["out_of_order"]:
        found.append(f"{traced['out_of_order']} spans closed out of order")
    if traced["min_self_s"] < -1e-6:
        found.append(f"negative self time {traced['min_self_s']:.3g} s")
    if layers["unattributed"] < -1e-6:
        found.append("spans cover more than the pass")
    # the harness's own code and the time no span covers: a carlab call
    # that escapes wrapping lands here
    uncovered = layers.get("harness", 0.0) + layers["unattributed"]
    if uncovered > UNCOVERED_SHARE * wall:
        found.append(f"{uncovered:.3g} s of {wall:.3g} s lie outside every "
                     f"wrapped layer (limit {UNCOVERED_SHARE:.0%})")
    return found


def trace(workload: str, seed: int, seconds: float, smoke: bool,
          reference: dict | None) -> dict:
    """Pairs of an untraced and a traced pass for ``seconds``, at least one.

    Per-layer metrics are medians over the traced passes, and
    ``trace.overhead_ratio`` is the traced over the untraced median wall
    time.
    """
    begin = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - begin)

    plains, traceds, longest = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        # alternate which side of the pair runs first
        order = ("pass", "trace") if len(plains) % 2 == 0 \
            else ("trace", "pass")
        pair = {mode: worker(workload, seed, mode, smoke, left())
                for mode in order}
        plains.append(pair["pass"])
        traceds.append(pair["trace"])
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - begin + longest > seconds \
                or longest > left():
            break
    problems: dict[str, list[str]] = {}
    for plain, traced in zip(plains, traceds):
        for c, t in zip(plain["checks"], traced["checks"]):
            found = check_problems(c, reference, workload, seed)
            if (c["numbers"], c["statuses"], c["error"]) != \
                    (t["numbers"], t["statuses"], t["error"]):
                found.append("traced pass changed the certified numbers")
            if found:
                problems.setdefault(c["name"], found)
        hygiene = _hygiene(traced)
        if hygiene:
            problems.setdefault("trace", hygiene)
    plain_walls = [p["wall_s"] for p in plains]
    traced_walls = [t["wall_s"] for t in traceds]
    per_layer = {name: statistics.median(t["per_layer"][name]
                                         for t in traceds)
                 for name in traceds[0]["per_layer"]}
    per_layer["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                         / statistics.median(plain_walls))
    layers = {name: statistics.median(t["layers"].get(name, 0.0)
                                      for t in traceds)
              for name in traceds[0]["layers"]}
    checks = [c for p in plains + traceds for c in p["checks"]]
    return {"workload": workload, "seed": seed, "trace": 1,
            "per_layer": per_layer, "layers": layers,
            "untraced_walls_s": plain_walls, "traced_walls_s": traced_walls,
            "attempted": len(checks),
            "failed": sum(bool(v) for v in problems.values()),
            "problems": problems}


# ---------------------------------------------------------------------------
# machine and environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _sysconf(name: str) -> int:
    try:
        return max(0, int(os.sysconf(name)))
    except (ValueError, OSError):
        return 0


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read().strip()


def _caches() -> dict[str, str]:
    """Cache sizes of CPU 0, e.g. {"L1d": "48K", "L2": "2048K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    kinds = {"Data": "d", "Instruction": "i"}
    out = {}
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            level, kind, size = (_read_text(os.path.join(base, index, name))
                                 for name in ("level", "type", "size"))
            out[f"L{level}{kinds.get(kind, '')}"] = size
    except OSError:
        pass
    return out


def _git(*args: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(seed: int, repeats: int) -> dict:
    import numpy as np

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "memory_bytes": _sysconf("SC_PAGE_SIZE") * _sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": commit or "unknown (not a git checkout)",
        "git_dirty": None if dirty is None else bool(dirty),
        "seed": seed,
        "repeats": repeats,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def print_measure(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['metrics']['wall_s']['n']}")
    print(f"{'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'n':>4}")
    for name, unit in END_TO_END_UNITS.items():
        s = result["metrics"][name]
        print(f"{name:<14}{unit:<6}{s['median']:>12.4f}{s['q1']:>12.4f}"
              f"{s['q3']:>12.4f}{s['n']:>4}")
    print(f"{'fail_ratio':<14}{'1':<6}{result['failed']:>6}/"
          f"{result['attempted']:<5}")
    for name, secs in result["check_seconds"].items():
        print(f"  check {name:<22}{secs:9.3f} s")
    for name, problems in result["problems"].items():
        print(f"  FAILED {name}: {'; '.join(problems)}")


def print_trace(result: dict) -> None:
    plain, traced = result["untraced_walls_s"], result["traced_walls_s"]
    ratio = result["per_layer"]["trace.overhead_ratio"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{len(plain)} pairs; median traced {statistics.median(traced):.3f}"
          f" s, untraced {statistics.median(plain):.3f} s")
    if len(plain) < 3:
        note = f"unresolved ({len(plain)} pairs; the pass-to-pass spread " \
            "needs three)"
    else:
        # range of the untraced passes, as a share of their median
        spread = (max(plain) - min(plain)) / statistics.median(plain)
        note = ("resolved" if abs(ratio - 1.0) > spread else "unresolved") \
            + f" (untraced passes spread {spread:.1%})"
    print(f"  tracing overhead ratio {ratio:.3f}: {note}")
    from tracing import PER_LAYER_UNITS
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<36}{unit:<6}{result['per_layer'][name]:>16.6g}")
    print("  self time by layer (s), largest first:")
    for name, secs in sorted(result["layers"].items(),
                             key=lambda kv: -kv[1]):
        print(f"    {name:<14}{secs:10.3f}")
    for name, problems in result["problems"].items():
        print(f"  FAILED {name}: {'; '.join(problems)}")


def final_line(result: dict) -> str:
    if result["trace"]:
        from tracing import PER_LAYER_UNITS
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": result["metrics"][name]["median"],
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """improved, no worse, worse or unresolved, and the pairs won.

    Pairs are the i-th parent and change runs.  Improved needs nine tenths
    of the pairs won (ties count for neither) and a median gap wider than
    the parent's interquartile range.  A spread wider than the bound leaves
    the metric unresolved unless every change run beats every parent run.
    """
    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    ps, cs = summary(parent), summary(change)
    pm, cm = ps["median"], cs["median"]
    if pairs and wins >= 0.9 * pairs and beats(cm, pm) \
            and abs(cm - pm) > ps["q3"] - ps["q1"]:
        return "improved", wins
    spread = max((ps["q3"] - ps["q1"]) / pm, (cs["q3"] - cs["q1"]) / cm)
    if spread > bound:
        dominates = all(beats(c, p) for c in change for p in parent)
        return ("no worse" if dominates else "unresolved"), wins
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    return ("worse" if worse_by > bound else "no worse"), wins


def _records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(parent_path: str, change_path: str) -> int:
    spec = _benchmark_spec()
    parent = [r for r in _records(parent_path) if not r["trace"]]
    change = [r for r in _records(change_path) if not r["trace"]]
    print(f"{'workload':<10}{'metric':<13}{'unit':<5}{'parent med [q1, q3]':>34}"
          f"{'change med [q1, q3]':>34}{'wins':>8}  verdict")
    for workload in WORKLOADS:
        ps = [r for r in parent if r["workload"] == workload]
        cs = [r for r in change if r["workload"] == workload]
        if not ps or not cs:
            continue
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["median"] for r in ps]
            c = [r["metrics"][m["name"]]["median"] for r in cs]
            word, wins = verdict(p, c, m["better"], m["bound"])
            sp, sc = summary(p), summary(c)
            print(f"{workload:<10}{m['name']:<13}{m['unit']:<5}"
                  f"{sp['median']:>12.4f} [{sp['q1']:.4f}, {sp['q3']:.4f}]"
                  f"{sc['median']:>12.4f} [{sc['q1']:.4f}, {sc['q3']:.4f}]"
                  f"{wins:>5}/{min(len(p), len(c)):<2}  {word}")
    return 0


# ---------------------------------------------------------------------------
# smoke and freeze
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Every workload's code path on reduced inputs, then compare mode."""
    from tracing import PER_LAYER_UNITS
    spec = _benchmark_spec()
    ok = ([m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
          and [m["name"] for m in spec["per_layer"]]
          == list(PER_LAYER_UNITS)
          and [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    if not ok:
        print("smoke: BENCHMARK.json metric or workload lists are stale")
    record = os.path.join(WORK, "smoke.jsonl")
    if os.path.exists(record):
        os.remove(record)
    for workload in WORKLOADS:
        for result in (measure(workload, 1, 0.0, True, None, 2),
                       trace(workload, 1, 0.0, True, None)):
            (print_trace if result["trace"] else print_measure)(result)
            print(final_line(result))
            ok = ok and result["failed"] == 0
            with open(record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
    compare(record, record)
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def freeze() -> int:
    checks, pool = {}, None
    for workload in WORKLOADS:
        out = worker(workload, 0, "freeze", False, 3600.0)
        checks[workload] = out["checks"]
        pool = out["pool"]
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"commit": _git("rev-parse", "HEAD") or "unknown",
                   "pool": pool, "checks": checks}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "carlab", "__init__.py")):
        print(f"carlab sources not found under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.freeze:
        return freeze()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    reference = load_reference()
    try:
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds, False,
                           reference)
            print_trace(result)
        else:
            result = measure(args.workload, args.seed, args.seconds, False,
                             reference, SETUP_SAMPLES)
            print_measure(result)
    except HarnessError as exc:
        print(f"benchmark harness failed: {exc}", file=sys.stderr)
        return 1
    result["machine"] = machine(args.seed, len(
        result["untraced_walls_s"]) if args.trace
        else result["metrics"]["wall_s"]["n"])
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result) + "\n")
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
