"""The quotcoh benchmark.  From the repository root:

    python3 bench/run.py --workload series --seed 1 --seconds 40 --trace 0

Each pass runs one workload in a fresh single-threaded interpreter
(bench/worker.py), one pass at a time; passes repeat until the next one
would overrun --seconds, with at least MIN_PASSES of them.  With --trace 0
the last stdout line reports the median over passes of every end-to-end
metric in BENCHMARK.json, timings scaled to the reference speed (see
REF_NOMINAL_S).  With --trace 1 passes come in pairs, one traced
and one untraced, the order alternating; the line reports the median of
every per-layer metric over the traced passes, and trace.overhead_frac
compares the two kinds.  The line before it gives the pass count and the
raw medians over the untraced passes: seconds before scaling and the
reference slice times.  Every answer of every pass is checked against the
golden files; ``failed`` counts the cases (and sweep identity checks) that
raised or differed, ``attempted`` all of them.

See bench/README.md for what each workload is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("series", "grid", "sweep")
MIN_PASSES = 3
MIN_PAIRS = 2
# A pass that has not ended by then is killed and counted as failed, so a
# run stays within the 180 s a run may take.
PASS_TIMEOUT_S = 150
# Timings are stated at the speed where worker.reference_slice takes
# REF_NOMINAL_S: each phase's raw seconds are scaled by REF_NOMINAL_S over
# the median slice time sampled during that phase, in the same process.
# On the shared Intel Xeon 2.1 GHz vCPUs (Python 3.11) the benchmark was
# defined on, the slice took 0.4-0.7 ms as the host's load came and went.
# The scaling takes that out; a change to the program still moves the
# figures in proportion.
REF_NOMINAL_S = 0.0005


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    # The series workload must start with a cold LR memo.
    env.pop("QUOTCOH_CACHE_DIR", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_program():
    """Fail fast, before any pass, when the program cannot be imported.
    The import also leaves compiled bytecode behind, so the first pass's
    set-up is not charged for compiling."""
    if not os.path.isfile(os.path.join(SRC, "quotcoh", "__init__.py")):
        sys.exit(f"no quotcoh package under {SRC}")
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import quotcoh.cli, workloads, tracer")
    proc = subprocess.run([sys.executable, "-c", code, SRC, BENCH],
                          cwd=ROOT, env=_child_env())
    if proc.returncode:
        sys.exit("cannot import quotcoh")


def run_pass(workload, seed, trace, only=None) -> dict:
    """One worker pass; a crash or timeout comes back as one failure."""
    spec = {"workload": workload, "seed": seed, "trace": trace, "only": only,
            "spans": os.path.join(OUT, f"spans-{workload}.json")
            if trace else None}
    spec["spawned"] = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1,
                "failures": [f"pass timed out after {PASS_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"attempted": 1, "failed": 1,
                "failures": [f"worker exit {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def _repeat(step, seconds, minimum) -> list:
    """Call step(i) until the next call would overrun seconds."""
    results = []
    start = time.monotonic()
    while True:
        results.append(step(len(results)))
        elapsed = time.monotonic() - start
        if (len(results) >= minimum
                and elapsed + elapsed / len(results) > seconds):
            return results


def run_workload(workload, seed, seconds, trace, only=None,
                 min_passes=MIN_PASSES, min_pairs=MIN_PAIRS) -> dict:
    """Run passes for about `seconds` and aggregate them into the result
    object the benchmark prints (metrics as plain numbers)."""
    if trace:
        os.makedirs(OUT, exist_ok=True)

        def pair(i):
            order = (False, True) if i % 2 == 0 else (True, False)
            return {t: run_pass(workload, seed, t, only) for t in order}
        pairs = _repeat(pair, seconds, min_pairs)
        plain = [p[False] for p in pairs]
        traced = [p[True] for p in pairs]
    else:
        plain = _repeat(lambda i: run_pass(workload, seed, False, only),
                        seconds, min_passes)
        traced = []
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    plain = [p for p in plain if "wall_s" in p]
    traced = [p for p in traced if "layers" in p]
    if not plain or (trace and not traced):
        raise RuntimeError("no pass completed: " + "; ".join(failures[:3]))

    def median(rows, key):
        return statistics.median(key(r) for r in rows)

    def wall(r):
        return r["wall_s"] * REF_NOMINAL_S / r["ref_timed_s"]

    if trace:
        metrics = {name: median(traced, lambda r, n=name: r["layers"][n])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = (
            median(traced, wall) / median(plain, wall) - 1.0)
    else:
        metrics = {
            "wall_s": median(plain, wall),
            "cases_per_s": median(plain, lambda r: r["certified"] / wall(r)),
            "setup_s": median(plain, lambda r: r["setup_s"] * REF_NOMINAL_S
                              / r["ref_setup_s"]),
            "peak_rss_mb": median(plain, lambda r: r["peak_rss_mb"]),
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics, "failures": failures[:10],
              "passes": len(plain) + len(traced),
              "raw": {key: median(plain, lambda r, k=key: r[k])
                      for key in ("wall_s", "setup_s", "ref_setup_s",
                                  "ref_timed_s")}}
    if trace:
        result["layer_self_s"] = {
            layer: median(traced, lambda r, l=layer: r["layer_self_s"][l])
            for layer in traced[0]["layer_self_s"]}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    check_program()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if set(result["metrics"]) != set(units):
        sys.exit("metric names differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ set(units))}")
    for note in result["failures"]:
        print(f"FAILED {note}", file=sys.stderr)
    if args.trace:
        total = sum(result["layer_self_s"].values())
        shares = sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("self time by layer: " + ", ".join(
            f"{layer} {sec / total:.1%}" for layer, sec in shares),
            file=sys.stderr)
    print(json.dumps({"passes": result["passes"], "raw": result["raw"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
