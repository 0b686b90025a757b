"""Show that the benchmark is steady, and that two sets of runs agree.

    python3 bench/steady.py --label A [--runs 10] [--trace 1]
    python3 bench/steady.py --compare bench/out/steady-A.json \\
        bench/out/steady-B.json

The first form runs bench/run.py --runs times on every workload of
BENCHMARK.json, with seeds 1..runs and BENCHMARK.json's run_seconds, exactly
as a CI job would.  It prints the sample count, median and quartiles of every
end-to-end metric, the spread (q3 - q1) / median and the metric's bound, and
the spread of the raw (unscaled) seconds.  It writes every value, each run's
raw medians and the environment to bench/out/steady-LABEL.json.
With --trace 1 it makes traced runs instead and prints their per-layer
figures.  The second form prints, per workload and metric, how far the
second file's median is from the first's in the worse direction, against
the bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
    }


def one_run(workload, seed, seconds, trace) -> tuple:
    """The result object run.py prints last, and its raw medians, which it
    prints on the line before."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["raw"]


def summarize(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def measure(args, spec):
    env = environment()
    seeds = list(range(1, args.runs + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"label": args.label, "environment": env, "runs": args.runs,
           "seconds": spec["run_seconds"], "trace": args.trace,
           "workloads": {}}
    print(json.dumps(env))
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, spec["run_seconds"], args.trace)
                for seed in seeds]
        rows = [r for r, _ in runs]
        names = list(rows[0]["metrics"])
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
            "values": {n: [r["metrics"][n]["value"] for r in rows]
                       for n in names},
            "raw": {k: [raw[k] for _, raw in runs] for k in runs[0][1]},
        }
        print(f"\n{workload}: attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        if args.trace:
            for name in names:
                vals = entry["values"][name]
                print(f"  {name:45s} median {statistics.median(vals):.6g}")
        else:
            entry["summary"] = {}
            for name in names:
                s = summarize(entry["values"][name])
                entry["summary"][name] = s
                bound = bounds[name]
                verdict = ("steady" if s["spread"] < bound / 3 else
                           "within bound" if s["spread"] <= bound else
                           "TOO WIDE")
                print(f"  {name:12s} n={s['n']} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread "
                      f"{s['spread']:.2%} bound {bound:.0%} {verdict}")
            entry["raw_summary"] = {}
            for key in ("wall_s", "setup_s"):
                s = summarize(entry["raw"][key])
                entry["raw_summary"][key] = s
                print(f"  raw {key:8s} n={s['n']} median {s['median']:.6g} "
                      f"spread {s['spread']:.2%}")
        doc["workloads"][workload] = entry
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steady-{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nwrote {path}")


def compare(paths, spec):
    with open(paths[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(paths[1], encoding="utf-8") as fh:
        b = json.load(fh)
    worst_ok = True
    for m in spec["end_to_end"]:
        for workload in a["workloads"]:
            if workload not in b["workloads"]:
                continue
            ma = statistics.median(a["workloads"][workload]["values"][m["name"]])
            mb = statistics.median(b["workloads"][workload]["values"][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else \
                (ma - mb) / ma
            ok = worse <= m["bound"]
            worst_ok = worst_ok and ok
            print(f"{workload:7s} {m['name']:12s} {ma:.6g} -> {mb:.6g} "
                  f"worse by {worse:+.2%} bound {m['bound']:.0%} "
                  f"{'ok' if ok else 'EXCEEDS BOUND'}")
    return 0 if worst_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare:
        sys.exit(compare(args.compare, spec))
    if not args.label:
        ap.error("--label is required unless --compare is given")
    measure(args, spec)


if __name__ == "__main__":
    main()
