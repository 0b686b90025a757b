"""Write the golden answers of every benchmark case into bench/golden/.

Run once on a trusted commit, from the repository root:

    python3 bench/capture_golden.py

The files are the reference the benchmark checks every answer against, so
regenerate them only when the program's output is meant to change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def _answers(cases, run) -> dict:
    out = {}
    for case in cases:
        if case[0] in out:
            raise SystemExit(f"duplicate case id {case[0]}")
        out[case[0]] = run(case)
    return out


def capture() -> dict:
    data = workloads.prime_sweep(workloads.SWEEP_EMBEDDINGS)
    return {
        "series": _answers(workloads.series_cases(),
                           workloads.run_series_case),
        "grid": _answers(workloads.grid_cases(), workloads.run_grid_case),
        "sweep": _answers(workloads.sweep_cases(),
                          lambda case: workloads.run_sweep_case(case, data)),
    }


def main():
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    for workload, answers in capture().items():
        lines = [f"{json.dumps(cid)}: {json.dumps(answers[cid])}"
                 for cid in sorted(answers)]
        with open(workloads.golden_path(workload), "w", encoding="ascii") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{workload}: {len(answers)} cases")


if __name__ == "__main__":
    main()
