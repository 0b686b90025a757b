"""One pass of a benchmark workload in a fresh interpreter.

run.py starts it as ``python3 bench/worker.py SPEC`` with SPEC a JSON object:

    workload  "series", "grid" or "sweep"
    seed      shuffles the case order, nothing else
    trace     wrap the program's functions during the timed phase
    spawned   time.monotonic() just before the parent started this process
    only      optional list of case ids to run instead of all of them
    spans     optional path the tracer writes its spans to at exit

Set-up is everything from the spawn to the end of the sweep's priming pass:
interpreter start, ``import quotcoh`` and priming.  The timed phase runs the
cases in shuffled order.  Throughout both, a SpeedSampler times a reference
slice every SAMPLE_INTERVAL_S.  Golden answers and the sweep's identities
are checked after the timed phase, untraced and untimed.  The last line on
stdout is one JSON object with this pass's raw figures.
"""

import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
SAMPLE_INTERVAL_S = 0.05


def reference_slice() -> float:
    """Seconds taken by a fixed slice of pure-Python work: tuple keys, dict
    updates and small-int arithmetic, like the program's hot loops but
    independent of it.  The collector is off while it runs and every object
    it makes is freed, so it neither pays for a collection of the program's
    heap nor moves the program's next one."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {}
    for a in range(40):
        for b in range(40):
            key = (a, b, a * b % 11)
            table[key] = table.get(key, 0) + len(key)
    del table
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Times reference_slice from a SIGALRM handler every
    SAMPLE_INTERVAL_S of wall time, tagged with the current phase.

    On a shared host the speed of one CPU can swing by half within a
    second.  run.py scales each phase's time by the median slice time of
    that same phase, so the figures follow the program and not the host.
    The handler's own wall time is kept per phase and left out of it.
    """

    def __init__(self):
        self.phase = "setup"
        self.slices = {"setup": [], "timed": []}
        self.spent = {"setup": 0.0, "timed": 0.0}

    def _sample(self, signum, frame):
        start = time.perf_counter()
        phase = self.phase
        if phase in self.slices:
            self.slices[phase].append(reference_slice())
            self.spent[phase] += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.phase = None

    def reference_s(self, phase) -> float:
        """Median slice time of the phase; of the whole pass when the
        phase was too short to sample three times."""
        own = self.slices[phase]
        pooled = own if len(own) >= 3 else \
            self.slices["setup"] + self.slices["timed"]
        return statistics.median(pooled) if pooled else reference_slice()


def _attempt(run, case, answers, errors):
    # A case that raises is a failed case, never an aborted pass.
    try:
        answers[case[0]] = run(case)
    except Exception as exc:  # noqa: BLE001
        errors[case[0]] = f"{type(exc).__name__}: {exc}"


def _keep(cases, only):
    return cases if only is None else [c for c in cases if c[0] in only]


def main():
    sampler = SpeedSampler()
    sampler.start()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    import quotcoh.cli  # noqa: F401  (set-up; loads the whole package)
    workload = spec["workload"]
    only = set(spec["only"]) if spec.get("only") else None
    primed = {}
    if workload == "sweep":
        sweep = _keep(workloads.sweep_cases(), only)
        embeddings = [e for e in workloads.SWEEP_EMBEDDINGS
                      if any(c[1] == e for c in sweep)]
        primed = workloads.prime_sweep(embeddings)
    setup_s = time.monotonic() - spec["spawned"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(spec.get("spans"))

    answers, errors = {}, {}
    sampler.phase = "timed"
    start = time.perf_counter()
    if workload == "series":
        cases, run = _keep(workloads.series_cases(), only), \
            workloads.run_series_case
    elif workload == "grid":
        cases, run = _keep(workloads.grid_cases(), only), \
            workloads.run_grid_case
    else:
        cases = sweep

        def run(case):
            return workloads.run_sweep_case(case, primed)
    random.Random(spec["seed"]).shuffle(cases)
    if tracer is None:
        for case in cases:
            _attempt(run, case, answers, errors)
    else:
        for case in cases:
            with tracer.case(case[0]):
                _attempt(run, case, answers, errors)
    wall_s = time.perf_counter() - start
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    golden = workloads.load_golden(workload)
    expected = {cid for cid in golden if only is None or cid in only}
    failures = dict(errors)
    for cid in expected - answers.keys() - errors.keys():
        failures[cid] = "case was not run"
    check = workloads.CHECKS[workload]
    for cid, answer in answers.items():
        note = check(answer, golden[cid]) if cid in golden else \
            "no golden answer"
        if note:
            failures[cid] = note
    certified = sum(1 for c in cases if c[0] not in failures)
    attempted = len(expected | answers.keys() | errors.keys())
    for emb, data in primed.items():
        attempted += 1
        notes = workloads.identity_failures(emb, data)
        if notes:
            failures[f"identities/{emb}"] = "; ".join(notes)

    result = {
        "setup_s": setup_s - sampler.spent["setup"],
        "wall_s": wall_s - sampler.spent["timed"],
        "ref_setup_s": sampler.reference_s("setup"),
        "ref_timed_s": sampler.reference_s("timed"),
        "cases": len(cases),
        "certified": certified,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(f"{k}: {v}" for k, v in failures.items())[:10],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layer_self_s"] = tracer.self_time_by_layer()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
