"""Wall-clock decision benchmark: one command, one workload, one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload domain_gateway --seed 1 \
        --seconds 24 --trace 0

Each repetition runs in its own fresh interpreter (``rep.py``): set-up,
an untimed warm-up, then a timed closed-loop phase of a fixed request
count.  The count comes from the workload's nominal rate and
``--seconds``, so the simulated-clock figures depend on the seed alone.

``--trace 0`` prints every end-to-end metric (medians over the
repetitions).  ``--trace 1`` adds traced repetitions and prints every
per-layer metric, plus the tracing overhead against the untraced ones.

The run fails (``correct: false``, exit status 1) on any decision that
disagrees with the unindexed reference, on any stale grant, and when a
simulated-clock figure or the decision record differs between
repetitions of one seed.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Per workload: nominal decisions per wall second on the reference
#: machine (sizes the timed phase from ``--seconds``, in whole chunks)
#: and the warm-up request count.
WORKLOADS = {
    "domain_gateway": {"rate": 1000, "warmup": 800},
    "pdp_large_store": {"rate": 1000, "warmup": 800},
    "federated_churn": {"rate": 500, "warmup": 800},
}
#: Untraced repetitions per ``--trace 0`` run; figures are their medians.
REPETITIONS = 3
#: A ``--trace 1`` run alternates untraced repetitions (the overhead
#: baseline) with traced ones (the per-layer figures, their median), so
#: machine-speed drift during the run lands on both sides.
TRACE_ORDER = (False, True, False, True)
#: Wall-clock budget of a whole run; a repetition still running when it
#: is spent is killed and the run fails.
RUN_DEADLINE_S = 170.0
#: Decisions per measurement chunk (``workloads.CHUNK``).
CHUNK = 1000

END_TO_END = (
    ("decisions_per_s", "1/s"),
    ("cpu_us_per_decision", "us"),
    ("eval_batch_p50_us", "us"),
    ("eval_batch_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Simulated-clock figures: identical across repetitions of one seed.
VIRTUAL = (
    ("virtual_decisions_per_s", "1/s"),
    ("virtual_latency_p50_ms", "ms"),
    ("virtual_latency_p99_ms", "ms"),
    ("msgs_per_decision", "count"),
)
PER_LAYER_UNITS = (
    ("us_per_decision", "us"),
    ("us_per_envelope", "us"),
    ("us_per_write", "us"),
    ("us_per_policy", "us"),
    ("wait_ms_p50", "ms"),
    ("bytes_per_decision", "B"),
    ("_share", "ratio"),
    ("_share_max", "ratio"),
    ("_ratio", "ratio"),
    ("trace.overhead", "ratio"),
)


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return dict(VIRTUAL).get(name, "count")


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "platform": platform.platform(),
    }


def run_rep(workload: str, seed: int, requests: int, warmup: int,
            traced: bool, check: bool, index: int, timeout: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--requests", str(requests), "--warmup", str(warmup),
    ]
    if check:
        command.append("--check")
    if traced:
        command += [
            "--trace", "--spans",
            os.path.join(OUT_DIR, f"{workload}-seed{seed}-rep{index}.spans.jsonl"),
        ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=max(timeout, 1.0), check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(
            f"repetition {index} of {workload} exited {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return statistics.median(values)


def determinism_problems(reps: list) -> list:
    """Simulated-clock figures and decision records must match exactly."""
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["digest"] != first["digest"]:
            problems.append("decision record differs between repetitions")
        for name, _ in VIRTUAL:
            if rep["virtual"].get(name) != first["virtual"].get(name):
                problems.append(
                    f"{name} differs between repetitions: "
                    f"{first['virtual'].get(name)} vs {rep['virtual'].get(name)}"
                )
    return problems


def correctness_problems(reps: list) -> list:
    problems = []
    for rep in reps:
        if rep["stale_grants"]:
            problems.append(f"{rep['stale_grants']} stale grants")
        check = rep.get("check")
        if check is not None and check["mismatches"]:
            problems.append(f"{check['mismatches']} decisions differ from the reference")
    return problems


def end_to_end(reps: list) -> dict:
    """Time figures at the reference machine speed (see README.md);
    memory as measured."""
    chunks = [chunk for r in reps for chunk in r["chunks"]]
    values = {
        "decisions_per_s": median(
            CHUNK / wall * slowness for wall, _, slowness in chunks
        ),
        "cpu_us_per_decision": median(
            cpu / CHUNK * 1e6 / slowness for _, cpu, slowness in chunks
        ),
        "eval_batch_p50_us": median(r["eval_batch_p50_us"] for r in reps),
        "eval_batch_p99_us": median(r["eval_batch_p99_us"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def raw_figures(reps: list) -> dict:
    """The scaled figures as measured, before the speed scaling."""
    chunks = [chunk for r in reps for chunk in r["chunks"]]
    return {
        "decisions_per_s": median(CHUNK / wall for wall, _, _ in chunks),
        "cpu_us_per_decision": median(cpu / CHUNK * 1e6 for _, cpu, _ in chunks),
        "eval_batch_p50_us": median(r["eval_batch_raw_p50_us"] for r in reps),
        "eval_batch_p99_us": median(r["eval_batch_raw_p99_us"] for r in reps),
        "setup_s": median(r["setup_raw_s"] for r in reps),
        "slowness": median(r["slowness"] for r in reps),
    }


def per_layer(untraced: list, traced: list) -> dict:
    names = sorted(traced[0]["layers"])
    values = {name: median(r["layers"][name] for r in traced) for name in names}
    plain = median(
        wall / slowness for r in untraced for wall, _, slowness in r["chunks"]
    )
    with_trace = median(
        wall / slowness for r in traced for wall, _, slowness in r["chunks"]
    )
    values["trace.overhead"] = with_trace / plain - 1.0
    first = traced[0]
    for name, _ in VIRTUAL:
        values[name] = first["virtual"].get(name, 0.0)
    sent = sum(r["phases"]["timed"]["sent"] for r in untraced + traced)
    failed = sum(r["phases"]["timed"]["failed"] for r in untraced + traced)
    values["error_share"] = failed / sent if sent else 0.0
    values["stale_grants"] = sum(r["stale_grants"] for r in untraced + traced)
    return {
        name: {"value": values[name], "unit": unit_of(name)}
        for name in sorted(values)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(
            f"perfbench: no library sources at {os.path.join(ROOT, 'src', 'repro')};"
            " run from the root of a full checkout\n"
        )
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = WORKLOADS[args.workload]
    order = TRACE_ORDER if args.trace else (False,) * REPETITIONS
    # Both modes time the same request count, so a traced run's
    # simulated-clock figures are those of the untraced runs.
    timed_seconds = args.seconds / REPETITIONS
    requests = CHUNK * max(1, round(timed_seconds * spec["rate"] / CHUNK))
    started = time.perf_counter()
    untraced, traced = [], []
    for index, with_trace in enumerate(order):
        (traced if with_trace else untraced).append(run_rep(
            args.workload, args.seed, requests, spec["warmup"],
            traced=with_trace, check=index == 0, index=index,
            timeout=RUN_DEADLINE_S - (time.perf_counter() - started),
        ))
    reps = untraced + traced
    problems = correctness_problems(reps) + determinism_problems(reps)
    attempted = sum(r["phases"]["timed"]["sent"] for r in reps)
    failed = sum(r["phases"]["timed"]["failed"] for r in reps)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)

    facts = machine_facts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_repetition": requests,
        "machine": facts,
        "elapsed_s": time.perf_counter() - started,
        "problems": problems,
        "phases": [r["phases"] for r in reps],
        "virtual": reps[0]["virtual"],
        "check": reps[0].get("check"),
        "metrics": metrics,
        "repetitions": [
            {key: r[key] for key in (
                "setup_s", "setup_raw_s", "wall_s", "cpu_s", "decisions",
                "eval_batch_p50_us", "eval_batch_p99_us",
                "eval_batch_raw_p50_us", "eval_batch_raw_p99_us",
                "slowness", "peak_rss_mb", "traced", "writes",
            )}
            for r in reps
        ],
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} requests/repetition={requests} "
          f"repetitions={len(untraced)} untraced + {len(traced)} traced")
    for phase_name in ("warmup", "timed"):
        for index, rep in enumerate(reps):
            phase = rep["phases"][phase_name]
            print(f"# {phase_name} rep{index}: sent={phase['sent']} "
                  f"succeeded={phase['succeeded']} failed={phase['failed']}")
    for name, value in sorted(reps[0]["virtual"].items()):
        print(f"# virtual {name} = {value}")
    if reps[0].get("check") is not None:
        print(f"# check: {json.dumps(reps[0]['check'], sort_keys=True)}")
    for name, value in raw_figures(reps).items():
        print(f"# measured {name} = {value:.6g}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"# FAIL: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
