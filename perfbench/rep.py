"""One repetition of one workload, in a fresh interpreter.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/rep.py --workload NAME --seed N --requests N \
        --warmup N [--check] [--trace] [--spans PATH]

Builds the topology (timed as set-up), runs an untimed warm-up phase,
then the timed phase; with ``--check`` it checks the timed phase
against the unindexed reference.  It prints one JSON object as its
last stdout line.  Module-level id counters inside the library grow
for the life of a process and feed wire sizes, so a repetition never
shares its interpreter with another one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

#: Set-up is timed from interpreter start-up, library imports included,
#: so work moved into import time shows as set-up time too.
STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.components.pdp import CANDIDATE_SET_SERIES  # noqa: E402


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def digest(outcomes: list) -> str:
    """Fingerprint of every outcome, in completion order."""
    hasher = hashlib.sha1()
    for request, decision, source, at in outcomes:
        hasher.update(
            f"{request.subject_id}|{request.resource_id}|{request.action_id}"
            f"|{decision.name}|{source}|{at!r};".encode()
        )
    return hasher.hexdigest()


def chunks_at_reference_speed(phase, probe) -> list:
    """Per chunk: [wall s, CPU s, slowness factor, evaluate_batch
    samples], probe time taken out of wall and CPU."""
    chunks = []
    for start, end in zip(phase.marks, phase.marks[1:]):
        samples = probe.samples[start[2]:end[2]]
        chunks.append([
            end[0] - start[0] - sum(wall for wall, _ in samples),
            end[1] - start[1] - sum(cpu for _, cpu in samples),
            probe.factor(start[2], end[2]),
            phase.eval_batch_s[start[3]:end[3]],
        ])
    return chunks


def counter_delta(before: dict, after: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
        elif isinstance(value, list) and all(
            isinstance(item, (int, float)) for item in value
        ):
            previous = before.get(key, [0] * len(value))
            out[key] = [a - b for a, b in zip(value, previous, strict=True)]
    return out


def layer_metrics(summary: dict, phase, counts: dict, extra: dict) -> dict:
    """Per-layer figures of one traced phase (see README.md's table)."""
    names = summary["names"]
    layers = summary["layers"]
    decisions = max(phase.decisions, 1)
    writes = counts.get("writes", 0)

    def incl(*span_names) -> float:
        return sum(names.get(name, {}).get("incl_ns", 0) for name in span_names)

    def own_us(*span_names) -> float:
        return sum(
            names.get(name, {}).get("self_ns", 0) for name in span_names
        ) / 1000.0

    def count(*span_names) -> int:
        return sum(names.get(name, {}).get("count", 0) for name in span_names)

    def per_decision_us(layer: str) -> float:
        return layers.get(layer, 0) / 1000.0 / decisions

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    replica = counts.get("replica_decisions") or []
    served = sum(replica)
    ingested = counts.get("requests_ingested", 0)
    virtual = phase.virtual
    metrics = {
        "saml.encode_us_per_decision": own_us(
            "saml.batch_query.to_xml", "saml.batch_statement.to_xml",
            "saml.forward.to_xml",
        ) / decisions,
        "saml.decode_us_per_decision": own_us(
            "saml.batch_query.from_xml", "saml.batch_statement.from_xml",
            "saml.forward.from_xml",
        ) / decisions,
        "saml.envelopes_per_decision": count(
            "saml.batch_query.to_xml", "saml.forward.to_xml"
        ) / decisions,
        "xacml.serializer.us_per_decision": per_decision_us("xacml.serializer"),
        "xacml.parser.us_per_decision": per_decision_us("xacml.parser"),
        "wsvc.sign_us_per_envelope": ratio(
            incl("wsvc.secure_envelope") / 1000.0, count("wsvc.secure_envelope")
        ),
        "wsvc.verify_us_per_envelope": ratio(
            incl("wsvc.verify_envelope") / 1000.0, count("wsvc.verify_envelope")
        ),
        "wsvc.us_per_decision": per_decision_us("wsvc"),
        "simnet.us_per_decision": per_decision_us("simnet"),
        "simnet.events_per_decision": count("simnet.step") / decisions,
        "simnet.bytes_per_decision": virtual.get("bytes_per_decision", 0.0),
        "fabric.us_per_decision": per_decision_us("fabric"),
        "fabric.decisions_per_envelope": ratio(
            phase.decisions, counts.get("envelopes", 0)
        ),
        "fabric.dedup_ratio": ratio(counts.get("deduplicated", 0), ingested),
        "fabric.failovers": counts.get("failovers", 0),
        "fabric.wait_ms_p50": extra.get("fabric.wait_ms_p50", 0.0),
        "placement.us_per_decision": per_decision_us("placement"),
        "placement.replica_share_max": ratio(
            max(replica, default=0) * len(replica), served
        ),
        "placement.fault_ratio": ratio(
            counts.get("partition_faults", 0), counts.get("partition_lookups", 0)
        ),
        "placement.misrouted": extra.get("placement.misrouted", 0),
        "placement.reforwarded": extra.get("placement.reforwarded", 0),
        "engine.candidates_us_per_decision": incl("engine.candidates")
        / 1000.0 / decisions,
        "engine.candidate_set_mean": extra.get("engine.candidate_set_mean", 0.0),
        "engine.evaluate_us_per_decision": own_us("engine.evaluate_batch")
        / decisions,
        "engine.store_add_us_per_policy": ratio(
            incl("engine.store_add") / 1000.0, count("engine.store_add")
        ),
        "pip.resolve_us_per_decision": per_decision_us("pip"),
        "pap.bundle_us_per_write": ratio(
            incl("pap.serialize_bundle") / 1000.0, writes
        ),
        "pdp.refresh_us_per_write": ratio(
            (incl("pdp.parse_bundle") + incl("engine.store_add")) / 1000.0, writes
        ),
        "pdp.refreshes": counts.get("refreshes", 0),
        "pdp.us_per_decision": per_decision_us("pdp"),
        "pdp.refresh_share": ratio(
            incl("pap.serialize_bundle", "pdp.parse_bundle", "engine.store_add"),
            summary["root_ns"],
        ),
        "federation.us_per_decision": per_decision_us("federation"),
        "federation.forwarded_share": ratio(
            counts.get("requests_forwarded", 0), phase.decisions
        ),
        "federation.remote_cache_hit_ratio": ratio(
            counts.get("remote_cache_hits", 0),
            counts.get("remote_cache_hits", 0) + counts.get("requests_forwarded", 0),
        ),
        "revocation.us_per_write": ratio(
            layers.get("revocation", 0) / 1000.0, writes
        ),
        "revocation.invalidations": counts.get("invalidations", 0),
        "pep.us_per_decision": per_decision_us("pep"),
        "trace.unattributed_share": ratio(
            summary["unattributed_ns"], summary["root_ns"]
        ),
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--check", action="store_true",
        help="check the timed phase against the unindexed reference",
    )
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    span_tracer = None
    if args.trace:
        span_tracer = tracing.SpanTracer()
        span_tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer=span_tracer)
    wl.build()
    setup_s = time.perf_counter() - STARTED

    warm = wl.phase(args.warmup, phase_seed=f"{args.seed}:warm")
    counts_before = wl.layer_counts()
    network = wl.network
    counters_before = dict(network.metrics.counters)
    candidates_before = network.metrics.sample_count(CANDIDATE_SET_SERIES)
    wl.trace_next = True
    timed = wl.phase(args.requests, phase_seed=f"{args.seed}:timed")
    wl.trace_next = False
    counts = counter_delta(counts_before, wl.layer_counts())
    counters = {
        key: value - counters_before.get(key, 0)
        for key, value in network.metrics.counters.items()
    }
    check = wl.check(timed) if args.check else None
    stale_grants = wl.stale_grants()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chunks = chunks_at_reference_speed(timed, wl.probe)
    eval_batch_s = [
        sample / factor for _, _, factor, samples in chunks for sample in samples
    ]
    slowness = wl.probe.factor(timed.marks[0][2])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s / slowness,
        "setup_raw_s": setup_s,
        "wall_s": timed.wall_s,
        "cpu_s": timed.cpu_s,
        "decisions": timed.decisions,
        "chunks": [chunk[:3] for chunk in chunks],
        "eval_batch_p50_us": percentile(eval_batch_s, 50) * 1e6,
        "eval_batch_p99_us": percentile(eval_batch_s, 99) * 1e6,
        "eval_batch_raw_p50_us": percentile(timed.eval_batch_s, 50) * 1e6,
        "eval_batch_raw_p99_us": percentile(timed.eval_batch_s, 99) * 1e6,
        "eval_batches": len(timed.eval_batch_s),
        "slowness": slowness,
        "peak_rss_mb": peak_rss_mb,
        "phases": {
            "warmup": {"sent": warm.sent, "succeeded": warm.succeeded,
                       "failed": warm.failed},
            "timed": {"sent": timed.sent, "succeeded": timed.succeeded,
                      "failed": timed.failed},
        },
        "virtual": timed.virtual,
        "writes": timed.extra.get("writes", 0),
        "counts": counts,
        "check": check,
        "stale_grants": stale_grants,
        "digest": digest(timed.outcomes),
    }
    if span_tracer is not None:
        summary = span_tracer.summary()
        extra = {
            "fabric.wait_ms_p50": timed.virtual.get("virtual_latency_p50_ms", 0.0),
            "placement.misrouted": counters.get("placement.misrouted", 0),
            "placement.reforwarded": counters.get("placement.reforwarded", 0),
            "engine.candidate_set_mean": network.metrics.series_window(
                CANDIDATE_SET_SERIES, candidates_before
            ).mean,
        }
        result["layers"] = layer_metrics(summary, timed, counts, extra)
        if args.spans:
            span_tracer.write_jsonl(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
