"""Central catalog of metric names: every counter and sample series.

Counter names are stringly-typed at their ``bump()`` call sites, which
makes silent drift easy: rename a counter in one place and every
benchmark assertion and dashboard quietly reads zero.  This module is
the single source of truth; ``tests/observability/test_catalog_lint.py``
scans ``src/`` for ``bump(``/``record_sample(`` string literals and
fails on any name missing here (and on any cataloged literal that no
longer exists in the source).

The README's metrics reference table is generated from the same names —
see "Metrics & tracing reference".
"""

from __future__ import annotations

#: Every ``MetricsRegistry.bump()`` counter name in ``src/``.
#: value: (owning module, meaning).
COUNTERS: dict[str, tuple[str, str]] = {
    "federation.misroute": (
        "components.federation",
        "forwarded query whose resource this domain does not govern",
    ),
    "federation.recheck_failed": (
        "components.federation",
        "serving-side governing-domain recheck raised; fail-closed deny",
    ),
    "federation.ttl_expired": (
        "components.federation",
        "misrouted query dropped because the forward TTL ran out",
    ),
    "federation.unknown_domain": (
        "components.federation",
        "no gateway/route known for the governing domain; fail-closed",
    ),
    "federation.remote_cache_hit": (
        "components.federation",
        "remote-governed slot served from the gateway decision cache",
    ),
    "federation.peer_unreachable": (
        "components.federation",
        "forward exhausted its retries; riding decisions fail closed",
    ),
    "federation.origin_rejected": (
        "components.federation",
        "inbound forward refused: origin domain not on the allow list",
    ),
    "pdp.bad_request": (
        "components.pdp",
        "inbound decision query whose payload did not decode; faulted",
    ),
    "pdp.refresh_failed": (
        "components.pdp",
        "policy refresh from the PAP failed; old store kept, decision faulted",
    ),
    "pap.bad_request": (
        "components.pap",
        "publish/withdraw request whose payload did not decode; faulted",
    ),
    "placement.misrouted": (
        "components.pdp",
        "batch slot that arrived at a replica not owning its key",
    ),
    "placement.reforwarded": (
        "components.pdp",
        "misrouted slot answered by its owner via replica reforward",
    ),
    "placement.reforward_fallback": (
        "components.pdp",
        "misrouted slot evaluated locally: owner unreachable or its reply unusable",
    ),
    "placement.moved_keys": (
        "components.pdp",
        "partition entries evicted by a ring rebalance (join/leave)",
    ),
    "analysis.findings": (
        "xacml.analysis",
        "static-analysis finding reported (witness-verified where required)",
    ),
    "analysis.witness_failed": (
        "xacml.analysis",
        "candidate finding suppressed: witness replay contradicted the claim",
    ),
    "analysis.witness_unsynthesizable": (
        "xacml.analysis",
        "candidate finding suppressed: no concrete witness request derivable",
    ),
    "analysis.gate_rejections": (
        "xacml.engine",
        "policy element refused deployment by the store's analysis gate",
    ),
}

#: Every statically named ``record_sample()`` series.
SERIES: dict[str, tuple[str, str]] = {
    "fabric.queue_latency": (
        "components.fabric",
        "submit→completion delay of wire-crossing decisions (seconds)",
    ),
    "fabric.super_batch_size": (
        "components.fabric",
        "slots per gateway super-batch at dispatch",
    ),
    "pdp.candidate_set_size": (
        "components.pdp",
        "policy candidates per decision (target-index selectivity)",
    ),
    "pdp.shard_cardinality": (
        "components.pdp",
        "materialised partition keys per replica at each rebalance",
    ),
}

#: Dynamically named series: ``prefix + suffix`` (one per component).
SERIES_PREFIXES: dict[str, tuple[str, str]] = {
    "fabric.queue_latency.": (
        "components.fabric",
        "per-PEP submit→completion delay (one series per PEP name)",
    ),
}


def is_cataloged_series(name: str) -> bool:
    """True if ``name`` is a known series, static or prefix-derived."""
    return name in SERIES or any(
        name.startswith(prefix) for prefix in SERIES_PREFIXES
    )
