"""Outside-in span tracer: times library layers by wrapping their
public functions, without changing any code inside the library.

Each traced name is patched *where callers look it up*: a module-level
function is replaced in every ``repro`` module that imported it (for
example ``repro.components.pdp`` binds ``parse_bundle`` through
``from .pap import``, so patching only ``pap`` would leave the PDP's
refresh untimed), and a method is replaced on its class.  Components
register bound handlers when they are constructed, so the tracer must
be installed before the topology is built.

Spans live in memory as ``[name, start_ns, end_ns, parent, ref]`` and
are written as JSONL when the run ends.  A span's self time is its
duration minus the durations of its direct children; every layer's
self time, plus the time outside any layer span, adds up to the timed
phase exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

#: (layer, span name, patch target, reference kind).  A target is
#: ``module:function`` or ``module:Class.method``; the reference kind
#: says what id a span carries: ``msg`` (the message argument's id,
#: i.e. the envelope), ``reply`` (the id of the envelope a reply
#: answers) or ``""`` (none).
SPANS = (
    ("saml", "saml.batch_query.to_xml",
     "repro.saml.xacml_profile:XacmlAuthzDecisionBatchQuery.to_xml", ""),
    ("saml", "saml.batch_statement.to_xml",
     "repro.saml.xacml_profile:XacmlAuthzDecisionBatchStatement.to_xml", ""),
    ("saml", "saml.forward.to_xml",
     "repro.components.federation:ForwardedBatchQuery.to_xml", ""),
    ("saml", "saml.batch_query.from_xml",
     "repro.saml.xacml_profile:XacmlAuthzDecisionBatchQuery.from_xml", ""),
    ("saml", "saml.batch_statement.from_xml",
     "repro.saml.xacml_profile:XacmlAuthzDecisionBatchStatement.from_xml", ""),
    ("saml", "saml.forward.from_xml",
     "repro.components.federation:ForwardedBatchQuery.from_xml", ""),
    ("xacml.serializer", "xacml.serialize_request",
     "repro.xacml.serializer:serialize_request", ""),
    ("xacml.serializer", "xacml.serialize_response",
     "repro.xacml.serializer:serialize_response", ""),
    ("xacml.serializer", "xacml.serialize_policy",
     "repro.xacml.serializer:serialize_policy", ""),
    ("xacml.parser", "xacml.parse_request",
     "repro.xacml.parser:parse_request", ""),
    ("xacml.parser", "xacml.parse_response",
     "repro.xacml.parser:parse_response", ""),
    ("xacml.parser", "xacml.parse_policy",
     "repro.xacml.parser:parse_policy", ""),
    ("wsvc", "wsvc.secure_envelope",
     "repro.wsvc.ws_security:secure_envelope", ""),
    ("wsvc", "wsvc.verify_envelope",
     "repro.wsvc.ws_security:verify_envelope", ""),
    ("simnet", "simnet.transmit", "repro.simnet.network:Network.transmit", "msg"),
    ("simnet", "simnet.publish", "repro.simnet.network:Network.publish", ""),
    ("simnet", "simnet.step", "repro.simnet.events:EventLoop.step", ""),
    ("fabric", "fabric.queue.submit",
     "repro.components.fabric:CoalescingDecisionQueue.submit", ""),
    ("fabric", "fabric.queue.flush",
     "repro.components.fabric:CoalescingDecisionQueue.flush", ""),
    ("fabric", "fabric.gateway.ingest",
     "repro.components.fabric:DomainDecisionGateway.ingest", ""),
    ("fabric", "fabric.gateway.flush",
     "repro.components.fabric:DomainDecisionGateway.flush", ""),
    ("fabric", "fabric.gateway.drain",
     "repro.components.fabric:DomainDecisionGateway._drain_step", ""),
    ("fabric", "fabric.wire.send",
     "repro.components.fabric:BatchWireCore.send", ""),
    ("fabric", "fabric.wire.handle_reply",
     "repro.components.fabric:BatchWireCore.handle_reply", "reply"),
    ("placement", "placement.owner_of",
     "repro.components.placement:PlacementSpec.owner_of", ""),
    ("placement", "placement.partition",
     "repro.components.fabric:DecisionDispatcher.partition", ""),
    ("engine", "engine.candidates",
     "repro.xacml.engine:PolicyStore.candidates", ""),
    ("engine", "engine.store_add", "repro.xacml.engine:PolicyStore.add", ""),
    ("engine", "engine.evaluate_batch",
     "repro.xacml.engine:PdpEngine.evaluate_batch", ""),
    ("pip", "pip.partition_lookup",
     "repro.components.placement:AttributePartition.lookup", ""),
    ("pap", "pap.publish",
     "repro.components.pap:PolicyAdministrationPoint.publish", ""),
    ("pap", "pap.serialize_bundle",
     "repro.components.pap:serialize_bundle", ""),
    ("pdp", "pdp.parse_bundle", "repro.components.pap:parse_bundle", ""),
    ("pdp", "pdp.ensure_policies",
     "repro.components.pdp:PolicyDecisionPoint._ensure_policies", ""),
    ("pdp", "pdp.evaluate_batch",
     "repro.components.pdp:PolicyDecisionPoint.evaluate_batch", ""),
    ("pdp", "pdp.handle_batch_query",
     "repro.components.pdp:PolicyDecisionPoint._handle_batch_query", "msg"),
    ("pdp", "pdp.handle_secure_batch_query",
     "repro.components.pdp:PolicyDecisionPoint._handle_secure_batch_query",
     "msg"),
    ("federation", "federation.dispatch_slots",
     "repro.components.federation:FederatedGateway._dispatch_slots", ""),
    ("federation", "federation.handle_forward",
     "repro.components.federation:FederatedGateway._handle_forward", "msg"),
    ("federation", "federation.flush_forward",
     "repro.components.federation:FederatedGateway._flush_forward", ""),
    ("federation", "federation.deliver_remote",
     "repro.components.federation:FederatedGateway._deliver_remote_slots", ""),
    ("revocation", "revocation.revoke",
     "repro.revocation.registry:RevocationRegistry.revoke_subject_access", ""),
    ("revocation", "revocation.bus_publish",
     "repro.revocation.bus:InvalidationBus.publish", ""),
    ("revocation", "revocation.agent_apply",
     "repro.revocation.coherence:CoherenceAgent.apply", ""),
    ("pep", "pep.submit",
     "repro.components.pep:PolicyEnforcementPoint.submit", ""),
    ("pep", "pep.enforce",
     "repro.components.pep:PolicyEnforcementPoint._enforce", ""),
)

#: Spans the benchmark opens itself: the population resolver it hands
#: the PDP tier (attribute resolution), and its own harness code.
RESOLVER_SPAN = ("pip", "pip.population_resolver")
ROOT_SPAN = "bench.timed"
HARNESS_SPAN = "bench.harness"

class SpanTracer:
    """In-memory span recorder with an on/off switch (off by default)."""

    def __init__(self) -> None:
        self.enabled = False
        #: One ``[name, start_ns, end_ns, parent, ref]`` list per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.layer_of: dict[str, str] = {
            name: layer for layer, name, _, _ in SPANS
        }
        self.layer_of[RESOLVER_SPAN[1]] = RESOLVER_SPAN[0]

    # -- recording ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, ref: str = "") -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        if ref == "msg":
            def ref_of(args):
                return getattr(args[1], "msg_id", None) if len(args) > 1 else None
        elif ref == "reply":
            def ref_of(args):
                return getattr(args[1], "reply_to", None) if len(args) > 1 else None
        else:
            ref_of = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = [
                name,
                clock(),
                0,
                stack[-1] if stack else -1,
                ref_of(args) if ref_of is not None else None,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def open(self, name: str) -> list:
        record = [
            name, time.perf_counter_ns(), 0,
            self._stack[-1] if self._stack else -1, None,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        self._stack.pop()
        record[2] = time.perf_counter_ns()

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in :data:`SPANS` where its callers find it."""
        for _, name, target, ref in SPANS:
            module_name, _, attribute = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, ref))
                else:
                    patched = self.wrap(name, raw, ref)
                setattr(owner, method, patched)
                continue
            original = getattr(module, attribute)
            patched = self.wrap(name, original, ref)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, patched)

    def wrap_resolver(self, resolver: Callable) -> Callable:
        return self.wrap(RESOLVER_SPAN[1], resolver)

    # -- analysis ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name count/inclusive/self ns and per-layer self ns.

        Spans are only recorded while the tracer is enabled, which is
        exactly the root span (the timed phase).
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "incl_ns": 0, "self_ns": 0}
        )
        layers: dict[str, int] = defaultdict(int)
        root_ns = 0
        unattributed_ns = 0
        for index, (name, start, end, _, _) in enumerate(spans):
            duration = end - start
            own = duration - child_ns[index]
            entry = names[name]
            entry["count"] += 1
            entry["incl_ns"] += duration
            entry["self_ns"] += own
            if name == ROOT_SPAN:
                root_ns += duration
                unattributed_ns += own
            elif name == HARNESS_SPAN:
                unattributed_ns += own
            else:
                layers[self.layer_of[name]] += own
        return {
            "names": dict(names),
            "layers": dict(layers),
            "root_ns": root_ns,
            "unattributed_ns": unattributed_ns,
        }

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, ref) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": self.layer_of.get(name, "bench"),
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "ref": ref,
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


def harness(tracer: Optional[SpanTracer], fn: Callable) -> Callable:
    """Attribute the benchmark's own callback code to the harness."""
    if tracer is None:
        return fn
    return tracer.wrap(HARNESS_SPAN, fn)
