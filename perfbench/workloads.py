"""The three benchmark workloads, built from the library's public API.

Every workload follows the same life cycle, driven by ``rep.py`` in a
fresh interpreter:

1. ``build()`` — topology and policy stores (timed as ``setup_s``);
2. ``phase(count, seed)`` — a closed-loop phase of ``count`` requests,
   used once untimed as warm-up and once timed;
3. ``check(phase)`` — the phase's decisions against a reference engine
   built outside the timed phase: an unindexed ``PolicyStore`` over the
   same policies and the same attribute resolver.

Traffic dimensions and the reason each workload exists are recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

import random
import statistics
import time
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.components import (
    ComponentIdentity,
    DecisionDispatcher,
    DomainDecisionGateway,
    FederatedGateway,
    PdpConfig,
    PepConfig,
    PlacementMap,
    PlacementSpec,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.domain import ResourceDirectory
from repro.revocation import (
    CoherenceAgent,
    InvalidationBus,
    PushStrategy,
    RevocationAuthority,
)
from repro.simnet import INTER_DOMAIN_LATENCY, INTRA_DOMAIN_LATENCY, Link, Network
from repro.workloads import (
    Population,
    PopulationSpec,
    StalenessAudit,
    drive_closed_loop,
)
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator
from repro.xacml import (
    Policy,
    combining,
    deny_rule,
    subject_resource_action_target,
)
from repro.xacml.attributes import Category
from repro.xacml.context import Decision, RequestContext
from repro.xacml.engine import PdpEngine, PolicyStore

from tracer import ROOT_SPAN, SpanTracer, harness

#: PDP service-time model on the simulated clock (the E16-E19 values):
#: seconds per inbound envelope and per decision evaluated.
ENVELOPE_OVERHEAD = 0.002
DECISION_SERVICE_TIME = 0.00025
FLUSH_DELAY = 0.001
PEP_WINDOW = 8
PEP_BATCH = 8
#: PDP<->PAP link bandwidth in federated_churn (bytes/s, 10 Gbit/s: the
#: PAP shares its PDPs' rack).  A PDP that is told its policies changed
#: refetches lazily, and every batch that reaches it while a bundle
#: fetch is on the wire starts another fetch.  At the 100 Mbit/s default
#: #: a 500-policy bundle stays on the wire long enough for that herd to
#: reach 4-6 fetches per replica and write, with a size that swings
#: with the seed; here it stays near one.
PAP_BANDWIDTH = 1_250_000_000
#: Decisions per measurement chunk.  Throughput and CPU per decision
#: are reported as medians over chunks, which shrugs off the bursts of
#: contention a shared machine adds to some seconds of a run.
CHUNK = 1000
#: Simulated-seconds safety stop of one closed-loop phase.
HORIZON = 3600.0
#: Decisions between two speed-probe samples in a timed phase.
PROBE_EVERY = 100


class SpeedProbe:
    """Measures how fast the machine runs Python right now.

    The probe is a fixed job that uses nothing from the library: dict
    and string work plus an ElementTree parse and serialise, the kinds
    of work a decision is made of.  On a shared machine the speed of
    the same code drifts by tens of percent within minutes; sampled
    every ``PROBE_EVERY`` decisions, the probe lets the runner state
    each 1000-decision chunk at the reference speed (see README.md).
    """

    #: Median probe time on the reference machine (2-vCPU VM, Python
    #: 3.11.7) when it was quiet.
    REFERENCE_S = 0.00075
    _DOCUMENT = "<r>" + "".join(
        f'<a id="x{index}" v="{index}"><b>t{index}</b></a>' for index in range(20)
    ) + "</r>"

    def __init__(self) -> None:
        #: (wall s, process CPU s) of every sample taken.
        self.samples: list[tuple[float, float]] = []

    def _job(self) -> None:
        table: dict[str, int] = {}
        for index in range(600):
            key = f"k{index % 97}"
            table[key] = table.get(key, 0) + index
        ET.tostring(ET.fromstring(self._DOCUMENT))

    def sample(self) -> None:
        wall = time.perf_counter()
        cpu = time.process_time()
        self._job()
        self.samples.append(
            (time.perf_counter() - wall, time.process_time() - cpu)
        )

    def factor(self, start: int = 0, end: Optional[int] = None) -> float:
        """Machine slowness over samples ``start:end`` against the
        reference (2.0 = running at half the reference speed)."""
        walls = [wall for wall, _ in self.samples[start:end]]
        return statistics.median(walls) / self.REFERENCE_S


def triple(request: RequestContext) -> tuple:
    return (request.subject_id, request.resource_id, request.action_id)


def resolver_finder(resolver: Callable) -> Callable:
    """Per-request attribute finder over an authoritative resolver.

    The reference engine's PIP: subject attributes come straight from
    the population, exactly the values the PDP tier resolves through
    its partitions or resolver.
    """

    def finder_for(request: RequestContext):
        def finder(category, attribute_id, data_type):
            if category is not Category.SUBJECT or not request.subject_id:
                return []
            attributes = resolver(request.subject_id) or {}
            return [
                value
                for value in attributes.get(attribute_id, [])
                if value.data_type is data_type
            ]

        return finder

    return finder_for


class Reference:
    """Unindexed reference decisions, memoised per request triple."""

    def __init__(self, policies, resolver: Callable) -> None:
        store = PolicyStore(indexed=False)
        for policy in policies:
            store.add(policy)
        self.engine = PdpEngine(store)
        self.finder_for = resolver_finder(resolver)
        self._memo: dict[tuple, Decision] = {}

    def decision(self, request: RequestContext) -> Decision:
        key = triple(request)
        decision = self._memo.get(key)
        if decision is None:
            response = self.engine.evaluate_batch(
                [request], finder_for=self.finder_for
            )[0]
            decision = response.decision
            self._memo[key] = decision
        return decision


def spread_sample(keys: list, limit: int) -> list:
    """At most ``limit`` items spread evenly over ``keys`` (in order)."""
    if len(keys) <= limit:
        return list(keys)
    step = len(keys) / limit
    return [keys[int(index * step)] for index in range(limit)]


def sampled_check(outcomes, reference: Callable, limit: int) -> dict:
    """Every repeat of a request must get its first decision, and an
    evenly spread sample of the distinct requests must match
    ``reference(request)`` (a decision scanning every policy is too
    slow to take for all of them)."""
    first: dict[tuple, tuple] = {}
    inconsistent = 0
    for request, decision in outcomes:
        previous = first.setdefault(triple(request), (request, decision))
        if previous[1] is not decision:
            inconsistent += 1
    sample = spread_sample(list(first.values()), limit)
    mismatches = sum(
        1 for request, decision in sample if decision is not reference(request)
    )
    return {
        "mismatches": mismatches + inconsistent,
        "checked": len(sample),
        "distinct": len(first),
    }


@dataclass
class Phase:
    """What one closed-loop phase sent, got back and measured."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    #: (request, decision, enforcement source, simulated completion time)
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Simulated-clock figures (empty for the network-free workload).
    virtual: dict = field(default_factory=dict)
    #: (wall s, process CPU s, probe samples, evaluate_batch samples)
    #: at the start and after every CHUNK decisions of the timed region.
    marks: list = field(default_factory=list)
    #: CPU seconds of each policy-engine ``evaluate_batch`` call.
    eval_batch_s: list = field(default_factory=list)
    decisions: int = 0
    extra: dict = field(default_factory=dict)


#: Clock of the per-call ``evaluate_batch`` figures: the calling
#: thread's CPU time, so a call that another process preempted does not
#: count the milliseconds it sat off the CPU (on a shared machine those
#: waits, not the code, set the wall-clock tail).
CALL_CLOCK = time.thread_time


class BatchTimer:
    """CPU time of every policy-engine ``evaluate_batch`` call of a PDP.

    Installed on the engine instances of the PDPs the workload built
    (an instance attribute shadowing the class method), so only this
    workload's engines are timed and nothing inside the library
    changes.  The engine call excludes the PDP's policy refresh, which
    the per-layer figures price separately.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.active = False

    def attach(self, pdp: PolicyDecisionPoint) -> None:
        engine = pdp.engine
        inner = engine.evaluate_batch
        clock = CALL_CLOCK

        def evaluate_batch(*args, **kwargs):
            if not self.active:
                return inner(*args, **kwargs)
            started = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                self.samples.append(clock() - started)

        engine.evaluate_batch = evaluate_batch


def identity_factory(seed: int):
    keystore = KeyStore(seed=seed)
    authority = CertificateAuthority("bench-ca", keystore)
    validator = TrustValidator(keystore, anchors=[authority])

    def identity(name: str) -> ComponentIdentity:
        keypair = keystore.generate(label=name)
        return ComponentIdentity(
            name=name,
            keypair=keypair,
            certificate=authority.issue(name, keypair.public, 0.0, 1e9),
            keystore=keystore,
            validator=validator,
        )

    return identity


class Workload:
    """Seed, optional tracer and the timed-region bracket."""

    name = ""

    def __init__(self, seed: int, tracer: Optional[SpanTracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        #: Set by the runner: trace the next phase's timed region.
        self.trace_next = False
        self.probe = SpeedProbe()

    def mark(self, phase: "Phase") -> None:
        """Close a measurement chunk (or open the first one)."""
        phase.marks.append((
            time.perf_counter(),
            time.process_time(),
            len(self.probe.samples),
            len(phase.eval_batch_s),
        ))

    def stale_grants(self) -> int:
        """Grants served after a revocation should have bitten (none
        unless the workload revokes)."""
        return 0

    def resolver(self, resolver: Callable) -> Callable:
        """The population resolver handed to the PDP tier (traced as
        attribute resolution when tracing)."""
        if self.tracer is None:
            return resolver
        return self.tracer.wrap_resolver(resolver)

    def harness(self, fn: Callable) -> Callable:
        return harness(self.tracer, fn)

    @contextmanager
    def timed(self, phase: "Phase"):
        """Wall and process-CPU time of the measured region (and, when
        asked, the root span every layer span nests under)."""
        root = None
        if self.tracer is not None and self.trace_next:
            self.tracer.enabled = True
            root = self.tracer.open(ROOT_SPAN)
        wall = time.perf_counter()
        cpu = time.process_time()
        self.mark(phase)
        try:
            yield
        finally:
            phase.cpu_s = time.process_time() - cpu
            phase.wall_s = time.perf_counter() - wall
            if root is not None:
                self.tracer.close(root)
                self.tracer.enabled = False


class FabricWorkload(Workload):
    """Shared closed-loop driving for the two networked workloads."""

    network: Network
    peps: list

    def __init__(self, seed: int, tracer: Optional[SpanTracer] = None) -> None:
        super().__init__(seed, tracer)
        self.timer = BatchTimer()

    def drive(self, streams: list, on_outcome=None) -> Phase:
        phase = Phase(sent=sum(len(stream) for stream in streams))
        outcomes = phase.outcomes
        network = self.network

        probe = self.probe

        @self.harness
        def observer(pep, request, result) -> None:
            outcomes.append((request, result.decision, result.source, network.now))
            done = len(outcomes)
            if done % PROBE_EVERY == PROBE_EVERY // 2:
                probe.sample()
            if done % CHUNK == 0:
                self.mark(phase)
            if on_outcome is not None:
                on_outcome(pep, request, result)

        self.timer.samples = phase.eval_batch_s
        self.timer.active = True
        messages_before = network.metrics.messages_sent
        bytes_before = network.metrics.bytes_sent
        with self.timed(phase):
            run = drive_closed_loop(
                self.peps, streams, PEP_WINDOW, horizon=HORIZON, observer=observer
            )
        self.timer.active = False
        fleet = run.fleet
        phase.decisions = fleet.completed
        phase.succeeded = sum(
            1 for _, decision, source, _ in outcomes
            if source == "pdp" and decision in (
                Decision.PERMIT, Decision.DENY, Decision.NOT_APPLICABLE
            )
        )
        phase.failed = phase.sent - phase.succeeded
        latency = fleet.queue_latency
        phase.virtual = {
            "virtual_decisions_per_s": fleet.decisions_per_sec,
            "virtual_latency_p50_ms": latency.p50 * 1000.0,
            "virtual_latency_p99_ms": latency.p99 * 1000.0,
            "msgs_per_decision": fleet.messages_per_decision,
            "bytes_per_decision": (
                (network.metrics.bytes_sent - bytes_before) / fleet.completed
                if fleet.completed else 0.0
            ),
            "completed": fleet.completed,
            "granted": fleet.granted,
            "messages": network.metrics.messages_sent - messages_before,
        }
        return phase


class DomainGateway(FabricWorkload):
    """One domain: 4 PEPs -> signed gateway -> 4 subject-sharded PDPs."""

    name = "domain_gateway"
    SUBJECTS = 1_000_000
    RESOURCES = 1_000
    PEPS = 4
    REPLICAS = 4
    #: A drain of the whole domain's window splits into about one
    #: envelope per owning replica (``hash-subject`` partitioning).
    GATEWAY_BATCH = PEPS * PEP_WINDOW

    def build(self) -> None:
        seed = self.seed
        self.population = Population(
            PopulationSpec(
                subjects=self.SUBJECTS, resources=self.RESOURCES, seed=seed
            )
        )
        self.policies = self.population.policy_set()
        network = Network(seed=seed)
        identity = identity_factory(seed)
        names = [f"pdp-{index}" for index in range(self.REPLICAS)]
        placement = PlacementSpec("subject", PlacementMap(names))
        resolver = self.resolver(self.population.attribute_resolver())
        self.pdps = []
        for name in names:
            pdp = PolicyDecisionPoint(
                name,
                network,
                identity=identity(name),
                config=PdpConfig(
                    placement=placement,
                    require_signed_queries=True,
                    envelope_overhead=ENVELOPE_OVERHEAD,
                    decision_service_time=DECISION_SERVICE_TIME,
                ),
                attribute_resolver=resolver,
            )
            for policy in self.policies:
                pdp.add_local_policy(policy)
            self.timer.attach(pdp)
            self.pdps.append(pdp)
        self.gateway = DomainDecisionGateway(
            "gateway",
            network,
            DecisionDispatcher(names, policy="hash-subject", placement=placement),
            identity=identity("gateway"),
            secure_channel=True,
            max_batch=self.GATEWAY_BATCH,
            max_delay=FLUSH_DELAY,
        )
        local = Link(latency=INTRA_DOMAIN_LATENCY)
        for name in names:
            network.set_link("gateway", name, local)
            for other in names:
                if other != name:
                    network.set_link(name, other, local)
        self.peps = []
        for index in range(self.PEPS):
            pep = PolicyEnforcementPoint(
                f"pep-{index}", network, config=PepConfig(decision_cache_ttl=0.0)
            )
            pep.enable_batching(
                max_batch=PEP_BATCH, max_delay=FLUSH_DELAY, gateway=self.gateway
            )
            self.peps.append(pep)
        self.network = network

    def streams(self, count: int, phase_seed: int) -> list[list[RequestContext]]:
        per_pep = max(1, count // self.PEPS)
        return [
            list(
                self.population.request_contexts(
                    per_pep, seed=f"{phase_seed}:{index}"
                )
            )
            for index in range(self.PEPS)
        ]

    def phase(self, count: int, phase_seed: int) -> Phase:
        return self.drive(self.streams(count, phase_seed))

    def check(self, phase: Phase) -> dict:
        reference = Reference(self.policies, self.population.attribute_resolver())
        mismatches = 0
        for request, decision, source, _ in phase.outcomes:
            if source != "pdp":
                continue
            if decision is not reference.decision(request):
                mismatches += 1
        return {"mismatches": mismatches, "checked": len(phase.outcomes)}

    def layer_counts(self) -> dict:
        gateway = self.gateway
        served = [pdp.batched_decisions for pdp in self.pdps]
        partitions = [pdp.partition.stats for pdp in self.pdps]
        return {
            "envelopes": gateway.super_batches_sent,
            "failovers": gateway.failovers,
            "requests_ingested": gateway.requests_ingested,
            "deduplicated": gateway.cross_pep_deduplicated,
            "replica_decisions": served,
            "partition_lookups": sum(stats.lookups for stats in partitions),
            "partition_faults": sum(stats.faults for stats in partitions),
            "refreshes": sum(pdp.policy_fetches for pdp in self.pdps),
        }


class LargeStore(Workload):
    """One unsharded PDP holding a 5k-policy mined corpus, no network."""

    name = "pdp_large_store"
    SUBJECTS = 1_000_000
    RESOURCES = 1_000
    POLICIES = 5_000
    BATCH = 8
    #: Requests per phase checked against the unindexed reference.  A
    #: reference decision scans all 5k policies (~0.1 s each), so the
    #: check covers an evenly spread sample of distinct requests.
    REFERENCE_SAMPLE = 32

    def build(self) -> None:
        self.population = Population(
            PopulationSpec(
                subjects=self.SUBJECTS, resources=self.RESOURCES, seed=self.seed
            )
        )
        self.policies = self.population.policy_set(policies=self.POLICIES)
        self.network = Network(seed=self.seed)
        self.pdp = PolicyDecisionPoint(
            "pdp",
            self.network,
            attribute_resolver=self.resolver(
                self.population.attribute_resolver()
            ),
        )
        for policy in self.policies:
            self.pdp.add_local_policy(policy)

    def phase(self, count: int, phase_seed: int) -> Phase:
        requests = list(self.population.request_contexts(count, seed=phase_seed))
        batches = [
            requests[start:start + self.BATCH]
            for start in range(0, len(requests), self.BATCH)
        ]
        phase = Phase(sent=len(requests))
        samples = phase.eval_batch_s
        evaluate = self.pdp.evaluate_batch
        clock = CALL_CLOCK
        results = []
        per_chunk = CHUNK // self.BATCH
        per_probe = PROBE_EVERY // self.BATCH
        with self.timed(phase):
            for index, batch in enumerate(batches, start=1):
                started = clock()
                responses = evaluate(batch)
                samples.append(clock() - started)
                results.append(responses)
                if index % per_probe == per_probe // 2:
                    self.probe.sample()
                if index % per_chunk == 0:
                    self.mark(phase)
        for batch, responses in zip(batches, results, strict=True):
            for request, response in zip(batch, responses, strict=True):
                phase.outcomes.append((request, response.decision, "pdp", 0.0))
        phase.decisions = len(phase.outcomes)
        phase.succeeded = sum(
            1 for _, decision, _, _ in phase.outcomes
            if decision is not Decision.INDETERMINATE
        )
        phase.failed = phase.sent - phase.succeeded
        return phase

    def check(self, phase: Phase) -> dict:
        reference = Reference(self.policies, self.population.attribute_resolver())
        return sampled_check(
            ((request, decision) for request, decision, _, _ in phase.outcomes),
            reference.decision,
            self.REFERENCE_SAMPLE,
        )

    def layer_counts(self) -> dict:
        return {"refreshes": self.pdp.policy_fetches}


class FederatedChurn(FabricWorkload):
    """Two federated domains, remote-decision cache + coherence, writes."""

    name = "federated_churn"
    DOMAINS = ("dom0", "dom1")
    SUBJECTS = 100_000
    RESOURCES_PER_DOMAIN = 100
    POLICIES_PER_DOMAIN = 500
    REPLICAS = 2
    PEPS_PER_DOMAIN = 2
    REMOTE_FRACTION = 0.5
    REMOTE_CACHE_TTL = 1.0
    FORWARD_DELAY = 0.008
    #: One write (a policy revision plus a revocation) per this many
    #: completed decisions.  A fixed write-to-read ratio keeps the CPU
    #: split between the read path and the refresh path the same for
    #: every seed; it is sized so that neither takes under about a
    #: quarter of the traced CPU time.
    DECISIONS_PER_WRITE = 1000
    #: Grants of a revoked subject completing later than this after the
    #: revocation are stale grants (one push propagation plus in-flight
    #: round-trip slack, as in E18c).
    COHERENCE_WINDOW = 0.1
    #: Distinct non-revoked requests per phase checked against the
    #: unindexed reference (a reference decision scans 500 policies).
    REFERENCE_SAMPLE = 400

    def build(self) -> None:
        seed = self.seed
        self.vo_population = Population(
            PopulationSpec(subjects=self.SUBJECTS, seed=seed, domain="vo")
        )
        resolver = self.vo_population.attribute_resolver()
        traced_resolver = self.resolver(resolver)
        network = Network(seed=seed)
        directory = ResourceDirectory()
        local = Link(latency=INTRA_DOMAIN_LATENCY)
        remote = Link(latency=INTER_DOMAIN_LATENCY)
        pap_link = Link(latency=INTRA_DOMAIN_LATENCY, bandwidth=PAP_BANDWIDTH)
        bus = InvalidationBus(network)
        self.authority = RevocationAuthority("authority.vo", network, bus=bus)
        self.resources: dict[str, Population] = {}
        self.policies: dict[str, list] = {}
        self.paps: dict[str, PolicyAdministrationPoint] = {}
        self.pdps: list[PolicyDecisionPoint] = []
        self.gateways: list[FederatedGateway] = []
        self.agents: list[CoherenceAgent] = []
        self.peps = []
        self.pep_domain: dict[str, str] = {}
        for offset, name in enumerate(self.DOMAINS):
            resources = Population(
                PopulationSpec(
                    subjects=1,
                    resources=self.RESOURCES_PER_DOMAIN,
                    seed=seed * 10 + offset + 1,
                    domain=name,
                )
            )
            self.resources[name] = resources
            policies = resources.policy_set(policies=self.POLICIES_PER_DOMAIN)
            self.policies[name] = policies
            for index in range(self.RESOURCES_PER_DOMAIN):
                directory.register(resources.resource_id(index), name)
            pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
            for policy in policies:
                pap.publish(policy)
            self.paps[name] = pap
            replicas = []
            for index in range(self.REPLICAS):
                pdp = PolicyDecisionPoint(
                    f"pdp-{index}.{name}",
                    network,
                    domain=name,
                    pap_address=pap.name,
                    config=PdpConfig(
                        policy_cache_ttl=3600.0,
                        envelope_overhead=ENVELOPE_OVERHEAD,
                        decision_service_time=DECISION_SERVICE_TIME,
                    ),
                    attribute_resolver=traced_resolver,
                )
                network.set_link(pdp.name, pap.name, pap_link)
                pdp.subscribe_to_policy_changes()
                self.timer.attach(pdp)
                replicas.append(pdp)
            self.pdps.extend(replicas)
            replica_names = [pdp.name for pdp in replicas]
            hub = FederatedGateway(
                f"gateway.{name}",
                network,
                DecisionDispatcher(replica_names, policy="least-outstanding"),
                domain=name,
                resolve_domain=directory.resolver(),
                max_batch=max(
                    PEP_BATCH, self.PEPS_PER_DOMAIN * PEP_WINDOW // self.REPLICAS
                ),
                max_delay=FLUSH_DELAY,
                forward_delay=self.FORWARD_DELAY,
                remote_cache_ttl=self.REMOTE_CACHE_TTL,
            )
            for replica in replica_names:
                network.set_link(hub.name, replica, local)
            agent = CoherenceAgent(
                f"coherence.{name}",
                network,
                self.authority.name,
                PushStrategy(bus),
                domain=name,
            )
            agent.protect_gateway(hub)
            self.agents.append(agent)
            self.gateways.append(hub)
            for index in range(self.PEPS_PER_DOMAIN):
                pep = PolicyEnforcementPoint(
                    f"pep-{index}.{name}",
                    network,
                    domain=name,
                    config=PepConfig(decision_cache_ttl=0.0),
                )
                pep.enable_batching(
                    max_batch=PEP_BATCH, max_delay=FLUSH_DELAY, gateway=hub
                )
                self.peps.append(pep)
                self.pep_domain[pep.name] = name
        for origin in self.gateways:
            for target in self.gateways:
                if origin is not target:
                    origin.add_peer(target.domain, target.name)
                    target.allow_origin(origin.domain, origin.name)
                    network.set_link(origin.name, target.name, remote)
        self.network = network
        self.directory = directory
        #: One audit per (revoked subject, revoking domain).
        self.audits: dict[tuple, StalenessAudit] = {}
        self.writes = 0

    def streams(self, count: int, phase_seed: int) -> list[list[RequestContext]]:
        per_pep = max(1, count // len(self.peps))
        out = []
        for pep in self.peps:
            home = self.pep_domain[pep.name]
            others = [name for name in self.DOMAINS if name != home]
            subjects = self.vo_population.events(
                per_pep, seed=f"{phase_seed}:{pep.name}:subjects"
            )
            homes = self.resources[home].events(
                per_pep, seed=f"{phase_seed}:{pep.name}:home"
            )
            aways = [
                self.resources[name].events(
                    per_pep, seed=f"{phase_seed}:{pep.name}:{name}"
                )
                for name in others
            ]
            rng = random.Random(f"{self.seed}:{phase_seed}:{pep.name}:mix")
            stream = []
            for _ in range(per_pep):
                subject = next(subjects)
                local = next(homes)
                remote = [next(events) for events in aways]
                event = (
                    remote[rng.randrange(len(remote))]
                    if rng.random() < self.REMOTE_FRACTION
                    else local
                )
                stream.append(
                    RequestContext.simple(
                        subject.subject_id, event.resource_id, event.action_id
                    )
                )
            out.append(stream)
        return out

    def governing(self, request: RequestContext) -> str:
        return self.directory.resolver()(request)

    def revoke(self, subject_id: str, domain: str) -> None:
        """One write: ``domain``'s PAP publishes a revision denying the
        subject its resources, and the VO authority revokes the subject
        (pushing invalidations to every gateway's remote-decision cache).
        """
        audit = StalenessAudit(subject_id, self.COHERENCE_WINDOW)
        audit.mark_revoked(self.network.now)
        self.audits[(subject_id, domain)] = audit
        self.paps[domain].publish(
            Policy(
                policy_id=f"revoked-{subject_id}",
                target=subject_resource_action_target(subject_id=subject_id),
                rules=(deny_rule("revoked"),),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        )
        self.authority.registry.revoke_subject_access(subject_id)
        self.writes += 1

    def audit_for(self, request: RequestContext, at: float):
        """The staleness audit an outcome falls under, if any: its subject
        was revoked in the governing domain before it completed."""
        audit = self.audits.get((request.subject_id, self.governing(request)))
        if audit is not None and at >= audit.revoked_at:
            return audit
        return None

    def phase(self, count: int, phase_seed: int) -> Phase:
        streams = self.streams(count, phase_seed)
        # Hot subjects first: the most frequent not-yet-revoked
        # subjects of this phase's own stream, in a fixed order.
        revoked = {subject for subject, _ in self.audits}
        frequency = Counter(
            request.subject_id for stream in streams for request in stream
        )
        targets = [
            subject
            for subject, _ in sorted(
                frequency.items(), key=lambda item: (-item[1], item[0])
            )
            if subject not in revoked
        ]
        state = {"completed": 0, "writes": 0}
        loop = self.network.loop

        @self.harness
        def write() -> None:
            domain = self.DOMAINS[self.writes % len(self.DOMAINS)]
            self.revoke(targets[state["writes"]], domain)
            state["writes"] += 1

        def on_outcome(pep, request, result) -> None:
            state["completed"] += 1
            audit = self.audits.get(
                (request.subject_id, self.governing(request))
            )
            if audit is not None:
                audit(pep, request, result)
            # Writes fall mid-interval (at 1/2, 3/2, ... of the ratio),
            # never on a phase's last completion where no read follows.
            if (
                state["completed"] % self.DECISIONS_PER_WRITE
                == self.DECISIONS_PER_WRITE // 2
            ):
                loop.schedule(0.0, write, label="bench-write")

        writes_before = self.writes
        phase = self.drive(streams, on_outcome)
        phase.extra["writes"] = self.writes - writes_before
        return phase

    def check(self, phase: Phase) -> dict:
        resolver = self.vo_population.attribute_resolver()
        references = {
            name: Reference(self.policies[name], resolver) for name in self.DOMAINS
        }
        unrevoked = [
            (request, decision)
            for request, decision, source, at in phase.outcomes
            if source == "pdp" and self.audit_for(request, at) is None
        ]
        result = sampled_check(
            unrevoked,
            lambda request: references[self.governing(request)].decision(request),
            self.REFERENCE_SAMPLE,
        )
        result["revoked_outcomes"] = len(phase.outcomes) - len(unrevoked)
        return result

    def stale_grants(self) -> int:
        """Grants of revoked subjects completed after the coherence window."""
        return sum(audit.violation_count for audit in self.audits.values())

    def layer_counts(self) -> dict:
        hits = sum(hub.remote_cache_hits for hub in self.gateways)
        return {
            "envelopes": sum(
                hub.super_batches_sent + hub.forwarded_batches_sent
                for hub in self.gateways
            ),
            "failovers": sum(hub.failovers for hub in self.gateways),
            "requests_ingested": sum(hub.requests_ingested for hub in self.gateways),
            "deduplicated": sum(
                hub.cross_pep_deduplicated for hub in self.gateways
            ),
            "replica_decisions": [pdp.batched_decisions for pdp in self.pdps],
            "remote_cache_hits": hits,
            "requests_forwarded": sum(
                hub.requests_forwarded for hub in self.gateways
            ),
            "refreshes": sum(pdp.policy_fetches for pdp in self.pdps),
            "invalidations": sum(
                agent.remote_entries_invalidated for agent in self.agents
            ),
            "writes": self.writes,
        }


WORKLOADS = {
    cls.name: cls for cls in (DomainGateway, LargeStore, FederatedChurn)
}
