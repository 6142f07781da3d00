"""Property-based fault-injection tests: dependability invariants.

Invariants (hypothesis-driven):

* **fail-safe**: under any schedule of PDP crashes/recoveries, an
  unauthorised subject is never granted access;
* **determinism**: the same seed reproduces the same simulation
  byte-for-byte (message and byte counts), which is what makes every
  experiment in EXPERIMENTS.md repeatable.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core import AccessControlSystem, SystemConfig
from repro.domain import build_federation
from repro.saml import assertions, xacml_profile
from repro.simnet import FailureInjector, Network
from repro.simnet import message as simnet_message
from repro.wss import KeyStore, pki
from repro.xacml import (
    Policy,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)


def db_policy():
    return Policy(
        policy_id="p",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="db"),
    )


crash_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),      # replica index
        st.floats(min_value=0.5, max_value=8.0),    # crash time
        st.floats(min_value=0.5, max_value=4.0),    # downtime
    ),
    max_size=6,
)


class TestFailSafeInvariant:
    @given(crash_schedules)
    @settings(max_examples=20, deadline=None)
    def test_no_crash_schedule_grants_unauthorised_access(self, schedule):
        network = Network(seed=5)
        keystore = KeyStore(seed=5)
        vo, _ = build_federation("vo", ["acme"], network, keystore)
        system = AccessControlSystem(
            vo.domain("acme"),
            config=SystemConfig(pdp_replicas=3, heartbeat_period=0.3),
        )
        system.protect("db")
        system.publish_policy(db_policy())
        injector = FailureInjector(network, seed=5)
        addresses = system.cluster.addresses
        for replica_index, at, downtime in schedule:
            if at > network.now:
                injector.crash_for(addresses[replica_index], at=at, duration=downtime)
        for _ in range(10):
            network.run(until=network.now + 1.0)
            assert not system.authorize("eve", "db", "read").granted
        # Authorised access may be temporarily denied (fail-safe) but the
        # audit must never contain a grant for eve.
        assert system.audit.subjects_touching("db") <= {"alice"}

    @given(crash_schedules)
    @settings(max_examples=10, deadline=None)
    def test_single_pdp_never_fails_open(self, schedule):
        network = Network(seed=6)
        keystore = KeyStore(seed=6)
        vo, _ = build_federation("vo", ["acme"], network, keystore)
        system = AccessControlSystem(vo.domain("acme"))
        system.protect("db")
        system.publish_policy(db_policy())
        injector = FailureInjector(network, seed=6)
        pdp_name = vo.domain("acme").pdp.name
        for _, at, downtime in schedule:
            if at > network.now:
                injector.crash_for(pdp_name, at=at, duration=downtime)
        for _ in range(8):
            network.run(until=network.now + 1.0)
            assert not system.authorize("eve", "db", "read").granted


#: Process-wide id counters (and certificate serials).  Ids are embedded
#: in messages, so a longer id is a longer message: two runs compare
#: byte counts only if they start from the same counter values.
ID_COUNTERS = (
    (simnet_message, "_message_ids"),
    (xacml_profile, "_query_ids"),
    (xacml_profile, "_batch_ids"),
    (assertions, "_assertion_ids"),
    (pki, "_serials"),
)


def rewind_id_counters():
    """Pin every id counter at its current value; return a function
    that puts them all back there."""
    starts = [next(getattr(module, name)) for module, name in ID_COUNTERS]

    def rewind():
        for (module, name), start in zip(ID_COUNTERS, starts, strict=True):
            setattr(module, name, itertools.count(start))

    rewind()
    return rewind


class TestDeterminism:
    def run_once(self, seed):
        network = Network(seed=seed)
        keystore = KeyStore(seed=seed)
        vo, _ = build_federation("vo", ["acme"], network, keystore)
        system = AccessControlSystem(
            vo.domain("acme"), config=SystemConfig(pdp_replicas=2)
        )
        system.protect("db")
        system.publish_policy(db_policy())
        injector = FailureInjector(network, seed=seed)
        injector.random_crash_process(
            system.cluster.addresses, horizon=10.0, mtbf=3.0, mttr=1.0
        )
        outcomes = []
        for _ in range(10):
            network.run(until=network.now + 1.0)
            outcomes.append(system.authorize("alice", "db", "read").granted)
        return (
            tuple(outcomes),
            network.metrics.messages_sent,
            network.metrics.bytes_sent,
        )

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=5, deadline=None)
    def test_same_seed_same_world(self, seed):
        rewind = rewind_id_counters()
        first = self.run_once(seed)
        rewind()
        assert first == self.run_once(seed)
