"""E14 — §3.1: scaling to large user and resource bases.

Paper claims: authorisation must "scale to large user and resource bases"
and "defining access control rules based on individual identities is not
efficient and often not viable" — attribute/role-based policies are the
scalable alternative.  The experiment (a) sweeps the policy count and
compares indexed vs linear policy stores, and (b) compares per-identity
policies against one role-based policy as the user base grows.
"""

import time

from repro.bench import Experiment
from repro.components import AttributeStore
from repro.models import RbacModel
from repro.xacml import (
    Category,
    Decision,
    PdpEngine,
    Policy,
    PolicyStore,
    RequestContext,
    SUBJECT_ROLE,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)

POLICY_SWEEP = (10, 100, 1000)
USER_SWEEP = (10, 100, 1000)


def resource_policy(index):
    return Policy(
        policy_id=f"policy-{index}",
        rules=(
            permit_rule(
                "allow",
                subject_resource_action_target(subject_id=f"owner-{index}"),
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id=f"res-{index}"),
    )


def timed_decisions(engine, requests):
    start = time.perf_counter()
    for request in requests:
        engine.decide(request)
    return time.perf_counter() - start


def test_e14_target_indexing(benchmark):
    experiment = Experiment(
        exp_id="E14a",
        title="PDP evaluation vs policy count: indexed vs linear store",
        paper_claim="an indexed policy store keeps per-decision work flat "
        "as the policy base grows; linear scan degrades",
        columns=[
            "policies",
            "indexed_considered",
            "linear_considered",
            "indexed_ms_per_100",
            "linear_ms_per_100",
        ],
    )
    ratios = {}
    for count in POLICY_SWEEP:
        indexed = PdpEngine(PolicyStore(indexed=True))
        linear = PdpEngine(PolicyStore(indexed=False))
        for index in range(count):
            indexed.add_policy(resource_policy(index))
            linear.add_policy(resource_policy(index))
        requests = [
            RequestContext.simple(f"owner-{i % count}", f"res-{i % count}", "read")
            for i in range(100)
        ]
        indexed_time = timed_decisions(indexed, requests)
        linear_time = timed_decisions(linear, requests)
        indexed_considered = indexed.evaluate(requests[0]).stats.policies_considered
        linear_considered = linear.evaluate(requests[0]).stats.policies_considered
        ratios[count] = linear_time / max(indexed_time, 1e-9)
        experiment.add_row(
            count,
            indexed_considered,
            linear_considered,
            round(indexed_time * 1000, 2),
            round(linear_time * 1000, 2),
        )
        # Correctness under indexing, spot-checked.
        for request in requests[:10]:
            assert indexed.decide(request) == linear.decide(request)
        assert indexed_considered == 1
        assert linear_considered == count
    experiment.show()

    # Shape: the linear/indexed gap widens with the policy base.
    assert ratios[1000] > ratios[10]
    assert ratios[1000] > 5

    big = PdpEngine(PolicyStore(indexed=True))
    for index in range(1000):
        big.add_policy(resource_policy(index))
    hot = RequestContext.simple("owner-500", "res-500", "read")
    benchmark(lambda: big.decide(hot))


def indexed_us_per_decision(count, trials=5):
    """Best-of-``trials`` wall µs per indexed decision at ``count``
    policies, over 200 requests that each hit one policy."""
    engine = PdpEngine(PolicyStore(indexed=True))
    for index in range(count):
        engine.add_policy(resource_policy(index))
    requests = [
        RequestContext.simple(f"owner-{i % count}", f"res-{i % count}", "read")
        for i in range(200)
    ]
    timed_decisions(engine, requests)  # warm-up
    best = min(timed_decisions(engine, requests) for _ in range(trials))
    return best / len(requests) * 1e6


def test_e14_indexed_cost_flat_in_wall_clock():
    """The index's claim in real time, not just in policies considered:
    a decision against 5000 policies costs about what it costs against
    10.  Both figures come from one process, so the ratio holds on any
    machine."""
    small = indexed_us_per_decision(10)
    large = indexed_us_per_decision(5000)
    print(f"\nE14c indexed us/decision: 10 policies {small:.1f}, "
          f"5000 policies {large:.1f} (ratio {large / small:.2f})")
    assert large <= 1.5 * small


def test_e14_identity_vs_role_policies(benchmark):
    experiment = Experiment(
        exp_id="E14b",
        title="Per-identity rules vs one role policy as users grow",
        paper_claim="identity-based rules are 'not efficient and often not "
        "viable' at scale; attribute-based policies stay O(1)",
        columns=["users", "identity_rules", "identity_bytes", "role_rules", "role_bytes"],
    )
    from repro.xacml import serialize_policy

    for users in USER_SWEEP:
        identity_policy = Policy(
            policy_id=f"identity-{users}",
            rules=tuple(
                permit_rule(
                    f"user-{index}",
                    subject_resource_action_target(subject_id=f"user-{index}"),
                )
                for index in range(users)
            )
            + (deny_rule("rest"),),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="dataset"),
        )
        role_policy = Policy(
            policy_id=f"role-{users}",
            rules=(
                permit_rule(
                    "members",
                    condition=attribute_equals(
                        Category.SUBJECT, SUBJECT_ROLE, string("member")
                    ),
                ),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="dataset"),
        )
        identity_bytes = len(serialize_policy(identity_policy).encode())
        role_bytes = len(serialize_policy(role_policy).encode())
        experiment.add_row(
            users,
            len(identity_policy.rules),
            identity_bytes,
            len(role_policy.rules),
            role_bytes,
        )
        # Same decisions for members either way.
        engine_identity = PdpEngine()
        engine_identity.add_policy(identity_policy)
        engine_role = PdpEngine()
        engine_role.add_policy(role_policy)
        request = RequestContext.simple(
            "user-3",
            "dataset",
            "read",
            subject_attributes={SUBJECT_ROLE: [string("member")]},
        )
        assert engine_identity.decide(request) is Decision.PERMIT
        assert engine_role.decide(request) is Decision.PERMIT
        # Shape: identity policy grows linearly; role policy is constant.
        assert role_bytes < 2000
        assert identity_bytes > users * 100
    experiment.show()

    benchmark(
        lambda: len(serialize_policy(
            Policy(
                policy_id="bench-role",
                rules=(
                    permit_rule(
                        "members",
                        condition=attribute_equals(
                            Category.SUBJECT, SUBJECT_ROLE, string("member")
                        ),
                    ),
                    deny_rule("rest"),
                ),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        ).encode())
    )


def test_e14_rbac_closure_scales(benchmark):
    """Role hierarchies keep user-side state small: permissions come from
    the closure, not from per-user rules."""
    model = RbacModel("big")
    depth = 20
    for level in range(depth):
        model.add_role(f"level-{level}")
        model.grant_permission(f"level-{level}", f"res-{level}", "read")
        if level:
            model.add_inheritance(f"level-{level}", f"level-{level - 1}")
    model.assign_user("ceo", f"level-{depth - 1}")
    assert len(model.user_permissions("ceo")) == depth
    assert len(model.assigned_roles("ceo")) == 1
    store = AttributeStore()
    model.populate_pip(store)
    from repro.xacml import DataType

    roles = store.lookup(
        Category.SUBJECT, SUBJECT_ROLE, "ceo", DataType.STRING, 0.0
    )
    assert len(roles) == depth  # full closure materialised once, centrally

    benchmark(lambda: model.user_permissions("ceo"))
