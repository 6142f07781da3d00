"""Policy bundle sync: the PAP's fragment cache and the PDP's reuse.

The PAP encodes each repository entry once and joins cached fragments;
the PDP reparses only fragments whose exact text it did not see in its
previous bundle.  Both must be invisible on the wire and in decisions:

* the decoder is differential-tested against the former scanner (kept
  here as the oracle), on clean corpora and on mutated bundles.  The one
  intended divergence is that content between or after the elements is
  now an error where the oracle silently dropped the rest;
* retrieve bytes equal a fresh encoding of the repository's elements;
* a one-policy write costs one ``parse_policy`` on refresh, and the
  rebuilt store decides like a cold parse;
* every refresh and publish failure is a counted fault, never an
  exception escaping ``network.run``.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.components.pap as pap_module
from repro.components import (
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    parse_bundle,
    serialize_bundle,
)
from repro.components.base import Component, RpcFault
from repro.simnet import Network
from repro.workloads import Population, PopulationSpec
from repro.xacml import (
    Decision,
    Policy,
    PolicyReference,
    RequestContext,
    combining,
    deny_rule,
    parse_policy,
    permit_rule,
    policy_set_of,
    serialize_policy,
    subject_resource_action_target,
)

# -- the oracle --------------------------------------------------------------------------


def reference_parse_bundle(xml_text):
    """The bundle decoder as it was before fragment reuse: re-slices the
    remainder for every element and stops silently at the first content
    that is not an element."""
    match = re.match(
        r'<PolicyBundle revision="(\d+)">(.*)</PolicyBundle>$', xml_text, re.DOTALL
    )
    if match is None:
        raise ValueError("not a PolicyBundle")
    revision = int(match.group(1))
    inner = match.group(2)
    elements = []
    position = 0
    while position < len(inner):
        open_match = re.match(r"<(Policy|PolicySet)[ >]", inner[position:])
        if open_match is None:
            break
        tag = open_match.group(1)
        depth = 0
        cursor = position
        token = re.compile(f"<{tag}[ >]|</{tag}>")
        while True:
            next_token = token.search(inner, cursor)
            if next_token is None:
                raise ValueError(f"unbalanced <{tag}> in bundle")
            if next_token.group(0).startswith(f"</{tag}"):
                depth -= 1
            else:
                depth += 1
            cursor = next_token.end()
            if next_token.group(0).startswith(f"</{tag}") and depth == 0:
                break
        end = inner.find(">", cursor - 1) + 1 if inner[cursor - 1] != ">" else cursor
        elements.append(parse_policy(inner[position:end]))
        position = end
    return elements, revision


def outcome(decode, text):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", decode(text))
    except Exception as exc:  # the differential compares any error
        return ("error", type(exc), str(exc))


# -- corpora -----------------------------------------------------------------------------


def population_corpus(seed, count, mined):
    population = Population(PopulationSpec(subjects=200, resources=12, seed=seed))
    return population.policy_set(count if mined else None)


@st.composite
def corpora(draw):
    """Population policy sets, some of them grouped into nested sets."""
    policies = population_corpus(
        draw(st.integers(0, 20)), draw(st.integers(1, 24)), draw(st.booleans())
    )
    elements = []
    index = 0
    while index < len(policies):
        take = draw(st.integers(1, 4))
        group = list(policies[index:index + take])
        index += take
        if len(group) > 1 and draw(st.booleans()):
            inner = policy_set_of(f"inner-{index}", group[1:])
            children = [group[0], inner, PolicyReference(f"elsewhere-{index}")]
            elements.append(
                policy_set_of(
                    f"outer-{index}",
                    children,
                    policy_combining=combining.POLICY_FIRST_APPLICABLE,
                )
            )
        else:
            elements.extend(group)
    return elements


#: Inserted by the mutation strategy: markup the scanner keys on, and
#: the between-element content the oracle dropped silently.
INSERTS = [
    " ", "\n", "<!-- note -->", "junk", "<Policy ", "<Policy>", "</Policy>",
    "<PolicySet ", "</PolicySet>", "<Policy/>", "<PolicyBundle", "</PolicyBundle>",
    'RuleCombiningAlgId="urn:bogus"', "&amp;", ">",
]


@st.composite
def mutated_bundles(draw):
    elements = draw(corpora())
    bundle = serialize_bundle(elements, draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["insert", "delete", "truncate", "swap-ids"]))
    at = draw(st.integers(0, len(bundle)))
    if kind == "insert":
        mutated = bundle[:at] + draw(st.sampled_from(INSERTS)) + bundle[at:]
    elif kind == "delete":
        mutated = bundle[:at] + bundle[at + draw(st.integers(1, 40)):]
    elif kind == "truncate":
        mutated = bundle[:at]
    else:
        mutated = bundle.replace('PolicyId="mined', 'PolicyId="x', 1)
    return bundle, mutated


class TestDecoderDifferential:
    @settings(max_examples=60, deadline=None)
    @given(corpora(), st.integers(0, 10**9))
    def test_clean_bundles_decode_like_the_oracle(self, elements, revision):
        bundle = serialize_bundle(elements, revision)
        expected = reference_parse_bundle(bundle)
        assert expected == (elements, revision)
        assert parse_bundle(bundle) == expected
        memo = {}
        assert parse_bundle(bundle, memo) == expected
        assert len(memo) == len({serialize_policy(e) for e in elements})
        assert parse_bundle(bundle, memo) == expected  # every fragment reused

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutated_bundles())
    def test_mutated_bundles_decode_like_the_oracle(self, pair):
        original, mutated = pair
        expected = outcome(reference_parse_bundle, mutated)
        cold = outcome(parse_bundle, mutated)
        warm_memo = {}
        parse_bundle(original, warm_memo)
        warm = outcome(lambda text: parse_bundle(text, warm_memo), mutated)
        assert warm == cold
        if cold[0] == "error" and cold[2].startswith("unexpected content"):
            # The truncation fix: the oracle returned a shorter policy
            # set for the same text.
            assert cold[1] is ValueError
            assert expected[0] == "ok"
            return
        assert cold == expected


class TestTruncationIsAnError:
    @pytest.mark.parametrize(
        "between",
        [" ", "\n", "<!-- comment -->", "junk", "<Other/>"],
    )
    def test_content_between_elements_is_rejected(self, between):
        first, second = population_corpus(1, 2, mined=True)
        bundle = (
            '<PolicyBundle revision="4">'
            + serialize_policy(first)
            + between
            + serialize_policy(second)
            + "</PolicyBundle>"
        )
        assert reference_parse_bundle(bundle)[0] == [first]  # the old hole
        with pytest.raises(ValueError, match="unexpected content"):
            parse_bundle(bundle)

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_content_around_elements_is_rejected(self, where):
        [policy] = population_corpus(1, 1, mined=True)
        fragment = serialize_policy(policy)
        inner = " " + fragment if where == "before" else fragment + " "
        with pytest.raises(ValueError, match="unexpected content"):
            parse_bundle(f'<PolicyBundle revision="1">{inner}</PolicyBundle>')

    def test_failed_decode_leaves_the_memo_alone(self):
        policies = population_corpus(2, 3, mined=True)
        memo = {}
        parse_bundle(serialize_bundle(policies, 1), memo)
        before = dict(memo)
        broken = serialize_bundle(policies, 2).replace("</Policy><Policy", "</Policy> <Policy")
        with pytest.raises(ValueError):
            parse_bundle(broken, memo)
        assert memo == before


# -- PAP: fragment cache -----------------------------------------------------------------


def variant(policy, generation):
    """Same policy id, different text."""
    return Policy(
        policy_id=policy.policy_id,
        target=policy.target,
        rules=policy.rules + (deny_rule(f"extra-{generation}"),),
        rule_combining=policy.rule_combining,
    )


class TestPapFragmentCache:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["publish", "replace", "withdraw"]),
                st.integers(0, 9),
            ),
            max_size=25,
        )
    )
    def test_retrieve_bytes_equal_a_fresh_encoding(self, operations):
        network = Network()
        pap = PolicyAdministrationPoint("pap", network)
        client = Component("client", network)
        pool = population_corpus(3, 10, mined=True)
        for generation, (operation, index) in enumerate(operations):
            policy = pool[index]
            if operation == "publish":
                pap.publish(policy)
            elif operation == "replace":
                pap.publish(variant(policy, generation))
            else:
                pap.withdraw(policy.policy_id)
            reply = client.call("pap", "pap.retrieve", "<PapQuery/>")
            assert reply.payload == serialize_bundle(
                pap.repository.all_elements(), pap.repository.revision
            )

    def test_publish_does_not_encode(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            pap_module,
            "serialize_policy",
            lambda element: calls.append(element) or serialize_policy(element),
        )
        pap = PolicyAdministrationPoint("pap", Network())
        for policy in population_corpus(4, 5, mined=True):
            pap.publish(policy)
        assert calls == []
        pap._handle_retrieve(None)
        pap._handle_retrieve(None)
        assert len(calls) == 5


# -- PDP: fragment reuse -----------------------------------------------------------------


def build_domain(count=30):
    network = Network()
    population = Population(PopulationSpec(subjects=200, resources=12, seed=5))
    pap = PolicyAdministrationPoint("pap", network)
    for policy in population.policy_set(count):
        pap.publish(policy)
    pdp = PolicyDecisionPoint(
        "pdp",
        network,
        pap_address="pap",
        attribute_resolver=population.attribute_resolver(),
    )
    return network, population, pap, pdp


def count_parses(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_policy(text)

    monkeypatch.setattr(pap_module, "parse_policy", counting)
    return calls


def refresh(pdp):
    pdp.invalidate_policy_cache()
    pdp._ensure_policies()


def decisions(pdp, requests):
    return [pdp.evaluate(request).decision for request in requests]


class TestPdpFragmentReuse:
    def test_one_policy_write_reparses_one_fragment(self, monkeypatch):
        network, population, pap, pdp = build_domain()
        calls = count_parses(monkeypatch)
        refresh(pdp)
        assert len(calls) == 30
        target = population.policy_set(30)[7]
        pap.publish(variant(target, 1))
        calls.clear()
        refresh(pdp)
        assert len(calls) == 1
        assert f'PolicyId="{target.policy_id}"' in calls[0]
        assert pdp.engine.store.get(target.policy_id) == variant(target, 1)
        # A withdraw reparses nothing; the memo forgets the gone fragment.
        pap.withdraw(target.policy_id)
        calls.clear()
        refresh(pdp)
        assert calls == []
        assert len(pdp._fragment_memo) == len(pap.repository) == 29

    def test_rebuilt_store_decides_like_a_cold_parse(self):
        network, population, pap, warm = build_domain()
        requests = list(population.request_contexts(200, seed=3))
        decisions(warm, requests)
        corpus = population.policy_set(30)
        for generation, index in enumerate((3, 11, 3, 20)):
            pap.publish(variant(corpus[index], generation))
        pap.withdraw(corpus[5].policy_id)
        warm.invalidate_policy_cache()
        cold = PolicyDecisionPoint(
            "cold",
            network,
            pap_address="pap",
            attribute_resolver=population.attribute_resolver(),
        )
        assert decisions(warm, requests) == decisions(cold, requests)
        assert warm.engine.store.elements() == cold.engine.store.elements()

    def test_same_id_new_text_is_reparsed(self, monkeypatch):
        network, population, pap, pdp = build_domain(count=3)
        refresh(pdp)
        calls = count_parses(monkeypatch)
        original = population.policy_set(3)[0]
        changed = Policy(
            policy_id=original.policy_id,
            target=original.target,
            rules=(deny_rule("deny-all"),),
            rule_combining=original.rule_combining,
            version=original.version,
        )
        pap.publish(changed)
        refresh(pdp)
        assert len(calls) == 1
        assert pdp.engine.store.get(original.policy_id) == changed


# -- fail-closed refresh -----------------------------------------------------------------


def alice_policy():
    return Policy(
        policy_id="p",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def batched_env():
    network = Network()
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(alice_policy())
    pdp = PolicyDecisionPoint(
        "pdp", network, pap_address="pap", config=PdpConfig(policy_cache_ttl=0.0)
    )
    pep = PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp", config=PepConfig(pdp_timeout=5.0)
    )
    pep.enable_batching(max_batch=4, max_delay=0.01)
    return network, pap, pdp, pep


def submit_alice(network, pep):
    done = []
    pep.submit(RequestContext.simple("alice", "doc", "read"), done.append)
    network.run(until=network.now + 20.0)
    assert len(done) == 1
    return done[0]


def serve(pap, kind, payload):
    pap.on(kind, lambda message: payload)


def busy(message):
    raise RpcFault("pap:busy", "later")


BROKEN_REFRESHES = {
    "pap-crashed": lambda pap: pap.crash(),
    "pap-faults": lambda pap: pap.on("pap.revision", busy),
    "garbage-revision": lambda pap: serve(pap, "pap.revision", "<nope/>"),
    "garbage-bundle": lambda pap: (
        serve(pap, "pap.revision", '<PapRevision value="99"/>'),
        serve(pap, "pap.retrieve", "garbage"),
    ),
    "unparsable-policy": lambda pap: (
        serve(pap, "pap.revision", '<PapRevision value="99"/>'),
        serve(
            pap,
            "pap.retrieve",
            '<PolicyBundle revision="99"><Policy PolicyId="x"></Policy>'
            "</PolicyBundle>",
        ),
    ),
    "bad-combining": lambda pap: (
        serve(pap, "pap.revision", '<PapRevision value="99"/>'),
        serve(
            pap,
            "pap.retrieve",
            '<PolicyBundle revision="99">'
            + serialize_policy(alice_policy()).replace(
                combining.RULE_FIRST_APPLICABLE, "urn:bogus"
            )
            + "</PolicyBundle>",
        ),
    ),
    "duplicate-ids": lambda pap: (
        serve(pap, "pap.revision", '<PapRevision value="99"/>'),
        serve(
            pap,
            "pap.retrieve",
            serialize_bundle([alice_policy(), variant(alice_policy(), 1)], 99),
        ),
    ),
}


class TestFailClosedRefresh:
    @pytest.mark.parametrize("breakage", sorted(BROKEN_REFRESHES))
    def test_refresh_failure_is_a_counted_fail_safe_deny(self, breakage):
        network, pap, pdp, pep = batched_env()
        assert submit_alice(network, pep).granted
        store, revision = pdp.engine.store, pdp._cached_revision
        BROKEN_REFRESHES[breakage](pap)
        result = submit_alice(network, pep)
        assert result.decision is Decision.DENY
        assert result.source == "fail-safe"
        assert "pdp:policy-unavailable" in result.detail
        assert network.metrics.counters["pdp.refresh_failed"] == 1
        assert pdp.engine.store is store
        assert pdp._cached_revision == revision
        assert pdp._policies_fetched_at is not None
        assert pdp._policies_fetched_at < network.now

    def test_refresh_recovers_when_the_pap_does(self):
        network, pap, pdp, pep = batched_env()
        pap.crash()
        assert not submit_alice(network, pep).granted
        pap.recover()
        assert submit_alice(network, pep).granted
        assert network.metrics.counters["pdp.refresh_failed"] == 1

    def test_direct_evaluate_faults_instead_of_timing_out(self):
        network, pap, pdp, _ = batched_env()
        pap.crash()
        with pytest.raises(RpcFault, match="pdp:policy-unavailable"):
            pdp.evaluate(RequestContext.simple("alice", "doc", "read"))


# -- PAP publish handler -----------------------------------------------------------------


def duplicate_rule_payload():
    text = serialize_policy(alice_policy())
    return text.replace('RuleId="rest"', 'RuleId="alice"')


class TestPublishHandler:
    @pytest.mark.parametrize(
        "payload",
        [
            serialize_policy(alice_policy())[:-20],
            serialize_policy(alice_policy()).replace(
                combining.RULE_FIRST_APPLICABLE, "urn:bogus"
            ),
            duplicate_rule_payload(),
        ],
        ids=["truncated", "bad-combining", "duplicate-rule-id"],
    )
    def test_malformed_publish_is_a_counted_bad_request(self, payload):
        network = Network()
        pap = PolicyAdministrationPoint("pap", network)
        client = Component("admin", network)
        with pytest.raises(RpcFault) as fault:
            client.call("pap", "pap.publish", payload)
        assert fault.value.code == "pap:bad-request"
        assert network.metrics.counters["pap.bad_request"] == 1
        assert len(pap.repository) == 0 and pap.repository.revision == 0

    def test_well_formed_publish_still_lands(self):
        network = Network()
        pap = PolicyAdministrationPoint("pap", network)
        client = Component("admin", network)
        reply = client.call("pap", "pap.publish", serialize_policy(alice_policy()))
        assert reply.payload == '<PapAck policyId="p" version="1"/>'
        assert pap.repository.get("p") == alice_policy()

    def test_malformed_withdraw_is_counted_too(self):
        network = Network()
        PolicyAdministrationPoint("pap", network)
        client = Component("admin", network)
        with pytest.raises(RpcFault, match="pap:bad-request"):
            client.call("pap", "pap.withdraw", "<PapWithdraw/>")
        assert network.metrics.counters["pap.bad_request"] == 1
