"""Hostile inbound payloads against every PDP query action.

Each payload must come back as a fault reply or as an answer that does
not grant; none may escape the PDP's handler and ``network.run``.  The
same corpus drives the decoder differential: the structural fast path
and the ElementTree decoder return equal objects or raise the same
exception type and message.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.components import (
    ComponentIdentity,
    PdpConfig,
    PlacementMap,
    PlacementSpec,
    PolicyDecisionPoint,
)
from repro.components.base import Component, RpcFault
from repro.components.pdp import (
    BATCH_QUERY_ACTION,
    OWNED_BATCH_QUERY_ACTION,
    QUERY_ACTION,
    SECURE_BATCH_QUERY_ACTION,
    SECURE_QUERY_ACTION,
)
from repro.saml.xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from repro.simnet import Network
from repro.wsvc.soap import SoapEnvelope
from repro.wsvc.ws_security import secure_envelope
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator
from repro.xacml import (
    Decision,
    Policy,
    RequestContext,
    ResponseContext,
    Status,
    StatusCode,
    combining,
    integer,
    permit_rule,
    serialize_request,
    serialize_response,
    subject_resource_action_target,
)
from repro.xacml.parser import (
    _parse_request_tree,
    _parse_response_tree,
    parse_request,
    parse_response,
)

# -- the corpus ------------------------------------------------------------------------

#: Nobody in the corpus is alice, so no payload may ever be granted.
GRANTED_SUBJECT = "alice"


def _seed_requests():
    plain = RequestContext.simple("mallory", "db", "read")
    typed = RequestContext.simple(
        "mallory", "db", "write",
        subject_attributes={"urn:test:level": [integer(7)]},
    )
    return [plain, typed]


def _seed_envelopes():
    requests = _seed_requests()
    single = XacmlAuthzDecisionQuery(
        request=requests[0], issuer="pep", issue_instant=1.5, query_id="q-1"
    )
    batch = XacmlAuthzDecisionBatchQuery.for_requests(requests, "pep", 2.5)
    statement = XacmlAuthzDecisionStatement(
        response=ResponseContext.single(
            Decision.DENY, status=Status(StatusCode.OK, "no")
        ),
        in_response_to="q-1",
        issuer="pdp",
        issue_instant=3.0,
    )
    return [single.to_xml(), batch.to_xml(), statement.to_xml()]


SEEDS = _seed_envelopes()
REQUEST_BODY = serialize_request(_seed_requests()[1])

#: Payloads that escaped the PDP's event loop before decode failures
#: were mapped to faults, plus structural extremes.
KNOWN_HOSTILE = [
    "this is not xml at all",
    SEEDS[0].replace(
        'http://www.w3.org/2001/XMLSchema#string">mallory',
        'http://www.w3.org/2001/XMLSchema#integer">abc',
    ),
    SEEDS[0].replace('IssueInstant="1.5"', 'IssueInstant="soon"'),
    SEEDS[0].replace(
        "<Request>",
        '<Request><!DOCTYPE r [<!ENTITY e "alice">]>',
    ),
    SEEDS[0].replace(
        "<Request>",
        '<!DOCTYPE Request [<!ENTITY a "aaaaaaaaaa"><!ENTITY b "&a;&a;&a;&a;&a;'
        '&a;&a;&a;&a;&a;"><!ENTITY c "&b;&b;&b;&b;&b;&b;&b;&b;&b;&b;">]><Request>',
    ).replace(">mallory<", ">&c;<"),
    SEEDS[0].replace("<Request>", "<Request>" + "<x>" * 3000).replace(
        "</Request>", "</x>" * 3000 + "</Request>"
    ),
    SEEDS[1].replace('Count="2"', 'Count="7"'),
    SEEDS[1].replace("mallory", "m" * 200_000),
    SEEDS[0][: len(SEEDS[0]) // 2],
    "",
]


def _splice(seed, start, stop, insert):
    start, stop = sorted((start % (len(seed) + 1), stop % (len(seed) + 1)))
    return seed[:start] + insert + seed[stop:]


FRAGMENTS = st.sampled_from(
    ["<", ">", "&", "&amp;", "&#0;", "&e;", '"', "'", "\x00", "\r\n", "\t",
     "é", "<Request>", "</Attribute>", "<!DOCTYPE x>", "<![CDATA[x]]>",
     "<?xml version='1.0'?>", " />", "Permit", "NaN", "1e999"]
)
hostile_payloads = st.one_of(
    st.sampled_from(KNOWN_HOSTILE),
    st.builds(
        _splice,
        st.sampled_from(SEEDS),
        st.integers(0, 4000),
        st.integers(0, 4000),
        st.one_of(FRAGMENTS, st.text(max_size=8)),
    ),
    st.builds(
        lambda seed, cut: seed[: cut % (len(seed) + 1)],
        st.sampled_from(SEEDS),
        st.integers(0, 4000),
    ),
    st.text(max_size=40),
)

# -- the world -------------------------------------------------------------------------


def _allow_alice():
    return Policy(
        policy_id="alice-only",
        target=subject_resource_action_target(subject_id=GRANTED_SUBJECT),
        rules=(permit_rule("permit"),),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


class World:
    """A plain PDP with a secure identity, a two-replica sharded tier
    and a client that signs whatever it is given."""

    def __init__(self):
        self.network = Network(seed=7)
        keystore = KeyStore(seed=7)
        ca = CertificateAuthority("ca", keystore)

        def identity(name):
            keypair = keystore.generate(label=name)
            return ComponentIdentity(
                name=name,
                keypair=keypair,
                certificate=ca.issue(name, keypair.public, 0.0, 1e9),
                keystore=keystore,
                validator=TrustValidator(keystore, anchors=[ca]),
            )

        self.pdp = PolicyDecisionPoint("pdp", self.network, identity=identity("pdp"))
        self.pdp.add_local_policy(_allow_alice())
        spec = PlacementSpec("subject", PlacementMap(["shard-0", "shard-1"]))
        for name in ("shard-0", "shard-1"):
            shard = PolicyDecisionPoint(
                name, self.network, config=PdpConfig(placement=spec)
            )
            shard.add_local_policy(_allow_alice())
        self.client = Component("client", self.network, identity=identity("client"))

    def send(self, recipient, action, body):
        """Deliver ``body`` and return the reply's XML, or None on a fault."""
        payload = body
        if action in (SECURE_QUERY_ACTION, SECURE_BATCH_QUERY_ACTION):
            me = self.client.identity
            payload = secure_envelope(
                SoapEnvelope(action=action, body_xml=body),
                me.keypair, me.certificate, me.keystore,
            )
        try:
            reply = self.client.call(recipient, action, payload, timeout=5.0)
        except RpcFault:
            return None
        self.network.run(until=self.network.now + 1.0)
        answer = reply.payload
        return answer.body_xml if isinstance(answer, SoapEnvelope) else str(answer)


@pytest.fixture(scope="module")
def world():
    return World()


TARGETS = [
    ("pdp", QUERY_ACTION),
    ("pdp", BATCH_QUERY_ACTION),
    ("pdp", OWNED_BATCH_QUERY_ACTION),
    ("pdp", SECURE_QUERY_ACTION),
    ("pdp", SECURE_BATCH_QUERY_ACTION),
    ("shard-0", BATCH_QUERY_ACTION),
]


def _decisions(reply_xml):
    if reply_xml.startswith("<xacml-saml:XACMLAuthzDecisionBatchStatement"):
        statements = XacmlAuthzDecisionBatchStatement.from_xml(reply_xml).statements
    else:
        statements = (XacmlAuthzDecisionStatement.from_xml(reply_xml),)
    return [
        result.decision
        for statement in statements
        for result in statement.response.results
    ]


def _assert_contained(world, body):
    for recipient, action in TARGETS:
        reply_xml = world.send(recipient, action, body)
        if reply_xml is not None:
            assert Decision.PERMIT not in _decisions(reply_xml), (action, body[:200])


# -- PDP containment ------------------------------------------------------------------


class TestPdpContainsHostilePayloads:
    def test_seeds_are_answered_without_a_grant(self, world):
        for recipient, action in TARGETS:
            if action in (QUERY_ACTION, SECURE_QUERY_ACTION):
                body = SEEDS[0]
            else:
                body = SEEDS[1]
            reply_xml = world.send(recipient, action, body)
            assert reply_xml is not None, action
            assert Decision.PERMIT not in _decisions(reply_xml)

    def test_alice_is_granted(self, world):
        """The containment assertions are not vacuous: the policy does grant."""
        body = SEEDS[0].replace(">mallory<", f">{GRANTED_SUBJECT}<")
        assert _decisions(world.send("pdp", QUERY_ACTION, body)) == [Decision.PERMIT]

    @pytest.mark.parametrize("index", range(len(KNOWN_HOSTILE)))
    def test_known_hostile_payloads(self, world, index):
        before = world.network.metrics.counters.get("pdp.bad_request", 0)
        _assert_contained(world, KNOWN_HOSTILE[index])
        assert world.network.metrics.counters.get("pdp.bad_request", 0) > before

    @given(body=hostile_payloads)
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_payloads(self, world, body):
        _assert_contained(world, body)


# -- the decoder differential ----------------------------------------------------------


def _request_shape(request):
    return [
        (category, attribute.attribute_id, attribute.issuer,
         [(value.data_type, repr(value.value)) for value in attribute.values])
        for category, attributes in request.groups()
        for attribute in attributes
    ]


def _response_shape(response):
    return repr(response)


def _outcome(decode, text, shape):
    try:
        return ("ok", shape(decode(text)))
    except Exception as exc:  # the differential compares any failure
        return ("error", type(exc), str(exc))


RESPONSE_BODY = serialize_response(
    ResponseContext.single(Decision.DENY, status=Status(StatusCode.OK, "x"))
)


@given(
    body=st.one_of(
        hostile_payloads,
        st.builds(_splice, st.just(REQUEST_BODY), st.integers(0, 900),
                  st.integers(0, 900), st.one_of(FRAGMENTS, st.text(max_size=6))),
    )
)
@example(body=REQUEST_BODY)
@settings(max_examples=300, deadline=None)
def test_request_decoders_agree(body):
    assert _outcome(parse_request, body, _request_shape) == _outcome(
        _parse_request_tree, body, _request_shape
    )


@given(
    body=st.one_of(
        hostile_payloads,
        st.builds(_splice, st.just(RESPONSE_BODY), st.integers(0, 300),
                  st.integers(0, 300), st.one_of(FRAGMENTS, st.text(max_size=6))),
    )
)
@example(body=RESPONSE_BODY)
@settings(max_examples=300, deadline=None)
def test_response_decoders_agree(body):
    assert _outcome(parse_response, body, _response_shape) == _outcome(
        _parse_response_tree, body, _response_shape
    )


# -- forged and mis-correlated reforward answers -------------------------------------


def _forged_statement(batch, in_response_to, decision=Decision.PERMIT):
    return XacmlAuthzDecisionBatchStatement(
        statements=tuple(
            XacmlAuthzDecisionStatement(
                response=ResponseContext.single(decision),
                in_response_to=query.query_id,
                issuer="shard-1",
                issue_instant=0.0,
            )
            for query in batch.queries
        ),
        in_response_to=in_response_to,
        issuer="shard-1",
        issue_instant=0.0,
    ).to_xml()


FORGERIES = {
    "garbage": lambda batch: "<nope/>",
    "mis-correlated": lambda batch: _forged_statement(batch, "xacmlb-forged"),
    "undecodable-statement": lambda batch: _forged_statement(
        batch, batch.batch_id
    ).replace(">Permit<", ">Perhaps<"),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_sharded_reforward_rejects_forged_answers(forgery):
    """A misrouted slot's owner answering garbage, another batch's
    statement or an undecodable one is not trusted: the replica falls
    back to local evaluation, which denies mallory."""
    network = Network(seed=11)
    spec = PlacementSpec("subject", PlacementMap(["shard-0", "shard-1"]))
    shard = PolicyDecisionPoint("shard-0", network, config=PdpConfig(placement=spec))
    shard.add_local_policy(_allow_alice())
    owner = Component("shard-1", network)
    owner.on(
        OWNED_BATCH_QUERY_ACTION,
        lambda message: FORGERIES[forgery](
            XacmlAuthzDecisionBatchQuery.from_xml(str(message.payload))
        ),
    )
    client = Component("client", network)
    subject = next(
        name for name in (f"mallory-{index}" for index in range(100))
        if spec.owner_of(RequestContext.simple(name, "db", "read")) == "shard-1"
    )
    batch = XacmlAuthzDecisionBatchQuery.for_requests(
        [RequestContext.simple(subject, "db", "read")], "client", 0.0
    )
    reply = client.call("shard-0", BATCH_QUERY_ACTION, batch.to_xml())
    network.run(until=network.now + 1.0)
    answer = XacmlAuthzDecisionBatchStatement.from_xml(str(reply.payload))
    assert answer.in_response_to == batch.batch_id
    assert _decisions(str(reply.payload)) == [Decision.NOT_APPLICABLE]
    counters = network.metrics.counters
    assert counters.get("placement.reforward_fallback", 0) == 1
    assert counters.get("placement.reforwarded", 0) == 0
