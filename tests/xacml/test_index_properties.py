"""Property tests: the target index is sound against the linear store.

The indexed :class:`PolicyStore` may only skip an element whose target
is provably NO_MATCH for the request.  Hypothesis drives both stores
through the same interleaved add/remove/replace history — over OR
targets with several AllOfs per AnyOf, non-string equality matches,
issuer-restricted designators, and requests with multi-valued or
missing identifiers that an attribute finder fills in — and checks:

* the indexed candidate list is in insertion order and contains every
  element whose target is not NO_MATCH under the linear store;
* ``evaluate`` and ``evaluate_batch`` decisions equal the linear store's;
* a PDP calls its attribute resolver at most once per identifier per
  request, whatever number of designators ask about it.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.components import PolicyDecisionPoint
from repro.simnet import Network
from repro.xacml import (
    ACTION_ID,
    Attribute,
    AttributeDesignator,
    Category,
    DataType,
    EvaluationContext,
    PdpEngine,
    Policy,
    PolicyStore,
    RESOURCE_ID,
    RequestContext,
    SUBJECT_ID,
    SUBJECT_ROLE,
    any_uri,
    attribute_equals,
    combining,
    deny_rule,
    integer,
    permit_rule,
    string,
    subject_resource_action_target,
)
from repro.xacml.functions import FUNCTION_PREFIX_1_0
from repro.xacml.targets import AllOf, AnyOf, Match, MatchResult, Target

SUBJECTS = ("s0", "s1", "s2")
RESOURCES = ("r0", "r1", "r2")
ACTIONS = ("read", "write")
ROLES = ("admin", "staff")
LEVEL = "urn:test:level"
POOLS = {
    (Category.SUBJECT, SUBJECT_ID): SUBJECTS,
    (Category.RESOURCE, RESOURCE_ID): RESOURCES,
    (Category.ACTION, ACTION_ID): ACTIONS,
}
FAMILIES = tuple(POOLS)
#: What the finder supplies when a request lacks an attribute; the
#: missing-identifier fallback has to keep elements targeting these.
SUPPLIED = {
    (Category.SUBJECT, SUBJECT_ID): string("s1"),
    (Category.RESOURCE, RESOURCE_ID): string("r1"),
    (Category.SUBJECT, SUBJECT_ROLE): string("admin"),
    (Category.SUBJECT, LEVEL): string("high"),
}


def finder(category, attribute_id, data_type):
    value = SUPPLIED.get((category, attribute_id))
    return [value] if value is not None and value.data_type is data_type else []


def _match(function, value, category, attribute_id, data_type, issuer=None):
    return Match(
        match_function=FUNCTION_PREFIX_1_0 + function,
        value=value,
        designator=AttributeDesignator(
            category, attribute_id, data_type, issuer=issuer
        ),
    )


@st.composite
def matches(draw, family=None):
    if family is None:
        family = draw(st.sampled_from(FAMILIES))
    value = draw(st.sampled_from(POOLS[family]))
    kind = draw(
        st.sampled_from(
            ["string"] * 3 + ["role", "integer", "any-uri", "issuer", "ill-typed"]
        )
    )
    if kind == "string":
        return _match("string-equal", string(value), *family, DataType.STRING)
    if kind == "role":
        return _match(
            "string-equal",
            string(draw(st.sampled_from(ROLES))),
            Category.SUBJECT,
            SUBJECT_ROLE,
            DataType.STRING,
        )
    if kind == "integer":
        return _match(
            "integer-equal", integer(draw(st.integers(0, 2))), *family,
            DataType.INTEGER,
        )
    if kind == "any-uri":
        return _match("anyURI-equal", any_uri(value), *family, DataType.ANY_URI)
    if kind == "issuer":
        return _match(
            "string-equal", string(value), *family, DataType.STRING,
            issuer="urn:test:idp",
        )
    # string-equal against an integer bag: Indeterminate, never NO_MATCH,
    # whenever the request carries integer values.
    return _match("string-equal", string(value), *family, DataType.INTEGER)


@st.composite
def any_ofs(draw):
    """An OR of AllOfs; when ``focus`` is drawn every AllOf carries a
    match on that identifier, so string-equal ones bound the group."""
    focus = draw(st.one_of(st.none(), st.sampled_from(FAMILIES)))
    all_ofs = []
    for _ in range(draw(st.integers(1, 3))):
        found = draw(st.lists(matches(), min_size=focus is None, max_size=2))
        if focus is not None:
            found.insert(draw(st.integers(0, len(found))), draw(matches(focus)))
        all_ofs.append(AllOf(tuple(found)))
    return AnyOf(tuple(all_ofs))


targets = st.lists(any_ofs(), max_size=2).map(lambda groups: Target(tuple(groups)))


@st.composite
def policies(draw):
    rules = []
    for index in range(draw(st.integers(1, 3))):
        builder = permit_rule if draw(st.booleans()) else deny_rule
        condition = None
        if draw(st.booleans()):
            condition = attribute_equals(
                Category.SUBJECT,
                draw(st.sampled_from([SUBJECT_ROLE, LEVEL])),
                string(draw(st.sampled_from(ROLES + ("high",)))),
            )
        rules.append(
            builder(
                f"rule-{index}",
                target=subject_resource_action_target(
                    draw(st.one_of(st.none(), st.sampled_from(SUBJECTS))),
                    None,
                    draw(st.one_of(st.none(), st.sampled_from(ACTIONS))),
                ),
                condition=condition,
            )
        )
    return Policy(
        policy_id=f"p{draw(st.integers(0, 5))}",
        rules=tuple(rules),
        rule_combining=draw(
            st.sampled_from(
                [
                    combining.RULE_DENY_OVERRIDES,
                    combining.RULE_PERMIT_OVERRIDES,
                    combining.RULE_FIRST_APPLICABLE,
                ]
            )
        ),
        target=draw(targets),
    )


operations = st.lists(
    st.tuples(st.sampled_from(["add", "replace", "remove"]), policies()),
    min_size=1,
    max_size=12,
)


@st.composite
def requests(draw):
    request = RequestContext()
    for (category, attribute_id), pool in POOLS.items():
        values = draw(st.lists(st.sampled_from(pool), max_size=3))
        if values:
            request.add(
                category,
                Attribute(attribute_id, tuple(string(v) for v in values)),
            )
        if category is not Category.ACTION and draw(st.booleans()):
            request.add(
                category, Attribute.of(attribute_id, integer(draw(st.integers(0, 2))))
            )
    return request


def apply_history(history, *stores):
    for kind, policy in history:
        for store in stores:
            if kind == "remove":
                store.remove(policy.policy_id)
            elif kind == "replace":
                store.replace(policy)
            elif store.get(policy.policy_id) is None:
                store.add(policy)


def linear_applicable(store, request):
    ctx = EvaluationContext(request=request, attribute_finder=finder)
    return [
        element
        for element in store.elements()
        if element.target.evaluate(ctx) is not MatchResult.NO_MATCH
    ]


class TestIndexSoundness:
    @given(operations, st.lists(requests(), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_indexed_store_equals_linear(self, history, batch):
        indexed = PolicyStore(indexed=True)
        linear = PolicyStore(indexed=False)
        apply_history(history, indexed, linear)
        order = [id(element) for element in linear.elements()]
        assert order == [id(element) for element in indexed.elements()]

        for request in batch:
            candidates = [id(c) for c in indexed.candidates(request)]
            positions = [order.index(c) for c in candidates]
            assert positions == sorted(set(positions))
            for element in linear_applicable(linear, request):
                assert id(element) in candidates

        indexed_engine = PdpEngine(indexed, attribute_finder=finder)
        linear_engine = PdpEngine(linear, attribute_finder=finder)
        expected = [linear_engine.decide(request) for request in batch]
        assert [indexed_engine.decide(r) for r in batch] == expected
        assert [
            response.decision
            for response in indexed_engine.evaluate_batch(
                batch + batch[:2], finder_for=lambda _request: finder
            )
        ] == expected + expected[:2]


def role_resolver(calls):
    def resolver(about):
        calls.append(about)
        return {
            SUBJECT_ROLE: [string(ROLES[len(about) % 2])],
            LEVEL: [string("high" if about.endswith("1") else "low")],
        }

    return resolver


def reference_finder(request, resolver):
    """The PDP's unsharded resolver branch, spelled out."""

    def find(category, attribute_id, data_type):
        about = {
            Category.SUBJECT: request.subject_id,
            Category.RESOURCE: request.resource_id,
        }.get(category)
        if not about:
            return []
        return [
            value
            for value in resolver(about).get(attribute_id, [])
            if value.data_type is data_type
        ]

    return find


class TestResolverMemo:
    @given(operations, st.lists(requests(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_resolver_called_once_per_identifier_per_request(
        self, history, batch
    ):
        calls: list[str] = []
        pdp = PolicyDecisionPoint(
            "pdp", Network(seed=1), attribute_resolver=role_resolver(calls)
        )
        reference = PolicyStore(indexed=False)
        apply_history(history, pdp.engine.store, reference)
        reference_engine = PdpEngine(reference)

        decisions = []
        for request in batch:
            calls.clear()
            decisions.append(pdp.evaluate(request).decision)
            assert max(Counter(calls).values(), default=0) <= 1
            reference_engine.attribute_finder = reference_finder(
                request, role_resolver([])
            )
            assert decisions[-1] is reference_engine.decide(request)

        calls.clear()
        batched = [response.decision for response in pdp.evaluate_batch(batch)]
        assert batched == decisions
        identifiers = sum(
            len({request.subject_id, request.resource_id} - {None, ""})
            for request in batch
        )
        assert len(calls) <= identifiers
