"""The template context encoder and the structural decoder fast path.

The encoder must emit exactly the bytes ElementTree emitted for the same
objects: message sizes are headline figures.  The ElementTree tree
builders the encoder replaced live on here as the oracle.  The decoder
fast path must agree with the ElementTree decoder on every input: the
same objects, or the same exception type and message.
"""

import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xacml import (
    Attribute,
    AttributeValue,
    Category,
    DataType,
    Decision,
    Obligation,
    ObligationAssignment,
    RequestContext,
    ResponseContext,
    Result,
    Status,
    StatusCode,
    serialize_request,
    serialize_response,
)
from repro.xacml.parser import (
    _REQUEST_SHAPE,
    _RESPONSE_SHAPE,
    _parse_request_tree,
    _parse_response_tree,
    parse_request,
    parse_response,
)

# -- the ElementTree oracle ------------------------------------------------------------


def _oracle_value(value):
    element = ET.Element("AttributeValue", {"DataType": value.data_type.value})
    element.text = value.lexical()
    return element


def _oracle_obligations(obligations):
    element = ET.Element("Obligations")
    for obligation in obligations:
        ob_el = ET.SubElement(
            element,
            "Obligation",
            {
                "ObligationId": obligation.obligation_id,
                "FulfillOn": obligation.fulfill_on.value,
            },
        )
        for assignment in obligation.assignments:
            assign_el = ET.SubElement(
                ob_el,
                "AttributeAssignment",
                {
                    "AttributeId": assignment.attribute_id,
                    "DataType": assignment.value.data_type.value,
                },
            )
            assign_el.text = assignment.value.lexical()
    return element


def request_to_element(request):
    element = ET.Element("Request")
    for category in Category:
        attributes = request.attributes(category)
        if not attributes:
            continue
        cat_el = ET.SubElement(element, "Attributes", {"Category": category.value})
        for attribute in attributes:
            attrib = {"AttributeId": attribute.attribute_id}
            if attribute.issuer is not None:
                attrib["Issuer"] = attribute.issuer
            attr_el = ET.SubElement(cat_el, "Attribute", attrib)
            for value in attribute.values:
                attr_el.append(_oracle_value(value))
    return element


def response_to_element(response):
    element = ET.Element("Response")
    for result in response.results:
        attrib = {}
        if result.resource_id is not None:
            attrib["ResourceId"] = result.resource_id
        result_el = ET.SubElement(element, "Result", attrib)
        decision_el = ET.SubElement(result_el, "Decision")
        decision_el.text = result.decision.value
        status_el = ET.SubElement(result_el, "Status")
        ET.SubElement(status_el, "StatusCode", {"Value": result.status.code.value})
        if result.status.message:
            msg_el = ET.SubElement(status_el, "StatusMessage")
            msg_el.text = result.status.message
        if result.obligations:
            result_el.append(_oracle_obligations(result.obligations))
    return element


def oracle_request(request):
    return ET.tostring(request_to_element(request), encoding="unicode")


def oracle_response(response):
    return ET.tostring(response_to_element(response), encoding="unicode")


# -- strategies ----------------------------------------------------------------------

#: Markup, whitespace, control and non-ASCII characters the escaping
#: must reproduce.
SPECIALS = "&<>\"'\t\n\r\x00\x01\x1f\x7f\x85é☃\U0001f512"
hostile_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(SPECIALS),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
#: Printable ASCII without the four characters XML escapes in values.
plain_text = st.text(
    alphabet=st.sampled_from(
        [chr(c) for c in range(0x20, 0x7F) if chr(c) not in "\"&<>"]
    ),
    max_size=12,
)


def values_of(text):
    strings = st.builds(
        AttributeValue,
        st.sampled_from([DataType.STRING, DataType.ANY_URI,
                         DataType.RFC822_NAME, DataType.X500_NAME]),
        text,
    )
    numbers = st.one_of(
        st.builds(AttributeValue, st.just(DataType.BOOLEAN), st.booleans()),
        st.builds(AttributeValue, st.just(DataType.INTEGER),
                  st.integers(-10**30, 10**30)),
        st.builds(
            AttributeValue,
            st.sampled_from([DataType.DOUBLE, DataType.TIME, DataType.DATE_TIME]),
            st.floats(allow_nan=False),
        ),
    )
    return st.one_of(strings, numbers)


def requests_of(text):
    attribute = st.builds(
        Attribute,
        attribute_id=text,
        values=st.lists(values_of(text), min_size=1, max_size=3).map(tuple),
        issuer=st.one_of(st.none(), text),
    )
    return st.dictionaries(
        st.sampled_from(list(Category)), st.lists(attribute, max_size=3)
    ).map(RequestContext)


def responses_of(text):
    assignment = st.builds(
        ObligationAssignment, attribute_id=text, value=values_of(text)
    )
    obligation = st.builds(
        Obligation,
        obligation_id=text,
        fulfill_on=st.sampled_from([Decision.PERMIT, Decision.DENY]),
        assignments=st.lists(assignment, max_size=3).map(tuple),
    )
    result = st.builds(
        Result,
        decision=st.sampled_from(list(Decision)),
        status=st.builds(Status, st.sampled_from(list(StatusCode)), text),
        obligations=st.lists(obligation, max_size=2).map(tuple),
        resource_id=st.one_of(st.none(), text),
    )
    return st.lists(result, max_size=3).map(
        lambda results: ResponseContext(results=tuple(results))
    )


# -- comparison helpers ----------------------------------------------------------------


def request_shape(request):
    """Structural identity of a request (``repr`` keeps NaN comparable)."""
    return [
        (category, attribute.attribute_id, attribute.issuer,
         [(value.data_type, repr(value.value)) for value in attribute.values])
        for category in Category
        for attribute in request.attributes(category)
    ]


def outcome(decode, xml_text, shape=lambda parsed: parsed):
    try:
        return ("ok", shape(decode(xml_text)))
    except Exception as exc:  # the differential compares any failure
        return ("error", type(exc), str(exc))


# -- encoder: byte identity -----------------------------------------------------------


class TestEncoderMatchesElementTree:
    @given(requests_of(hostile_text))
    @settings(max_examples=120, deadline=None)
    def test_request_bytes(self, request):
        assert serialize_request(request) == oracle_request(request)

    @given(responses_of(hostile_text))
    @settings(max_examples=120, deadline=None)
    def test_response_bytes(self, response):
        assert serialize_response(response) == oracle_response(response)

    def test_every_data_type_and_empty_forms(self):
        request = RequestContext()
        for data_type, value in (
            (DataType.STRING, ""), (DataType.BOOLEAN, False),
            (DataType.INTEGER, 0), (DataType.DOUBLE, -0.0),
            (DataType.TIME, 1e300), (DataType.DATE_TIME, 1.5),
            (DataType.ANY_URI, "urn:a"), (DataType.RFC822_NAME, "a@b"),
            (DataType.X500_NAME, "CN=a"),
        ):
            request.add(Category.RESOURCE,
                        Attribute("id", (AttributeValue(data_type, value),)))
        request.add(Category.SUBJECT, Attribute("bare", ()))
        encoded = serialize_request(request)
        assert encoded == oracle_request(request)
        assert '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string" />' in encoded
        assert '<Attribute AttributeId="bare" />' in encoded
        assert serialize_request(RequestContext()) == "<Request />"
        assert serialize_response(ResponseContext(results=())) == "<Response />"
        assert serialize_response(ResponseContext(results=())) == oracle_response(
            ResponseContext(results=())
        )


# -- decoder: fast path against the ElementTree path ----------------------------------


class TestDecoderFastPath:
    @given(requests_of(plain_text))
    @settings(max_examples=120, deadline=None)
    def test_plain_requests_take_the_fast_path(self, request):
        encoded = serialize_request(request)
        assert _REQUEST_SHAPE.fullmatch(encoded)
        assert outcome(parse_request, encoded, request_shape) == outcome(
            _parse_request_tree, encoded, request_shape
        )

    @given(responses_of(plain_text))
    @settings(max_examples=120, deadline=None)
    def test_plain_responses_take_the_fast_path(self, response):
        encoded = serialize_response(response)
        if response.results:
            assert _RESPONSE_SHAPE.fullmatch(encoded)
        assert outcome(parse_response, encoded) == outcome(
            _parse_response_tree, encoded
        )

    @given(requests_of(hostile_text))
    @settings(max_examples=80, deadline=None)
    def test_hostile_requests_agree(self, request):
        encoded = serialize_request(request)
        assert outcome(parse_request, encoded, request_shape) == outcome(
            _parse_request_tree, encoded, request_shape
        )

    @given(responses_of(hostile_text))
    @settings(max_examples=80, deadline=None)
    def test_hostile_responses_agree(self, response):
        encoded = serialize_response(response)
        assert outcome(parse_response, encoded) == outcome(
            _parse_response_tree, encoded
        )

    def test_semantic_errors_match_the_tree_decoder(self):
        string_uri = DataType.STRING.value
        subject = Category.SUBJECT.value
        requests = (
            f'<Request><Attributes Category="urn:nope"><Attribute AttributeId="a">'
            f'<AttributeValue DataType="{string_uri}">x</AttributeValue>'
            f"</Attribute></Attributes></Request>",
            f'<Request><Attributes Category="{subject}"><Attribute AttributeId="a">'
            f'<AttributeValue DataType="urn:nope">x</AttributeValue>'
            f"</Attribute></Attributes></Request>",
            f'<Request><Attributes Category="{subject}"><Attribute AttributeId="a">'
            f'<AttributeValue DataType="{DataType.INTEGER.value}">abc</AttributeValue>'
            f"</Attribute></Attributes></Request>",
            f'<Request><Attributes Category="{subject}"><Attribute AttributeId="a">'
            f'<AttributeValue DataType="{DataType.BOOLEAN.value}">maybe</AttributeValue>'
            f"</Attribute></Attributes></Request>",
            f'<Request><Attributes Category="{subject}">'
            f'<Attribute AttributeId="a" /></Attributes></Request>',
        )
        for body in requests:
            fast = outcome(parse_request, body, request_shape)
            assert fast[0] == "error"
            assert fast == outcome(_parse_request_tree, body, request_shape)
        ok = '<Status><StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok" /></Status>'
        responses = (
            f"<Response><Result><Decision>Maybe</Decision>{ok}</Result></Response>",
            "<Response><Result><Decision>Permit</Decision>"
            '<Status><StatusCode Value="urn:nope" /></Status></Result></Response>',
            f"<Response><Result><Decision>Permit</Decision>{ok}<Obligations>"
            '<Obligation ObligationId="o" FulfillOn="NotApplicable" />'
            "</Obligations></Result></Response>",
            f"<Response><Result><Decision>Permit</Decision>{ok}<Obligations>"
            '<Obligation ObligationId="o" FulfillOn="Permit"><AttributeAssignment '
            'AttributeId="a" DataType="urn:nope">1</AttributeAssignment>'
            "</Obligation></Obligations></Result></Response>",
            f"<Response><Result><Decision>Permit</Decision>{ok}<Obligations>"
            '<Obligation ObligationId="o" FulfillOn="Permit"><AttributeAssignment '
            f'AttributeId="a" DataType="{DataType.DOUBLE.value}">x</AttributeAssignment>'
            "</Obligation></Obligations></Result></Response>",
        )
        for body in responses:
            assert _RESPONSE_SHAPE.fullmatch(body), body
            fast = outcome(parse_response, body)
            assert fast[0] == "error"
            assert fast == outcome(_parse_response_tree, body)
