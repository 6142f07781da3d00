"""Golden wire fixture: batch envelopes must encode to the recorded bytes.

Wire bytes are what the message-size headlines (simnet bytes, E7's
signed-size penalty) measure, so the context encoder must not drift on
any Python the suite runs on.  See ``golden_envelopes.py`` for the
objects and how the fixture was recorded.
"""

import json
import re

import pytest

from golden_envelopes import FIXTURE, golden_envelopes
from repro.saml.xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
)
from repro.xacml.parser import _REQUEST_SHAPE, _RESPONSE_SHAPE

with open(FIXTURE, encoding="utf-8") as _handle:
    RECORDED = json.load(_handle)

ENVELOPES = golden_envelopes()
#: Envelopes whose values are all plain printable ASCII: they decode on
#: the fast path and re-encode to the same bytes.
PLAIN = ("batch_query_plain", "batch_query_single",
         "batch_statement_plain", "batch_statement_single")


def test_fixture_covers_every_envelope():
    assert sorted(RECORDED) == sorted(ENVELOPES)
    assert len(RECORDED) == 6


@pytest.mark.parametrize("name", sorted(ENVELOPES))
def test_envelope_bytes_match_recording(name):
    assert ENVELOPES[name].to_xml().encode("utf-8") == RECORDED[name].encode("utf-8")


@pytest.mark.parametrize("name", PLAIN)
def test_plain_envelope_round_trips_on_the_fast_path(name):
    xml_text = RECORDED[name]
    for body in re.findall(r"<Request>.*?</Request>|<Request />", xml_text):
        assert _REQUEST_SHAPE.fullmatch(body), body
    for body in re.findall(r"<Response>.*?</Response>", xml_text):
        assert _RESPONSE_SHAPE.fullmatch(body), body
    decoder = (
        XacmlAuthzDecisionBatchQuery
        if name.startswith("batch_query")
        else XacmlAuthzDecisionBatchStatement
    )
    assert decoder.from_xml(xml_text).to_xml() == xml_text
