"""Golden batch envelopes: fixed query/statement objects and their wire text.

``golden_envelopes.json`` beside this file holds the XML the objects
below encoded to when the fixture was recorded.  The test in
``test_golden_envelopes.py`` re-encodes them and compares byte for
byte, so any drift in the XACML context encoder or the SAML profile
wrapper fails, whatever Python runs the suite.

Regenerate (only for an intended wire change) with::

    PYTHONPATH=src python tests/saml/golden_envelopes.py
"""

from __future__ import annotations

import json
import os

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
)
from repro.saml.xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_envelopes.json")

HOSTILE = "a&b<c>d\"e'f\tg\nh\ri"


def _requests() -> list[RequestContext]:
    plain = RequestContext.simple(
        "alice", "db/records", "read",
        subject_attributes={
            "urn:oasis:names:tc:xacml:2.0:subject:role": [
                AttributeValue(DataType.STRING, "doctor"),
                AttributeValue(DataType.STRING, "auditor"),
            ],
        },
        environment={
            "urn:oasis:names:tc:xacml:1.0:environment:current-time": [
                AttributeValue(DataType.TIME, 43200.5)
            ],
        },
    )
    every_type = RequestContext()
    for index, (data_type, value) in enumerate((
        (DataType.STRING, "s"),
        (DataType.BOOLEAN, True),
        (DataType.INTEGER, -42),
        (DataType.DOUBLE, 1e-07),
        (DataType.TIME, 0.0),
        (DataType.DATE_TIME, 1.5e9),
        (DataType.ANY_URI, "urn:x:y?z=1"),
        (DataType.RFC822_NAME, "bob@example.org"),
        (DataType.X500_NAME, "CN=Bob, O=Example"),
    )):
        every_type.add(
            Category.RESOURCE,
            Attribute(f"urn:test:attr-{index}", (AttributeValue(data_type, value),)),
        )
    every_type.add(
        Category.ACTION,
        Attribute("urn:test:flag", (AttributeValue(DataType.BOOLEAN, False),)),
    )
    hostile = RequestContext()
    hostile.add(
        Category.SUBJECT,
        Attribute(
            f"urn:test:{HOSTILE}",
            (
                AttributeValue(DataType.STRING, HOSTILE),
                AttributeValue(DataType.STRING, ""),
                AttributeValue(DataType.STRING, "café ☃ \x01\x7f"),
            ),
            issuer=f"issuer {HOSTILE}",
        ),
    )
    hostile.add(
        Category.DELEGATE,
        Attribute("urn:repro:delegate:delegate-id", (AttributeValue(DataType.STRING, "d"),),
                  issuer=""),
    )
    return [plain, every_type, hostile, RequestContext()]


def _obligations(note: str) -> tuple[Obligation, ...]:
    return (
        Obligation(
            "urn:test:log",
            Decision.PERMIT,
            (
                ObligationAssignment("urn:test:level", AttributeValue(DataType.INTEGER, 3)),
                ObligationAssignment("urn:test:note", AttributeValue(DataType.STRING, note)),
                ObligationAssignment("urn:test:empty", AttributeValue(DataType.STRING, "")),
            ),
        ),
        Obligation("urn:test:notify", Decision.DENY),
    )


def _responses() -> list[ResponseContext]:
    return [
        ResponseContext.single(Decision.PERMIT),
        ResponseContext.single(
            Decision.DENY, obligations=_obligations("audit it"), resource_id="db/records"
        ),
        ResponseContext.single(
            Decision.INDETERMINATE,
            status=Status(StatusCode.MISSING_ATTRIBUTE, f"missing {HOSTILE}"),
        ),
        ResponseContext(results=(
            Result(Decision.NOT_APPLICABLE, resource_id=HOSTILE),
            Result(
                Decision.PERMIT,
                status=Status(StatusCode.OK, "ok"),
                obligations=_obligations(HOSTILE)[:1],
                resource_id="",
            ),
        )),
    ]


def golden_envelopes() -> dict[str, object]:
    """The fixed envelope objects, keyed by fixture name."""
    requests = _requests()
    responses = _responses()
    queries = [
        XacmlAuthzDecisionQuery(
            request=request,
            issuer="pep-1",
            issue_instant=12.25 + index,
            return_context=index % 2 == 1,
            query_id=f"xacmlq-g{index}",
        )
        for index, request in enumerate(requests)
    ]
    statements = [
        XacmlAuthzDecisionStatement(
            response=response,
            in_response_to=f"xacmlq-g{index}",
            issuer="pdp-1",
            issue_instant=13.5 + index,
            request_echo=requests[index] if index % 2 == 1 else None,
        )
        for index, response in enumerate(responses)
    ]
    return {
        "batch_query_plain": XacmlAuthzDecisionBatchQuery(
            queries=tuple(queries[:2]), issuer="pep-1", issue_instant=12.25,
            batch_id="xacmlb-g1",
        ),
        "batch_query_hostile": XacmlAuthzDecisionBatchQuery(
            queries=tuple(queries[2:]), issuer="gw-acme", issue_instant=0.001,
            batch_id="xacmlb-g2",
        ),
        "batch_query_single": XacmlAuthzDecisionBatchQuery(
            queries=(queries[0],), issuer="pep-2", issue_instant=1e-07,
            batch_id="xacmlb-g3",
        ),
        "batch_statement_plain": XacmlAuthzDecisionBatchStatement(
            statements=tuple(statements[:2]), in_response_to="xacmlb-g1",
            issuer="pdp-1", issue_instant=13.5,
        ),
        "batch_statement_hostile": XacmlAuthzDecisionBatchStatement(
            statements=tuple(statements[2:]), in_response_to="xacmlb-g2",
            issuer="pdp-2", issue_instant=2.0,
        ),
        "batch_statement_single": XacmlAuthzDecisionBatchStatement(
            statements=(statements[1],), in_response_to="xacmlb-g3",
            issuer="pdp-3", issue_instant=99.125,
        ),
    }


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(
            {name: envelope.to_xml() for name, envelope in golden_envelopes().items()},
            handle,
            indent=1,
            sort_keys=True,
            ensure_ascii=True,
        )
        handle.write("\n")
    print(f"wrote {FIXTURE}")
