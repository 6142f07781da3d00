"""Serialization of XACML objects to XML text.

The serializer produces compact, standard-shaped XML: policies use
``Policy``/``PolicySet``/``Rule``/``Target``/``Apply`` elements, contexts
use ``Request``/``Response``.  Byte sizes of these strings are what the
communication-performance experiments (E5, E7) measure, so the output is
canonical-compact (no pretty-printing) and deterministic.

Policies are built as ElementTree trees.  Request and response contexts
are encoded on every decision, so :func:`serialize_request` and
:func:`serialize_response` are string templates instead: the open tag of
each category's ``Attributes`` element and each data type's
``DataType`` attribute are built once at import, and values pass
through :func:`repro.xmlutil.escape_text`/:func:`~repro.xmlutil.escape_attr`.
The output is byte-identical to ``ET.tostring`` of the equivalent tree,
down to ElementTree's escaping and its `` />`` form for childless
elements with empty text (an empty string value encodes as
``<AttributeValue DataType="…" />``); the tests keep that tree builder
as the oracle.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Union

from ..xmlutil import escape_attr, escape_text
from .attributes import AttributeDesignator, AttributeValue, Category, DataType
from .context import Obligation, RequestContext, ResponseContext
from .expressions import (
    AllOfFunction,
    AnyOfFunction,
    Apply,
    Designator,
    Expression,
    Literal,
)
from .policy import Policy, PolicyReference, PolicySet
from .rules import Rule
from .targets import Target

ANY_OF_FUNCTION_ID = "urn:oasis:names:tc:xacml:1.0:function:any-of"
ALL_OF_FUNCTION_ID = "urn:oasis:names:tc:xacml:1.0:function:all-of"

#: Context-encoder templates, built once: the open tag of each category's
#: ``Attributes`` element and the ``DataType`` attribute of each type.
_ATTRIBUTES_OPEN = {
    category: f'<Attributes Category="{escape_attr(category.value)}">'
    for category in Category
}
_DATA_TYPE_ATTR = {
    data_type: f' DataType="{escape_attr(data_type.value)}"'
    for data_type in DataType
}
_VALUE_OPEN = {
    data_type: f"<AttributeValue{attr}"
    for data_type, attr in _DATA_TYPE_ATTR.items()
}


def _value_element(value: AttributeValue, tag: str = "AttributeValue") -> ET.Element:
    element = ET.Element(tag, {"DataType": value.data_type.value})
    element.text = value.lexical()
    return element


def _designator_element(designator: AttributeDesignator) -> ET.Element:
    attrib = {
        "Category": designator.category.value,
        "AttributeId": designator.attribute_id,
        "DataType": designator.data_type.value,
        "MustBePresent": "true" if designator.must_be_present else "false",
    }
    if designator.issuer is not None:
        attrib["Issuer"] = designator.issuer
    return ET.Element("AttributeDesignator", attrib)


def _expression_element(expression: Expression) -> ET.Element:
    if isinstance(expression, Literal):
        return _value_element(expression.value)
    if isinstance(expression, Designator):
        return _designator_element(expression.designator)
    if isinstance(expression, Apply):
        element = ET.Element("Apply", {"FunctionId": expression.function_id})
        for argument in expression.arguments:
            element.append(_expression_element(argument))
        return element
    if isinstance(expression, AnyOfFunction):
        return _higher_order_element(
            ANY_OF_FUNCTION_ID, expression.function_id, expression.value,
            expression.bag,
        )
    if isinstance(expression, AllOfFunction):
        return _higher_order_element(
            ALL_OF_FUNCTION_ID, expression.function_id, expression.value,
            expression.bag,
        )
    raise TypeError(f"cannot serialize expression type {type(expression).__name__}")


def _higher_order_element(
    outer_id: str, inner_id: str, value: Expression, bag: Expression
) -> ET.Element:
    element = ET.Element("Apply", {"FunctionId": outer_id})
    element.append(ET.Element("Function", {"FunctionId": inner_id}))
    element.append(_expression_element(value))
    element.append(_expression_element(bag))
    return element


def _target_element(target: Target) -> ET.Element:
    element = ET.Element("Target")
    for any_of in target.any_ofs:
        any_el = ET.SubElement(element, "AnyOf")
        for all_of in any_of.all_ofs:
            all_el = ET.SubElement(any_el, "AllOf")
            for match in all_of.matches:
                match_el = ET.SubElement(
                    all_el, "Match", {"MatchId": match.match_function}
                )
                match_el.append(_value_element(match.value))
                match_el.append(_designator_element(match.designator))
    return element


def _obligations_element(obligations: tuple[Obligation, ...]) -> ET.Element:
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


def _rule_element(rule: Rule) -> ET.Element:
    element = ET.Element(
        "Rule", {"RuleId": rule.rule_id, "Effect": rule.effect.value}
    )
    if rule.description:
        desc = ET.SubElement(element, "Description")
        desc.text = rule.description
    if rule.target.any_ofs:
        element.append(_target_element(rule.target))
    if rule.condition is not None:
        condition_el = ET.SubElement(element, "Condition")
        condition_el.append(_expression_element(rule.condition.expression))
    return element


def policy_to_element(policy: Policy) -> ET.Element:
    attrib = {
        "PolicyId": policy.policy_id,
        "RuleCombiningAlgId": policy.rule_combining,
        "Version": policy.version,
    }
    if policy.issuer is not None:
        attrib["Issuer"] = policy.issuer
    element = ET.Element("Policy", attrib)
    if policy.description:
        desc = ET.SubElement(element, "Description")
        desc.text = policy.description
    element.append(_target_element(policy.target))
    for rule in policy.rules:
        element.append(_rule_element(rule))
    if policy.obligations:
        element.append(_obligations_element(policy.obligations))
    return element


def policy_set_to_element(policy_set: PolicySet) -> ET.Element:
    attrib = {
        "PolicySetId": policy_set.policy_set_id,
        "PolicyCombiningAlgId": policy_set.policy_combining,
        "Version": policy_set.version,
    }
    if policy_set.issuer is not None:
        attrib["Issuer"] = policy_set.issuer
    element = ET.Element("PolicySet", attrib)
    if policy_set.description:
        desc = ET.SubElement(element, "Description")
        desc.text = policy_set.description
    element.append(_target_element(policy_set.target))
    for child in policy_set.children:
        if isinstance(child, Policy):
            element.append(policy_to_element(child))
        elif isinstance(child, PolicyReference):
            ref_el = ET.SubElement(element, "PolicyIdReference")
            ref_el.text = child.reference_id
        else:
            element.append(policy_set_to_element(child))
    if policy_set.obligations:
        element.append(_obligations_element(policy_set.obligations))
    return element


def serialize_policy(element: Union[Policy, PolicySet]) -> str:
    """Policy or policy set to compact XML text."""
    xml_el = (
        policy_to_element(element)
        if isinstance(element, Policy)
        else policy_set_to_element(element)
    )
    return ET.tostring(xml_el, encoding="unicode")


def _value_xml(value: AttributeValue) -> str:
    open_tag = _VALUE_OPEN[value.data_type]
    text = value.lexical()
    if text:
        return f"{open_tag}>{escape_text(text)}</AttributeValue>"
    return f"{open_tag} />"


def _obligations_xml(obligations: tuple[Obligation, ...]) -> str:
    parts = ["<Obligations>"]
    for obligation in obligations:
        parts.append(
            f'<Obligation ObligationId="{escape_attr(obligation.obligation_id)}"'
            f' FulfillOn="{obligation.fulfill_on.value}"'
        )
        if not obligation.assignments:
            parts.append(" />")
            continue
        parts.append(">")
        for assignment in obligation.assignments:
            value = assignment.value
            text = value.lexical()
            parts.append(
                f'<AttributeAssignment AttributeId="'
                f'{escape_attr(assignment.attribute_id)}"'
                f"{_DATA_TYPE_ATTR[value.data_type]}"
                + (f">{escape_text(text)}</AttributeAssignment>" if text else " />")
            )
        parts.append("</Obligation>")
    parts.append("</Obligations>")
    return "".join(parts)


def serialize_request(request: RequestContext) -> str:
    parts = []
    for category, attributes in request.groups():
        parts.append(_ATTRIBUTES_OPEN[category])
        for attribute in attributes:
            parts.append(
                f'<Attribute AttributeId="{escape_attr(attribute.attribute_id)}"'
            )
            if attribute.issuer is not None:
                parts.append(f' Issuer="{escape_attr(attribute.issuer)}"')
            if attribute.values:
                parts.append(">")
                parts.extend(_value_xml(value) for value in attribute.values)
                parts.append("</Attribute>")
            else:
                parts.append(" />")
        parts.append("</Attributes>")
    if not parts:
        return "<Request />"
    return f"<Request>{''.join(parts)}</Request>"


def serialize_response(response: ResponseContext) -> str:
    parts = []
    for result in response.results:
        resource_id = result.resource_id
        status = result.status
        parts.append(
            "<Result><Decision>"
            if resource_id is None
            else f'<Result ResourceId="{escape_attr(resource_id)}"><Decision>'
        )
        parts.append(
            f"{result.decision.value}</Decision>"
            f'<Status><StatusCode Value="{status.code.value}" />'
        )
        if status.message:
            parts.append(
                f"<StatusMessage>{escape_text(status.message)}</StatusMessage>"
            )
        parts.append("</Status>")
        if result.obligations:
            parts.append(_obligations_xml(result.obligations))
        parts.append("</Result>")
    if not parts:
        return "<Response />"
    return f"<Response>{''.join(parts)}</Response>"
