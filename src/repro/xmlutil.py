"""Shared XML escaping helpers for the hand-rolled wire formats.

Every wire format in this repository serializes XML by string formatting
and parses it by regex; values that contain markup characters must
therefore round-trip through ``xml.sax.saxutils``.  ``quoteattr`` emits
``name="value"`` (or ``name='value'`` when the value itself contains a
double quote), and :func:`parse_attrs` is its exact inverse.  The
helpers started life in :mod:`repro.revocation.records`; they live here,
below every layer, so that low-layer formats (the PIP query protocol,
for one) can use them without an upward dependency.

:func:`escape_text` and :func:`escape_attr` are the other family: they
reproduce ElementTree's ``tostring`` escaping character for character,
so the template-built XACML context encoder emits the same bytes as the
ElementTree tree it replaced.
"""

from __future__ import annotations

import re
from xml.sax.saxutils import unescape

#: ``quoteattr`` may emit &quot;/&apos; (value contains both quote
#: styles); ``unescape`` needs them named to invert it exactly.
_ATTR_ENTITIES = {"&quot;": '"', "&apos;": "'"}


def escape_text(text: str) -> str:
    """Escape element text exactly as ElementTree does: ``&``, ``<``, ``>``."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attr(text: str) -> str:
    """Escape a double-quoted attribute value exactly as ElementTree does.

    The three text escapes plus ``"``, and ``\\r``/``\\n``/``\\t`` as
    numeric character references so that attribute-value normalisation
    on the reading side cannot turn them into spaces.
    """
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def parse_attrs(attr_text: str) -> dict[str, str]:
    """Parse ``name="value"`` / ``name='value'`` pairs, unescaping values.

    The exact inverse of ``quoteattr`` serialization; shared by every
    wire format so hostile characters in targets or subject ids
    round-trip losslessly everywhere.
    """
    return {
        m.group(1): unescape(
            m.group(2) if m.group(2) is not None else m.group(3),
            _ATTR_ENTITIES,
        )
        for m in re.finditer(r"(\w+)=(?:\"([^\"]*)\"|'([^']*)')", attr_text)
    }
