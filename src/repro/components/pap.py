"""Policy Administration Point: the policy repository and its interface.

"The PAP components provide administrators the ability to insert policies
into the authorisation system" (paper §2.2).  This PAP stores versioned
policy elements, serves retrieval queries from PDPs (the remote fetches
that caching and syndication — E5/E6 — exist to reduce) and accepts
publish/withdraw operations, optionally guarded by an authorisation hook
so the access control system protects itself with its own machinery
(paper §3.2, "Security of Access Control Systems").

Policy sync costs O(changed policies) in CPU, with the wire bytes
unchanged:

* **Fragment cache.**  Each repository entry encodes its element once,
  on the first retrieve after it was published, and a retrieve joins the
  cached fragments.  A one-policy write re-encodes one policy.
* **Digest reuse.**  :func:`parse_bundle` splits a bundle in one linear
  pass and keys each fragment by a SHA-256 digest of its exact text.  A
  PDP passes the digests of its previous bundle, so only fragments whose
  text changed are parsed again.  Content between or after the elements
  is an error, never a silently shorter policy set.
* **Fail-closed refresh.**  A PDP whose refresh fails (PAP unreachable,
  undecodable bundle, a policy that does not parse) keeps its old store
  and answers with a counted ``pdp:policy-unavailable`` fault, which
  the PEP turns into a deny.  A publish that does not decode is a
  counted ``pap:bad-request`` fault.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.combining import CombiningError
from ..xacml.parser import ParseError, parse_policy
from ..xacml.policy import Policy, PolicySet, child_identifier
from ..xacml.serializer import serialize_policy
from ..xacml.validation import is_deployable
from .base import Component, ComponentIdentity, RpcFault

PolicyElement = Union[Policy, PolicySet]

#: Guard callback: (operation, requester, policy_id) -> allowed?
AdminGuard = Callable[[str, str, str], bool]


@dataclass
class RepositoryEntry:
    element: PolicyElement
    version: int
    published_at: float
    publisher: str = ""

    @cached_property
    def xml(self) -> str:
        """The element's bundle fragment, encoded on first retrieve.

        Elements are frozen, so the fragment is a pure function of the
        entry; publishing a replacement makes a new entry.  Encoding
        lazily keeps bulk publishing as cheap as before.
        """
        return serialize_policy(self.element)


class PolicyRepository:
    """Versioned store of policy elements.

    Every mutation bumps a global revision counter; PDP policy caches use
    the revision to detect staleness cheaply.
    """

    def __init__(self) -> None:
        self._entries: dict[str, RepositoryEntry] = {}
        self.revision = 0

    def publish(
        self, element: PolicyElement, at: float = 0.0, publisher: str = ""
    ) -> int:
        identifier = child_identifier(element)
        self.revision += 1
        previous = self._entries.get(identifier)
        version = previous.version + 1 if previous else 1
        self._entries[identifier] = RepositoryEntry(
            element=element, version=version, published_at=at, publisher=publisher
        )
        return version

    def withdraw(self, identifier: str) -> bool:
        if identifier in self._entries:
            del self._entries[identifier]
            self.revision += 1
            return True
        return False

    def get(self, identifier: str) -> Optional[PolicyElement]:
        entry = self._entries.get(identifier)
        return entry.element if entry else None

    def all_elements(self) -> list[PolicyElement]:
        return [entry.element for entry in self._entries.values()]

    def entries(self) -> list[RepositoryEntry]:
        return list(self._entries.values())

    def identifiers(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._entries


def serialize_bundle(
    elements: Iterable[Union[PolicyElement, RepositoryEntry]], revision: int
) -> str:
    """Encode a ``<PolicyBundle>``.

    A :class:`RepositoryEntry` contributes its cached fragment, so a PAP
    serving a repository that changed by one policy encodes one policy;
    a bare element is encoded fresh.  Both give the same bytes.
    """
    # One join, so the megabyte-sized text is built without a copy.
    parts = [f'<PolicyBundle revision="{revision}">']
    parts.extend(
        item.xml if isinstance(item, RepositoryEntry) else serialize_policy(item)
        for item in elements
    )
    parts.append("</PolicyBundle>")
    return "".join(parts)


_BUNDLE_HEAD = re.compile(r'<PolicyBundle revision="(\d+)">')
_BUNDLE_TAIL = "</PolicyBundle>"
_ELEMENT_OPEN = re.compile(r"<(Policy|PolicySet)[ >]")
#: Per top-level tag, its own open and close tags.  A PolicySet's inner
#: Policies are not PolicySet tokens (and ``<PolicySet`` is not a
#: ``<Policy[ >]`` token), so the depth counts only the outer tag.
_ELEMENT_TOKENS = {
    tag: re.compile(f"<{tag}[ >]|</{tag}>") for tag in ("Policy", "PolicySet")
}

#: Content digest of a bundle fragment -> the element it parses to.
FragmentMemo = dict[bytes, PolicyElement]


def parse_bundle(
    xml_text: str, memo: Optional[FragmentMemo] = None
) -> tuple[list[PolicyElement], int]:
    """Decode a ``<PolicyBundle>`` into its elements and revision.

    One linear pass splits the top-level ``<Policy>``/``<PolicySet>``
    fragments; anything else between or after them is a ``ValueError``,
    never a silently shorter policy set.  ``memo`` maps the fragment
    digests of the previous bundle to their elements: a fragment whose
    exact text was seen there is reused, and only new text is parsed.
    On success ``memo`` is replaced by this bundle's digests; on failure
    it is left as it was.
    """
    head = _BUNDLE_HEAD.match(xml_text)
    # ``stop`` is where the closing tag starts; like a ``$`` anchor, one
    # trailing newline after it is allowed.
    end = len(xml_text) - 1 if xml_text.endswith("\n") else len(xml_text)
    stop = end - len(_BUNDLE_TAIL)
    if (
        head is None
        or stop < head.end()
        or not xml_text.startswith(_BUNDLE_TAIL, stop)
    ):
        raise ValueError("not a PolicyBundle")
    revision = int(head.group(1))
    previous = memo or {}
    current: FragmentMemo = {}
    elements: list[PolicyElement] = []
    position = head.end()
    while position < stop:
        opened = _ELEMENT_OPEN.match(xml_text, position, stop)
        if opened is None:
            raise ValueError(
                f"unexpected content at offset {position - head.end()} "
                f"of PolicyBundle: {xml_text[position:position + 20]!r}"
            )
        tag = opened.group(1)
        tokens = _ELEMENT_TOKENS[tag]
        close = f"</{tag}>"
        depth = 1
        cursor = opened.end()
        while True:
            token = tokens.search(xml_text, cursor, stop)
            if token is None:
                raise ValueError(f"unbalanced <{tag}> in bundle")
            cursor = token.end()
            if token.group(0) != close:
                depth += 1
                continue
            depth -= 1
            if depth == 0:
                break
        fragment = xml_text[position:cursor]
        digest = hashlib.sha256(fragment.encode("utf-8", "surrogatepass")).digest()
        element = previous.get(digest)
        if element is None:
            element = parse_policy(fragment)
        current[digest] = element
        elements.append(element)
        position = cursor
    if memo is not None:
        memo.clear()
        memo.update(current)
    return elements, revision


class PolicyAdministrationPoint(Component):
    """Network-attached PAP.

    Operations (message kinds):

    * ``pap.retrieve`` — return all stored elements as a PolicyBundle;
    * ``pap.revision`` — return just the revision counter (cheap
      freshness probe for PDP policy caches);
    * ``pap.publish`` — store a policy (validated first);
    * ``pap.withdraw`` — remove a policy by id.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        guard: Optional[AdminGuard] = None,
        validate_on_publish: bool = True,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.repository = PolicyRepository()
        self.guard = guard
        self.validate_on_publish = validate_on_publish
        self.retrievals_served = 0
        #: Addresses notified on every policy change (paper §3.2: caching
        #: "reduces the flexibility of revoking old access control rules";
        #: invalidation push is the standard mitigation beyond TTLs).
        self._change_subscribers: list[str] = []
        self.invalidations_sent = 0
        self.on("pap.retrieve", self._handle_retrieve)
        self.on("pap.revision", self._handle_revision)
        self.on("pap.publish", self._handle_publish)
        self.on("pap.withdraw", self._handle_withdraw)
        self.on("pap.subscribe", self._handle_subscribe)

    # -- local API (used by in-domain administrators) ---------------------------

    def publish(self, element: PolicyElement, publisher: str = "local-admin") -> int:
        self._check_guard("publish", publisher, child_identifier(element))
        if self.validate_on_publish and not is_deployable(element):
            raise RpcFault(
                "pap:invalid-policy",
                f"policy {child_identifier(element)!r} failed validation",
            )
        version = self.repository.publish(element, at=self.now, publisher=publisher)
        self._notify_change(child_identifier(element))
        return version

    def withdraw(self, identifier: str, requester: str = "local-admin") -> bool:
        self._check_guard("withdraw", requester, identifier)
        removed = self.repository.withdraw(identifier)
        if removed:
            self._notify_change(identifier)
        return removed

    # -- change notification -----------------------------------------------------

    def subscribe_changes(self, address: str) -> None:
        """Register a component for policy-change notifications."""
        if address not in self._change_subscribers:
            self._change_subscribers.append(address)

    def _notify_change(self, policy_id: str) -> None:
        payload = (
            f'<PolicyChanged policyId="{policy_id}" '
            f'revision="{self.repository.revision}"/>'
        )
        for subscriber in self._change_subscribers:
            self.invalidations_sent += 1
            self.notify(subscriber, "pap.changed", payload)

    def _handle_subscribe(self, message: Message) -> str:
        self.subscribe_changes(message.sender)
        return "<Ack/>"

    def _check_guard(self, operation: str, requester: str, policy_id: str) -> None:
        if self.guard is not None and not self.guard(operation, requester, policy_id):
            raise RpcFault(
                "pap:unauthorised",
                f"{requester!r} may not {operation} {policy_id!r}",
            )

    # -- message handlers ---------------------------------------------------------

    def _handle_retrieve(self, message: Message) -> str:
        self.retrievals_served += 1
        return serialize_bundle(
            self.repository.entries(), self.repository.revision
        )

    def _handle_revision(self, message: Message) -> str:
        return f'<PapRevision value="{self.repository.revision}"/>'

    def _handle_publish(self, message: Message) -> str:
        try:
            element = parse_policy(str(message.payload))
        except (ParseError, ValueError, CombiningError) as exc:
            self.network.metrics.bump("pap.bad_request")
            raise RpcFault("pap:bad-request", str(exc)) from exc
        version = self.publish(element, publisher=message.sender)
        return f'<PapAck policyId="{child_identifier(element)}" version="{version}"/>'

    def _handle_withdraw(self, message: Message) -> str:
        match = re.match(r'<PapWithdraw policyId="([^"]*)"/>$', str(message.payload))
        if match is None:
            self.network.metrics.bump("pap.bad_request")
            raise RpcFault("pap:bad-request", "malformed withdraw")
        removed = self.withdraw(match.group(1), requester=message.sender)
        return f'<PapAck policyId="{match.group(1)}" removed="{str(removed).lower()}"/>'


def parse_revision(xml_text: str) -> int:
    match = re.match(r'<PapRevision value="(\d+)"/>$', xml_text)
    if match is None:
        raise ValueError("not a PapRevision")
    return int(match.group(1))
