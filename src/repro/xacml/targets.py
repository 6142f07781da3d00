"""Targets: the applicability test of rules, policies and policy sets.

A target is a disjunction (AnyOf) of conjunctions (AllOf) of individual
:class:`Match` elements, each comparing a literal against a designated
request attribute.  Targets decide *whether a policy applies at all*,
before conditions run — and they are the structure the engine indexes to
stay fast at scale (experiment E14).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import functions
from .attributes import (
    ACTION_ID,
    AttributeDesignator,
    AttributeValue,
    Category,
    DataType,
    RESOURCE_ID,
    SUBJECT_ID,
    string,
)
from .expressions import EvaluationContext, Indeterminate, _type_short_name


class MatchResult(enum.Enum):
    MATCH = "match"
    NO_MATCH = "no-match"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Match:
    """One Match element: ``function(literal, candidate)`` over a bag.

    Per the standard, a Match is true if the function returns true for
    *any* value in the designated bag.
    """

    match_function: str
    value: AttributeValue
    designator: AttributeDesignator

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        func = functions.lookup(self.match_function)
        try:
            bag = ctx.resolve(self.designator)
        except Indeterminate:
            return MatchResult.INDETERMINATE
        saw_error = False
        for candidate in bag:
            try:
                result = func(self.value, candidate)
            except functions.FunctionError:
                saw_error = True
                continue
            if isinstance(result, AttributeValue) and result.value is True:
                return MatchResult.MATCH
        if saw_error:
            return MatchResult.INDETERMINATE
        return MatchResult.NO_MATCH


@dataclass(frozen=True)
class AllOf:
    """A conjunction of matches; true only if every match is true."""

    matches: tuple[Match, ...]

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        indeterminate = False
        for match in self.matches:
            result = match.evaluate(ctx)
            if result is MatchResult.NO_MATCH:
                return MatchResult.NO_MATCH
            if result is MatchResult.INDETERMINATE:
                indeterminate = True
        if indeterminate:
            return MatchResult.INDETERMINATE
        return MatchResult.MATCH


@dataclass(frozen=True)
class AnyOf:
    """A disjunction of AllOf groups; true if any group is true."""

    all_ofs: tuple[AllOf, ...]

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        indeterminate = False
        for all_of in self.all_ofs:
            result = all_of.evaluate(ctx)
            if result is MatchResult.MATCH:
                return MatchResult.MATCH
            if result is MatchResult.INDETERMINATE:
                indeterminate = True
        if indeterminate:
            return MatchResult.INDETERMINATE
        return MatchResult.NO_MATCH


@dataclass(frozen=True)
class Target:
    """Applicability predicate; an empty target matches everything."""

    any_ofs: tuple[AnyOf, ...] = ()

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        indeterminate = False
        for any_of in self.any_ofs:
            result = any_of.evaluate(ctx)
            if result is MatchResult.NO_MATCH:
                return MatchResult.NO_MATCH
            if result is MatchResult.INDETERMINATE:
                indeterminate = True
        if indeterminate:
            return MatchResult.INDETERMINATE
        return MatchResult.MATCH

    @property
    def matches_everything(self) -> bool:
        return not self.any_ofs

    def literal_equality_keys(self) -> dict[tuple[Category, str], set[str]]:
        """Extract {(category, attribute_id): {values}} from every equality
        match, whatever branch it sits in.

        A syntactic summary for conflict footprints.  It is *not* a sound
        applicability bound (see :meth:`constraining_values`), so neither
        the target index nor delegation scoping uses it.
        """
        keys: dict[tuple[Category, str], set[str]] = {}
        for any_of in self.any_ofs:
            for all_of in any_of.all_ofs:
                for match in all_of.matches:
                    if not match.match_function.endswith("-equal"):
                        continue
                    key = (match.designator.category, match.designator.attribute_id)
                    keys.setdefault(key, set()).add(match.value.lexical())
        return keys

    def constraining_values(
        self, category: Category, attribute_id: str
    ) -> "set[str] | None":
        """Values the designated attribute *must* take for a match.

        Returns a set ``V`` such that the target can only match requests
        whose ``(category, attribute_id)`` string values include one in
        ``V``, or None when the target does not constrain that
        attribute.  This is the sound criterion the target index, store
        partitioning and delegation scoping share —
        :meth:`literal_equality_keys` is *not* enough, because it
        collects equality matches from any branch: a target like
        ``AnyOf[AllOf(resource=r1), AllOf(subject=s1)]`` mentions ``r1``
        yet matches any resource via the subject branch.

        The target is a conjunction of AnyOf groups, so it is enough for
        *one* AnyOf to be fully constrained: every AllOf alternative in
        that group carries a bounding match on the attribute, making the
        union of those literals a superset of the matchable values.
        Only :func:`is_bounding_match` matches count; any other equality
        function leaves the attribute unconstrained.
        """
        for any_of in self.any_ofs:
            values: set[str] = set()
            fully_constrained = bool(any_of.all_ofs)
            for all_of in any_of.all_ofs:
                found = {
                    match.value.value
                    for match in all_of.matches
                    if match.designator.category is category
                    and match.designator.attribute_id == attribute_id
                    and is_bounding_match(match)
                }
                if not found:
                    fully_constrained = False
                    break
                values |= found
            if fully_constrained:
                return values
        return None


STRING_EQUAL = f"{functions.FUNCTION_PREFIX_1_0}string-equal"


def is_bounding_match(match: Match) -> bool:
    """True when the match is ``string-equal`` of a string literal against
    an issuer-free string designator.

    Such a match is MATCH exactly when the literal is among the request's
    string values for the attribute, and NO_MATCH when those values are
    present and the literal is not — no type error, issuer filter or
    function semantics can make it anything else.  That is what lets the
    target index skip an element from the request's values alone.
    """
    designator = match.designator
    return (
        match.match_function == STRING_EQUAL
        and match.value.data_type is DataType.STRING
        and designator.data_type is DataType.STRING
        and designator.issuer is None
    )


ANY_TARGET = Target()


def match_equal(
    category: Category, attribute_id: str, value: AttributeValue
) -> Match:
    """Build the ubiquitous equality match."""
    type_name = _type_short_name(value.data_type)
    return Match(
        match_function=f"{functions.FUNCTION_PREFIX_1_0}{type_name}-equal",
        value=value,
        designator=AttributeDesignator(
            category=category, attribute_id=attribute_id, data_type=value.data_type
        ),
    )


def target_of(*matches: Match) -> Target:
    """A target requiring all given matches (one AnyOf/AllOf each)."""
    return Target(
        any_ofs=tuple(AnyOf(all_ofs=(AllOf(matches=(m,)),)) for m in matches)
    )


def subject_resource_action_target(
    subject_id: str | None = None,
    resource_id: str | None = None,
    action_id: str | None = None,
) -> Target:
    """The canonical {subject, resource, action} target, any part optional."""
    matches = []
    if subject_id is not None:
        matches.append(match_equal(Category.SUBJECT, SUBJECT_ID, string(subject_id)))
    if resource_id is not None:
        matches.append(
            match_equal(Category.RESOURCE, RESOURCE_ID, string(resource_id))
        )
    if action_id is not None:
        matches.append(match_equal(Category.ACTION, ACTION_ID, string(action_id)))
    return target_of(*matches)
