"""The declarative query language: text -> typed :class:`Query` plan input.

Sonata (PAPERS.md, arXiv 1705.01049) showed that a small declarative
surface -- filter, aggregate, top-k -- is enough to express most
operator telemetry questions, *and* that keeping it declarative is what
lets a planner push work down toward the data.  This module is that
surface for the DART reproduction, sized to the four read substrates the
fleet actually serves:

========== =================================== =======================
source     rows                                fields
========== =================================== =======================
keys       one per candidate key (DART slots)  key, value, answered
counters   one per candidate key (count-min)   key, est
sketch     one per candidate key (sketch bank) key, est
ring       one per readable Append record      index, record
========== =================================== =======================

Grammar (case-insensitive keywords; see DESIGN.md for the worked form)::

    query   := "select" target "from" source
               [ "where" pred ( "and" pred )* ]
               [ "top" INT [ "by" field ] ]
               [ "policy" NAME ]
    target  := field | agg "(" field ")" | "count" "(" "*" ")"
    agg     := "sum" | "count" | "avg" | "min" | "max"
    pred    := field op literal
    op      := "==" | "!=" | ">=" | "<=" | ">" | "<" | "contains"
    literal := NUMBER | "true" | "false" | "quoted string" | bareword

Everything parses into an immutable :class:`Query`; malformed text
raises :class:`QueryParseError` with the offending token.  The parsed
form is *typed*: fields are checked against the source, aggregates
against field numericity, so planner and service never see a query that
cannot execute.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple, Union

from repro.core.policies import ReturnPolicy

#: Literal value of one predicate comparison (``bool`` compares as 0/1).
LiteralValue = Union[bool, int, float, str]


class QueryParseError(ValueError):
    """Query text that does not parse (or does not type-check)."""


class Source(Enum):
    """The read substrate a query executes against."""

    KEYS = "keys"
    COUNTERS = "counters"
    SKETCH = "sketch"
    RING = "ring"


class Aggregate(Enum):
    """How matching rows are folded into the query's answer."""

    #: No fold: project the selected field of every matching row.
    PROJECT = "project"
    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


#: Fields each source's rows carry.
SOURCE_FIELDS: Dict[Source, Tuple[str, ...]] = {
    Source.KEYS: ("key", "value", "answered"),
    Source.COUNTERS: ("key", "est"),
    Source.SKETCH: ("key", "est"),
    Source.RING: ("index", "record"),
}

#: Fields with a numeric reading (valid for sum/avg/min/max and top-by).
NUMERIC_FIELDS = frozenset({"est", "index", "answered"})

#: Fields whose predicates can be evaluated from the key alone -- the
#: planner prunes these *before* any wire read (push-down to the top).
KEY_ONLY_FIELDS = frozenset({"key"})

_PREDICATE_OPS = ("==", "!=", ">=", "<=", ">", "<", "contains")

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<string>"[^"]*"|'[^']*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<op>==|!=|>=|<=|>|<|\(|\)|\*)
      | (?P<word>[A-Za-z_][\w.\-]*)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> Tuple[str, ...]:
    """Split query text into tokens; rejects unlexable characters."""
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise QueryParseError(
                f"cannot lex query at {remainder[:20]!r}"
            )
        tokens.append(match.group().strip())
        position = match.end()
    return tuple(token for token in tokens if token)


@dataclass(frozen=True)
class Predicate:
    """One ``field op literal`` filter clause.

    ``matches`` evaluates the clause against a row dict; bytes-valued
    fields (``value``, ``record``) are compared through their
    NUL-stripped latin-1 text so operators can write readable literals.
    """

    field: str
    op: str
    literal: LiteralValue

    def describe(self) -> str:
        """The clause in canonical query-text form."""
        literal = self.literal
        if isinstance(literal, bool):
            literal = str(literal).lower()
        elif isinstance(literal, str):
            literal = f'"{literal}"'
        return f"{self.field} {self.op} {literal}"

    def _coerce(self, value: object) -> object:
        """A row field value in comparable form (bytes -> text, bool -> int)."""
        if isinstance(value, bytes):
            return value.rstrip(b"\x00").decode("latin-1")
        if isinstance(value, bool):
            return int(value)
        return value

    def matches(self, row: Dict[str, object]) -> bool:
        """Whether ``row`` satisfies this clause (absent fields never do)."""
        value = self._coerce(row.get(self.field))
        if value is None:
            return False
        literal = self.literal
        if self.op == "contains":
            return str(literal) in str(value)
        if isinstance(literal, (int, float)) and not isinstance(
            value, (int, float)
        ):
            return False
        if isinstance(literal, str):
            value = str(value)
        if self.op == "==":
            return value == literal
        if self.op == "!=":
            return value != literal
        if self.op == ">=":
            return value >= literal
        if self.op == "<=":
            return value <= literal
        if self.op == ">":
            return value > literal
        return value < literal


@dataclass(frozen=True)
class Query:
    """A fully parsed, type-checked query (the planner's input).

    ``canonical()`` is the normalized text form -- the result cache keys
    on it, so two spellings of the same query share one cache entry.
    """

    source: Source
    field: str
    aggregate: Aggregate
    predicates: Tuple[Predicate, ...] = ()
    top_k: Optional[int] = None
    order_field: Optional[str] = None
    policy: Optional[ReturnPolicy] = None

    def canonical(self) -> str:
        """Normalized query text (whitespace/case-insensitive identity)."""
        if self.aggregate is Aggregate.PROJECT:
            target = self.field
        else:
            target = f"{self.aggregate.value}({self.field})"
        parts = [f"select {target} from {self.source.value}"]
        if self.predicates:
            clauses = " and ".join(p.describe() for p in self.predicates)
            parts.append(f"where {clauses}")
        if self.top_k is not None:
            parts.append(f"top {self.top_k} by {self.order_field}")
        if self.policy is not None:
            parts.append(f"policy {self.policy.value}")
        return " ".join(parts)

    @property
    def key_predicates(self) -> Tuple[Predicate, ...]:
        """Clauses decidable from the key alone (pruned before any read)."""
        return tuple(
            p for p in self.predicates if p.field in KEY_ONLY_FIELDS
        )

    @property
    def row_predicates(self) -> Tuple[Predicate, ...]:
        """Clauses needing read data (evaluated per shard, post-read)."""
        return tuple(
            p for p in self.predicates if p.field not in KEY_ONLY_FIELDS
        )


class _TokenStream:
    """Cursor over the token tuple with one-token lookahead."""

    def __init__(self, tokens: Tuple[str, ...]) -> None:
        self.tokens = tokens
        self.position = 0

    def peek(self) -> Optional[str]:
        """The next token, or None at end of input."""
        if self.position >= len(self.tokens):
            return None
        return self.tokens[self.position]

    def next(self, expected: Optional[str] = None) -> str:
        """Consume one token, optionally requiring an exact keyword."""
        token = self.peek()
        if token is None:
            raise QueryParseError(
                f"unexpected end of query (expected {expected or 'a token'})"
            )
        if expected is not None and token.lower() != expected:
            raise QueryParseError(
                f"expected {expected!r}, got {token!r}"
            )
        self.position += 1
        return token


def _parse_literal(token: str) -> LiteralValue:
    """A predicate literal from one token (number / quoted / bareword).

    Barewords ``true`` and ``false`` are booleans, which compare equal to
    1 and 0 (the ``answered`` field); quoted, they stay strings.
    """
    if token and token[0] in "\"'":
        return token[1:-1]
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    try:
        if re.fullmatch(r"-?\d+", token):
            return int(token)
        return float(token)
    except ValueError:
        return token


def _check_field(source: Source, field: str) -> str:
    """Validate ``field`` against the source's row shape."""
    fields = SOURCE_FIELDS[source]
    if field not in fields:
        raise QueryParseError(
            f"unknown field {field!r} for source {source.value!r} "
            f"(fields: {', '.join(fields)})"
        )
    return field


def parse_query(text: str) -> Query:
    """Parse and type-check one query string; raises :class:`QueryParseError`.

    >>> parse_query("select count(*) from keys where value contains 'v'")
    ... # doctest: +ELLIPSIS
    Query(...)
    """
    stream = _TokenStream(_tokenize(text))
    stream.next("select")

    # Target: field, agg(field) or count(*).
    head = stream.next().lower()
    aggregate = Aggregate.PROJECT
    if head in ("sum", "count", "avg", "min", "max") and stream.peek() == "(":
        aggregate = Aggregate(head)
        stream.next("(")
        field = stream.next().lower()
        stream.next(")")
    else:
        field = head
    if field == "*" and aggregate is not Aggregate.COUNT:
        raise QueryParseError("'*' is only valid inside count(*)")

    stream.next("from")
    source_token = stream.next().lower()
    try:
        source = Source(source_token)
    except ValueError:
        raise QueryParseError(
            f"unknown source {source_token!r} "
            f"(sources: {', '.join(s.value for s in Source)})"
        ) from None
    if field != "*":
        _check_field(source, field)
    if aggregate in (Aggregate.SUM, Aggregate.AVG, Aggregate.MIN, Aggregate.MAX):
        if field not in NUMERIC_FIELDS:
            raise QueryParseError(
                f"{aggregate.value}() needs a numeric field, got {field!r} "
                f"(numeric: {', '.join(sorted(NUMERIC_FIELDS))})"
            )

    predicates = []
    top_k: Optional[int] = None
    order_field: Optional[str] = None
    policy: Optional[ReturnPolicy] = None
    while stream.peek() is not None:
        clause = stream.next().lower()
        if clause == "where":
            while True:
                pred_field = _check_field(source, stream.next().lower())
                op = stream.next().lower()
                if op not in _PREDICATE_OPS:
                    raise QueryParseError(
                        f"unknown operator {op!r} "
                        f"(operators: {', '.join(_PREDICATE_OPS)})"
                    )
                literal = _parse_literal(stream.next())
                predicates.append(
                    Predicate(field=pred_field, op=op, literal=literal)
                )
                if (stream.peek() or "").lower() != "and":
                    break
                stream.next("and")
        elif clause == "top":
            count_token = stream.next()
            try:
                top_k = int(count_token)
            except ValueError:
                raise QueryParseError(
                    f"top expects an integer, got {count_token!r}"
                ) from None
            if top_k < 1:
                raise QueryParseError(f"top must be >= 1, got {top_k}")
            if (stream.peek() or "").lower() == "by":
                stream.next("by")
                order_field = _check_field(source, stream.next().lower())
            else:
                # Default order: the source's natural magnitude field.
                order_field = "est" if source in (
                    Source.COUNTERS, Source.SKETCH
                ) else "index" if source is Source.RING else "answered"
            if order_field not in NUMERIC_FIELDS:
                raise QueryParseError(
                    f"top ... by needs a numeric field, got {order_field!r}"
                )
        elif clause == "policy":
            if source is not Source.KEYS:
                raise QueryParseError(
                    "policy applies only to the keys source"
                )
            policy_token = stream.next().lower()
            try:
                policy = ReturnPolicy(policy_token)
            except ValueError:
                raise QueryParseError(
                    f"unknown policy {policy_token!r} (policies: "
                    f"{', '.join(p.value for p in ReturnPolicy)})"
                ) from None
        else:
            raise QueryParseError(f"unexpected clause {clause!r}")

    if top_k is not None and aggregate is not Aggregate.PROJECT:
        raise QueryParseError("top-k applies to projections, not aggregates")
    return Query(
        source=source,
        field=field,
        aggregate=aggregate,
        predicates=tuple(predicates),
        top_k=top_k,
        order_field=order_field,
        policy=policy,
    )
