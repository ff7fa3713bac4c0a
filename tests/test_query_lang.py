"""The declarative query language: parsing, typing, canonical form."""

import pytest

from repro.core.policies import ReturnPolicy
from repro.query.lang import (
    Aggregate,
    Predicate,
    QueryParseError,
    Source,
    parse_query,
)


class TestParseTargets:
    def test_projection(self):
        query = parse_query("select value from keys")
        assert query.source is Source.KEYS
        assert query.field == "value"
        assert query.aggregate is Aggregate.PROJECT
        assert query.predicates == ()
        assert query.top_k is None
        assert query.policy is None

    def test_every_aggregate(self):
        for name, aggregate in (
            ("sum", Aggregate.SUM),
            ("count", Aggregate.COUNT),
            ("avg", Aggregate.AVG),
            ("min", Aggregate.MIN),
            ("max", Aggregate.MAX),
        ):
            query = parse_query(f"select {name}(est) from counters")
            assert query.aggregate is aggregate
            assert query.field == "est"

    def test_count_star(self):
        query = parse_query("select count(*) from ring")
        assert query.aggregate is Aggregate.COUNT
        assert query.field == "*"

    def test_star_outside_count_rejected(self):
        with pytest.raises(QueryParseError, match="count"):
            parse_query("select sum(*) from counters")

    def test_keywords_case_insensitive(self):
        query = parse_query("SELECT Sum(EST) FROM Counters WHERE key == 'a'")
        assert query.aggregate is Aggregate.SUM
        assert query.source is Source.COUNTERS


class TestTypeChecking:
    def test_unknown_source(self):
        with pytest.raises(QueryParseError, match="unknown source"):
            parse_query("select value from flows")

    def test_field_not_on_source(self):
        with pytest.raises(QueryParseError, match="unknown field"):
            parse_query("select est from keys")

    def test_numeric_aggregate_over_text_field(self):
        with pytest.raises(QueryParseError, match="numeric"):
            parse_query("select sum(value) from keys")

    def test_policy_only_on_keys(self):
        with pytest.raises(QueryParseError, match="keys"):
            parse_query("select est from counters policy plurality")

    def test_top_only_on_projections(self):
        with pytest.raises(QueryParseError, match="projection"):
            parse_query("select sum(est) from counters top 3")

    def test_unknown_policy(self):
        with pytest.raises(QueryParseError, match="unknown policy"):
            parse_query("select value from keys policy always")

    def test_unknown_operator(self):
        with pytest.raises(QueryParseError, match="operator"):
            parse_query("select value from keys where key like 3")

    def test_unlexable_text(self):
        with pytest.raises(QueryParseError, match="lex"):
            parse_query("select value, key from keys")

    def test_truncated_query(self):
        with pytest.raises(QueryParseError, match="end of query"):
            parse_query("select value from")


class TestClauses:
    def test_where_chain(self):
        query = parse_query(
            'select est from counters where key contains "flow" and est >= 10'
        )
        assert len(query.predicates) == 2
        assert query.key_predicates == (
            Predicate(field="key", op="contains", literal="flow"),
        )
        assert query.row_predicates == (
            Predicate(field="est", op=">=", literal=10),
        )

    def test_top_with_explicit_order(self):
        query = parse_query("select est from sketch top 5 by est")
        assert query.top_k == 5
        assert query.order_field == "est"

    def test_top_default_order_is_source_specific(self):
        assert parse_query("select est from counters top 2").order_field == "est"
        assert parse_query("select record from ring top 2").order_field == "index"
        assert parse_query("select value from keys top 2").order_field == "answered"

    def test_top_rejects_non_positive(self):
        with pytest.raises(QueryParseError, match="top"):
            parse_query("select est from counters top 0")

    def test_policy_parsed(self):
        query = parse_query("select value from keys policy consensus_2")
        assert query.policy is ReturnPolicy.CONSENSUS_2

    def test_boolean_literals(self):
        where = "select key from keys where "
        (true,) = parse_query(where + "answered == true").predicates
        (false,) = parse_query(where + "answered != FALSE").predicates
        assert true.literal is True and false.literal is False
        assert true.matches({"answered": True})
        assert not true.matches({"answered": False})
        assert false.matches({"answered": True})
        # Quoted, the word stays a string.
        (quoted,) = parse_query(where + 'key == "true"').predicates
        assert quoted.literal == "true" and isinstance(quoted.literal, str)
        assert quoted.matches({"key": "true"})


class TestPredicateMatching:
    def test_bytes_compared_as_stripped_text(self):
        predicate = Predicate(field="value", op="==", literal="v7")
        assert predicate.matches({"value": b"v7\x00\x00\x00"})
        assert not predicate.matches({"value": b"v8\x00"})

    def test_bool_compared_as_int(self):
        predicate = Predicate(field="answered", op="==", literal=1)
        assert predicate.matches({"answered": True})
        assert not predicate.matches({"answered": False})

    def test_absent_field_never_matches(self):
        assert not Predicate(field="est", op=">", literal=0).matches({})

    def test_numeric_literal_against_text_value(self):
        assert not Predicate(field="key", op=">", literal=3).matches(
            {"key": "flow"}
        )

    def test_contains(self):
        predicate = Predicate(field="key", op="contains", literal="ow-1")
        assert predicate.matches({"key": "flow-12"})
        assert not predicate.matches({"key": "flow-2"})


class TestCanonicalForm:
    def test_round_trips_through_parser(self):
        text = (
            'select est from counters where key contains "flow" '
            "and est >= 10 top 3 by est"
        )
        query = parse_query(text)
        assert parse_query(query.canonical()) == query

    def test_normalizes_spelling(self):
        spellings = [
            "select sum(est) from counters where key == 'a'",
            'SELECT   SUM(est)  FROM counters   WHERE key == "a"',
        ]
        canonicals = {parse_query(text).canonical() for text in spellings}
        assert len(canonicals) == 1

    def test_boolean_literal_round_trips(self):
        query = parse_query("select count(*) from keys where answered == true")
        assert "answered == true" in query.canonical()
        assert parse_query(query.canonical()) == query

    def test_policy_in_canonical(self):
        query = parse_query("select value from keys policy first_match")
        assert "policy first_match" in query.canonical()
