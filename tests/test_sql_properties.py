"""Property-based tests for the SQL front end.

Queries are generated structurally, rendered to SQL text, parsed back,
and the extracted AST must match the generating structure — a round-trip
property that exercises the tokenizer and parser across the whole
supported grammar.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.sql import parse

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}",
                            fullmatch=True).filter(
    lambda name: name.upper() not in {
        "SELECT", "FROM", "WHERE", "AND", "ORDER", "BY", "LIMIT",
        "OFFSET", "ASC", "DESC", "PER", "JOIN", "ON", "INNER", "LEFT",
        "OUTER", "GROUP"})

operators = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])

int_literals = st.integers(min_value=0, max_value=10**9)
float_literals = st.floats(min_value=0, max_value=10**6,
                           allow_nan=False, allow_infinity=False)
string_literals = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                           blacklist_characters="'"),
    max_size=12)


@st.composite
def queries(draw):
    columns = draw(st.one_of(
        st.none(),
        st.lists(identifiers, min_size=1, max_size=5, unique=True)))
    table = draw(identifiers)
    predicates = draw(st.lists(
        st.tuples(identifiers, operators,
                  st.one_of(int_literals, string_literals)),
        max_size=3))
    order_by = draw(st.lists(
        st.tuples(identifiers, st.booleans()), max_size=3,
        unique_by=lambda item: item[0]))
    limit = draw(st.one_of(st.none(), st.integers(0, 10**6)))
    offset = draw(st.integers(0, 10**6)) if limit is not None else 0
    return columns, table, predicates, order_by, limit, offset


def render(columns, table, predicates, order_by, limit, offset):
    parts = ["SELECT", ", ".join(columns) if columns else "*",
             "FROM", table]
    if predicates:
        rendered = []
        for column, op, value in predicates:
            if isinstance(value, str):
                rendered.append(f"{column} {op} '{value}'")
            else:
                rendered.append(f"{column} {op} {value}")
        parts += ["WHERE", " AND ".join(rendered)]
    if order_by:
        rendered = [f"{column} {'ASC' if ascending else 'DESC'}"
                    for column, ascending in order_by]
        parts += ["ORDER BY", ", ".join(rendered)]
    if limit is not None:
        parts += ["LIMIT", str(limit)]
        if offset:
            parts += ["OFFSET", str(offset)]
    return " ".join(parts)


@given(queries())
@settings(max_examples=200, deadline=None)
def test_query_round_trip(query):
    columns, table, predicates, order_by, limit, offset = query
    parsed = parse(render(*query))
    assert parsed.columns == columns
    assert parsed.table == table
    assert [(p.column, p.op, p.value) for p in parsed.predicates] \
        == [(c, "!=" if op == "<>" else op, v)
            for c, op, v in predicates]
    assert [(o.column, o.ascending) for o in parsed.order_by] == order_by
    assert parsed.limit == limit
    assert parsed.offset == offset


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes_unexpectedly(text):
    """Arbitrary input either parses or raises SqlSyntaxError — never
    any other exception."""
    from repro.errors import SqlSyntaxError

    try:
        parse(text)
    except SqlSyntaxError:
        pass
