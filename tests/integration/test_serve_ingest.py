"""Wire ingest: ``POST /relations`` and ``POST /update`` bodies.

A well-formed body is checked in whole-payload passes and built by one
:meth:`KRelation.from_rows`; a malformed one is walked row by row, so its
400 names the first bad row.  The messages below are the contract:
each case puts one bad row at index 1, after a good row, and is sent
alone (the bulk passes must catch it) and followed by a row that is
bad another way (the first bad row is the one named).
"""

from __future__ import annotations

import http.client
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import KDatabase, KRelation
from repro.semirings import INT, NAT
from repro.serve import start_in_thread

GOOD = {"values": ["a1", 1]}
LATER_BAD = "not a row"

#: case -> (the bad row, or None for a bad column list; the 400 message
#: with ``{ctx}`` for the request's context)
CASES = {
    "row is not an object": (["a2", 2], "{ctx}: row 1 must be an object"),
    "missing values": ({"annotation": 1}, "{ctx} row 1: missing required field 'values'"),
    "arity mismatch": ({"values": ["a2"]}, "{ctx}: row 1 has 1 values for 2 columns"),
    "non-scalar value": (
        {"values": ["a2", [1]]}, "{ctx}: row 1 value [1] is not a JSON scalar"),
    "NaN value": ({"values": ["a2", float("nan")]}, "{ctx}: row 1 has a NaN value"),
    "NaN annotation": (
        {"values": ["a2", 2], "annotation": float("nan")},
        "{ctx}: row 1 has a NaN annotation"),
    "annotation outside the semiring": (
        {"values": ["a2", 2], "annotation": -1},
        "annotation -1 is not an element of semiring N"),
    "non-string column": (None, "{ctx}: 'columns' must be a non-empty string list"),
}


def _request(address, method, path, payload):
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path, json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    base = KRelation.from_rows(NAT, ("K", "V"), [(("a0", 0), 1)])
    handle = start_in_thread(KDatabase(NAT, {"A": base}))
    try:
        yield handle
    finally:
        handle.close()


def _body(path, case, tail):
    bad_row, _message = CASES[case]
    columns = ["K", 5] if bad_row is None else ["K", "V"]
    rows = [GOOD, GOOD if bad_row is None else bad_row] + tail
    if path == "/relations":
        return "relation 'C'", {"name": "C", "relation": {"columns": columns, "rows": rows}}
    spec = {"rows": rows}
    if bad_row is None:
        spec["columns"] = columns
    return "delta for 'A'", {"relations": {"A": spec}}


@pytest.mark.parametrize("tail", [[], [LATER_BAD]], ids=["alone", "then-another"])
@pytest.mark.parametrize("path", ["/relations", "/update"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_body_names_its_first_bad_row(server, path, case, tail):
    context, body = _body(path, case, tail)
    before = server.server.manager.pin()
    status, err = _request(server.address, "POST", path, body)
    assert status == 400
    assert err["error"] == CASES[case][1].format(ctx=context)
    after = server.server.manager.pin()
    assert after.version == before.version and "C" not in after


SCALARS = st.one_of(
    st.sampled_from([3, 3.0, True, False, None, "3", "a"]),
    st.integers(min_value=-2, max_value=2),
    st.floats(allow_nan=False),
)


@st.composite
def wire_rows(draw):
    """Rows over a small domain (so they repeat), with ``Z`` annotations
    that may cancel, and ``3`` / ``3.0`` / ``True`` side by side."""
    domain = draw(st.lists(st.tuples(st.sampled_from(["k1", "k2"]), SCALARS),
                           min_size=1, max_size=4))
    rows = []
    for values in draw(st.lists(st.sampled_from(domain), max_size=12)):
        row = {"values": list(values)}
        annotation = draw(st.one_of(st.none(), st.integers(min_value=-2, max_value=2)))
        if annotation is not None:
            row["annotation"] = annotation
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def z_server():
    handle = start_in_thread(KDatabase(INT))
    try:
        yield handle
    finally:
        handle.close()


@settings(max_examples=60, deadline=None)
@given(rows=wire_rows())
def test_served_relation_is_from_rows_of_the_parsed_rows(z_server, rows):
    body = {"name": "C", "relation": {"columns": ["K", "V"], "rows": rows}}
    status, _ = _request(z_server.address, "POST", "/relations", body)
    assert status == 201
    parsed = json.loads(json.dumps(rows))
    expected = KRelation.from_rows(
        INT, ("K", "V"), [(r["values"], r.get("annotation", 1)) for r in parsed]
    )
    assert z_server.server.manager.pin().relation("C") == expected
