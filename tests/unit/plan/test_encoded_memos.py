"""What the encoded tier decides once, and when it decides again.

A dictionary is never grown in place, so work that depends only on a
version's dictionaries is kept: a join's probe translation, a union's
merged dictionary and a self-join selection's translation are built once
per pair of dictionaries (``op="translate"``, ``memo`` or ``built``), an
aggregated column is decoded to numbers once per column, and the collapse
kernel checks a dictionary once per monoid.  A ``GROUP BY`` reduces its
totals once, and reads the groups present off the sums where they show
them (``presence=totals``).  Every memo must give way to new dictionaries
after a write.  The answers are checked against the interpreter in every
case, so the object-tier cases run without NumPy; the array cases skip
there.
"""

import threading

import pytest

from repro.core import (AttrEq, AttrEqAttr, AvgAgg, GroupBy, KDatabase, KRelation,
                        NaturalJoin, Project, Select, Table, Union)
from repro.monoids import SUM
from repro.monoids.counting import AVG
from repro.obs.analyze import analyze_query
from repro.obs.metrics import ENCODED_KERNEL
from repro.plan.encoded import encoded_scan
from repro.plan.kernels import HAVE_NUMPY
from repro.semirings import INT, NAT

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the memos are the encoded tier's")

FACT = ("Id", "G", "V")
DIM = ("G", "Region")
JOINED = NaturalJoin(Table("Fact"), Table("Dim"))
A1 = GroupBy(JOINED, ["G"], {"V": SUM}, count_attr="N")
A2 = Project(Select(JOINED, [AttrEq("Region", "EU")]), ["G"])
A3 = Union(Project(Select(Table("Fact"), [AttrEq("V", 13)]), ["G"]),
           Project(Table("Dim"), ["G"]))


def analytic_db(semiring=NAT, rows=600, groups=12):
    """``scan_analytic``'s shape, small: Dim in key order, Fact dealt over
    its keys with annotations 1..3 (``-1..1`` over ``Z``, where groups
    may cancel)."""
    ann = (lambda i: 1 + i % 3) if semiring is NAT else (lambda i: i % 3 - 1 or 2)
    fact = [((i, f"g{i * 7 % groups}", i % 17), ann(i)) for i in range(rows)]
    dim = [((f"g{j}", "EU" if j % 2 else "US"), 1) for j in range(groups)]
    return KDatabase(semiring, {
        "Fact": KRelation.from_rows(semiring, FACT, fact),
        "Dim": KRelation.from_rows(semiring, DIM, dim),
    })


def translations(before):
    after = ENCODED_KERNEL.values()
    return {kernel: after.get(("translate", kernel), 0) - before.get(("translate", kernel), 0)
            for kernel in ("memo", "built")}


def scan_column(db, table, attr):
    return encoded_scan(db, table, db.relation(table)).col(attr)


@needs_numpy
def test_a_second_evaluation_translates_by_memo_and_decodes_once():
    db = analytic_db()
    first = A1.evaluate(db, engine="planned")
    numbers = scan_column(db, "Fact", "V").numbers
    assert numbers is not None  # the join handed over the scan's very column
    before = ENCODED_KERNEL.values()
    second = A1.evaluate(db, engine="planned")
    assert translations(before) == {"memo": 1, "built": 0}
    assert scan_column(db, "Fact", "V").numbers is numbers
    assert first == second == A1.evaluate(db, engine="interpreted")


@needs_numpy
def test_union_and_self_join_selection_translate_once_per_pair():
    db = analytic_db()
    same = Select(Table("Fact"), [AttrEqAttr("Id", "V")])
    for query in (A3, same):
        query.evaluate(db, engine="planned")
        before = ENCODED_KERNEL.values()
        assert query.evaluate(db, engine="planned") == query.evaluate(db, engine="interpreted")
        assert translations(before) == {"memo": 1, "built": 0}


@needs_numpy
@pytest.mark.parametrize("semiring,presence", [(NAT, "totals"), (INT, "scatter")])
def test_the_spans_say_how_the_groups_present_were_found(semiring, presence):
    db = analytic_db(semiring)
    for query, span in ((A1, "GroupedAggregate"), (Project(Table("Fact"), ["G"]), "Fused")):
        result, root, _plan = analyze_query(query, db, tier="encoded")
        assert result == query.evaluate(db, engine="interpreted")
        found = [s for s in _walk(root) if s.name.startswith(span)]
        assert [s.attrs["presence"] for s in found] == [presence]


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


@pytest.mark.parametrize("table,row,grows", [
    ("Dim", (("g99", "EU"), 1), True),
    ("Fact", ((10_000, "g99", 5), 2), True),
    ("Fact", ((10_000, "g3", 5), 2), False),
], ids=["dim", "fact", "fact-known-key"])
def test_a_write_gives_new_dictionaries_only_with_a_new_value(table, row, grows):
    db = analytic_db()
    for query in (A1, A2, A3):
        query.evaluate(db, engine="planned")
        query.evaluate(db, engine="planned")  # every memo filled and hit
    old = scan_column(db, table, "G") if HAVE_NUMPY else None
    db.update({table: KRelation.from_rows(NAT, FACT if table == "Fact" else DIM, [row])})
    if HAVE_NUMPY:
        before = ENCODED_KERNEL.values()
        new = scan_column(db, table, "G")
        # the carried-forward column copies its dictionary before a new
        # value, and shares the old one's facts only while it does not
        assert (new.values is not old.values) is grows
        assert (new.facts is not old.facts) is grows
    for query in (A1, A2, A3):
        assert query.evaluate(db, engine="planned") == query.evaluate(db, engine="interpreted")
    if HAVE_NUMPY:  # the new version's plans start with empty memos
        assert translations(before) == {"memo": 0, "built": 3}


def test_avg_lifts_a_fresh_dictionary_every_run():
    db = analytic_db()
    avg = AvgAgg(Project(Table("Fact"), ("V",)), "V")
    for rows in ([((20_000, "g1", 4), 3)], [((20_001, "g2", 40), 1)]):
        assert avg.evaluate(db, engine="planned") == avg.evaluate(db, engine="interpreted")
        db.update({"Fact": KRelation.from_rows(NAT, FACT, rows)})
    assert avg.evaluate(db, engine="planned") == avg.evaluate(db, engine="interpreted")
    if HAVE_NUMPY:  # the lifted pairs' checks stay with the lifted column
        assert ("collapse", AVG) not in scan_column(db, "Fact", "V").facts


def test_threads_making_the_first_reads_of_one_version_agree():
    db = analytic_db()
    want = [query.evaluate(db, engine="interpreted") for query in (A1, A2, A3)]
    threads, barrier, got, errors = 4, threading.Barrier(4), [], []

    def body():
        try:
            barrier.wait()
            got.append([query.evaluate(db, engine="planned") for query in (A1, A2, A3)])
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    workers = [threading.Thread(target=body) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert not errors, errors
    assert got == [want] * threads
