"""A float aggregate view stays equal to re-evaluation, write by write.

Collapsing a float SUM on construction would make maintenance drift:
``fsum(a) + fsum(b) != fsum(a + b)``, so a view fed 0.1, 0.2 and 0.3 one
``apply`` at a time would read 0.6000000000000001 against re-evaluation's
0.6.  Float tensors therefore keep their entries, and the maintained
state is the one re-evaluation builds — by ``==`` and by ``pretty()`` —
whatever order the rows arrive in.  The exact values of a column that
mixes ints and floats fold into one entry beside the float entries, on
every path, so a view fed the ints first holds the form re-evaluation
builds from all the rows at once.
"""

import pytest

from repro.core import AvgAgg, GroupBy, KDatabase, KRelation, Project, Table
from repro.ivm import MaterializedView
from repro.monoids import PROD, SUM
from repro.semirings import NAT

#: sums of these re-associate visibly: 0.1 + 0.2 + 0.3, absorption at 1e16
VALUES = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 0.7]


@pytest.mark.parametrize("query", [
    GroupBy(Table("R"), ["g"], {"v": SUM}),
    AvgAgg(Project(Table("R"), ("v",)), "v"),
], ids=["SUM", "AVG"])
@pytest.mark.parametrize("order", [VALUES, VALUES[::-1]], ids=["forward", "backward"])
def test_a_float_view_fed_one_row_at_a_time_equals_re_evaluation(query, order):
    columns = ("id", "g", "v")
    db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, columns, [])})
    view = MaterializedView.create(db, query)
    for i, v in enumerate(order):
        view.apply({"R": KRelation.from_rows(NAT, columns, [((i, "a", v), 1)])})
        want = query.evaluate(db)
        assert view.check() and view.result() == want
        assert view.result().pretty() == want.pretty()
    (tup, _k), = view.result().rows()
    assert len(tup["v"]) == len(order)  # every entry kept


@pytest.mark.parametrize("query, ints, floats", [
    (GroupBy(Table("R"), ["g"], {"v": PROD}), [3, 5], [0.1]),  # 0.1*15 vs 0.1*3*5
    (GroupBy(Table("R"), ["g"], {"v": SUM}), [2 ** 53, 1], [0.5]),
    (AvgAgg(Project(Table("R"), ("v",)), "v"), [2 ** 53, 1, 7], [0.5, 0.25]),
], ids=["PROD", "SUM", "AVG"])
def test_a_mixed_view_fed_ints_first_equals_re_evaluation(query, ints, floats):
    columns = ("id", "g", "v")
    db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, columns, [])})
    view = MaterializedView.create(db, query)
    for i, v in enumerate(ints + floats):
        view.apply({"R": KRelation.from_rows(NAT, columns, [((i, "a", v), 1)])})
        want = query.evaluate(db)
        assert view.check() and view.result() == want
        assert view.result().pretty() == want.pretty()
    (tup, _k), = view.result().rows()
    assert len(tup["v"]) == 1 + len(floats)  # the ints' one entry, and each float's
