"""How a grouped reduction finds the keys present, against the definition.

``kernels.reduce_by_key`` addresses the keys directly and marks the keys
present by a boolean scatter, unless the sums show them
(``kernels.marks_itself``: ``add`` over annotations all ``> 0``, ``or``
over all ``True``) or a reduction over the same keys handed them over (a
``GROUP BY``'s totals to its scaled values).  Every path must equal the
stable sort + ``reduceat`` reference, over ``N``, ``Z`` (groups cancelling
to 0), ``B``, tropical and Viterbi, with ``0_K`` annotations, scaled values
of 0 and below, and the empty batch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.plan.kernels import HAVE_NUMPY, marks_itself, np, reduce_by_key
from repro.semirings import BOOL, FUZZY, INT, NAT, TROPICAL

from strategies import keyed_rows

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="the kernels need NumPy")


def reference(keys, values, ufunc):
    """The definition: sort stably, reduce each run of equal keys."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    if not len(keys):
        return ordered, values[:0]
    return ordered[starts], ufunc.reduceat(values[order], starts)


def same(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    assert got[1].dtype == want[1].dtype


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_presence_path_equals_the_sorted_reference(data):
    semiring = data.draw(st.sampled_from([NAT, INT, BOOL, TROPICAL, FUZZY]))
    keys, annotations, values, space = data.draw(keyed_rows(semiring))
    machine = semiring.machine_repr
    keys, anns = np.asarray(keys, dtype=np.int64), machine.encode(annotations)
    plus, zero = machine.plus, machine.code(semiring.zero)
    totals = reference(keys, anns, plus)
    marked = marks_itself(anns, plus, zero)
    if marked:  # no group can sum to 0_K
        assert zero not in totals[1].tolist()
    same(reduce_by_key(keys, anns, plus, space, zero, "totals" if marked else None), totals)
    same(reduce_by_key(keys, anns, plus, space, zero), totals)
    if machine.dtype == "int64":  # SUM's scaled values take the totals' keys
        scaled = np.asarray(values, dtype=np.int64) * anns
        same(reduce_by_key(keys, scaled, np.add, space, 0, totals[0]),
             reference(keys, scaled, np.add))


def test_the_sums_mark_the_keys_only_where_nothing_cancels():
    ones = np.ones(4, dtype=np.int64)
    assert marks_itself(ones, np.add, 0)
    assert marks_itself(np.ones(3, dtype=bool), np.logical_or, False)
    assert not marks_itself(np.array([1, 0, 2]), np.add, 0)  # a 0 annotation
    assert not marks_itself(np.array([1, -1]), np.add, 0)  # Z may cancel
    assert not marks_itself(np.array([True, False]), np.logical_or, False)
    assert not marks_itself(np.array([1.0, 2.0]), np.minimum, np.inf)  # tropical
    assert not marks_itself(ones[:0], np.add, 0)  # the empty batch
