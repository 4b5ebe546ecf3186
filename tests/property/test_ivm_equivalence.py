"""Property suite: incremental maintenance equals full recomputation.

Random SPJUA queries (an SPJU core under an optional aggregation head)
are materialised as views, then driven with random streams of
insert/delete/update batches; after every ``apply`` the maintained result
must equal evaluating the query from scratch on the updated database.
The property runs in four annotation regimes:

* ``N`` — bag multiplicities (insert streams: the Gupta–Mumick case);
* ``Z`` — ring annotations: deletions and updates as additive inverses;
* ``N[X]`` expanded — free provenance polynomials, token per insertion
  (equality over the free semiring pins every homomorphic
  specialisation at once);
* ``N[X]`` circuit — the same views maintained over the database's
  interned gate image, compared through lazy lowering.

Halfway through every stream the view is recovered as a server boot
recovers it — evaluated afresh over the database as it stands — and the
recovered copy carries on, so a view created mid-stream maintains
exactly for every head kind.
Token-based deletions (``zero_tokens``) are exercised separately on the
``N[X]`` regime.

A view's initial fold has two inputs: an encoded core batch with
machine-scalar annotations folds on the encoded kernel, anything else
through the object fold.  The last property builds every view twice,
once each way, over ``N``, ``Z`` with deletions, ``B`` and tropical,
and drives both with the same deltas.
"""

from functools import partial
from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import AttrEq, GroupBy, KDatabase, KRelation, Select, Table
from repro.exceptions import ReproError
from repro.ivm import MaterializedView, state
from repro.monoids import SUM
from repro.plan.encoded import EncodedFallback
from repro.plan.kernels import HAVE_NUMPY
from repro.semirings import BOOL, INT, NAT, NX, TROPICAL

from strategies import SCHEMAS, initial_rows, insert_stream, query

#: The shared head over an SPJU core the view layer maintains (no δ
#: below the head); ``N`` admits every head, and each regime draws it.
spjua_query = partial(query, NAT, without=("self_compared", "distinct"))


def build_db(semiring, rows, tag):
    relations = {}
    for name, attrs in SCHEMAS.items():
        relations[name] = KRelation.from_rows(
            semiring, attrs, [(row, tag()) for row in rows[name]]
        )
    return KDatabase(semiring, relations)


def deltas_of(semiring, batch, tag):
    return {
        name: KRelation.from_rows(semiring, SCHEMAS[name], [(r, tag()) for r in rows])
        for name, rows in batch.items()
    }


def fresh_tagger(semiring):
    counter = [0]
    if semiring is NX:
        def tag():
            counter[0] += 1
            return NX.variable(f"t{counter[0]}")
    else:
        def tag():
            counter[0] += 1
            return 1 + counter[0] % 3
    return tag


def recover(view, db, query):
    """The view as boot recovers it: evaluated over ``db`` as it stands,
    equal to recomputation before it maintains anything."""
    recovered = MaterializedView.create(db, query, annotations=view.annotations)
    assert recovered.result() == query.evaluate(db, engine="interpreted")
    return recovered


def drive(view, db, query, stream, make_deltas):
    """Apply every batch, asserting maintained == recomputed throughout;
    halfway, carry on with the view recovered by evaluation.  Returns
    the view that applied the last batch."""
    for i, batch in enumerate(stream):
        if i == len(stream) // 2:
            view = recover(view, db, query)
        view.apply(make_deltas(batch))
        assert view.result() == query.evaluate(db, engine="interpreted")
    return view


# ---------------------------------------------------------------------------
# the properties, one per annotation regime
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(rows=initial_rows(), query=spjua_query(), stream=insert_stream())
def test_ivm_equals_recompute_over_bags(rows, query, stream):
    tag = fresh_tagger(NAT)
    db = build_db(NAT, rows, tag)
    view = MaterializedView.create(db, query)
    assert view.result() == query.evaluate(db, engine="interpreted")
    drive(view, db, query, stream, lambda batch: deltas_of(NAT, batch, tag))


@settings(max_examples=60, deadline=None)
@given(rows=initial_rows(), query=spjua_query(), stream=insert_stream(),
       data=st.data())
def test_ivm_equals_recompute_over_z_with_deletions(rows, query, stream, data):
    """Z-annotations: each batch randomly deletes existing tuples (additive
    inverses) and inserts fresh ones — an update is a delete + insert."""
    tag = fresh_tagger(INT)
    db = build_db(INT, rows, tag)
    view = MaterializedView.create(db, query)

    def make_deltas(batch):
        deltas = {}
        for name, rows_in in batch.items():
            pairs = [(r, tag()) for r in rows_in]
            base = db[name]
            victims = data.draw(
                st.lists(
                    st.sampled_from(sorted(base.support(), key=str)),
                    max_size=2,
                    unique=True,
                )
                if len(base)
                else st.just([]),
                label=f"deletions[{name}]",
            )
            for tup in victims:
                pairs.append((tuple(tup[a] for a in SCHEMAS[name]),
                              -base.annotation(tup)))
            deltas[name] = KRelation.from_rows(INT, SCHEMAS[name], pairs)
        return deltas

    drive(view, db, query, stream, make_deltas)


@settings(max_examples=60, deadline=None)
@given(rows=initial_rows(), query=spjua_query(), stream=insert_stream())
def test_ivm_equals_recompute_over_free_polynomials(rows, query, stream):
    tag = fresh_tagger(NX)
    db = build_db(NX, rows, tag)
    view = MaterializedView.create(db, query)
    drive(view, db, query, stream, lambda batch: deltas_of(NX, batch, tag))


@settings(max_examples=40, deadline=None)
@given(rows=initial_rows(), query=spjua_query(), stream=insert_stream())
def test_ivm_equals_recompute_in_circuit_mode(rows, query, stream):
    tag = fresh_tagger(NX)
    db = build_db(NX, rows, tag)
    view = MaterializedView.create(db, query, annotations="circuit")
    assert view.result() == query.evaluate(db, engine="interpreted")
    drive(view, db, query, stream, lambda batch: deltas_of(NX, batch, tag))


@settings(max_examples=30, deadline=None)
@given(rows=initial_rows(), query=spjua_query(), stream=insert_stream(),
       data=st.data())
def test_token_zeroing_matches_deletion_propagation(rows, query, stream, data):
    """N[X] deletions: zeroing tokens in the view state equals re-evaluating
    the deletion-propagated database."""
    tag = fresh_tagger(NX)
    db = build_db(NX, rows, tag)
    view = MaterializedView.create(db, query)
    view = drive(view, db, query, stream, lambda batch: deltas_of(NX, batch, tag))
    live = sorted(
        {str(v) for _n, rel in db for _t, k in rel.items()
         for m in k.terms() for v in m[0].variables()}
    )
    if not live:
        return
    victims = data.draw(
        st.lists(st.sampled_from(live), max_size=3, unique=True), label="tokens"
    )
    view.zero_tokens(*victims)
    assert view.result() == query.evaluate(db, engine="interpreted")


# ---------------------------------------------------------------------------
# the initial fold: encoded kernel against the object fold
# ---------------------------------------------------------------------------


#: The semirings whose annotations the encoded kernel folds.
ENCODED_REGIMES = {"N": NAT, "Z": INT, "B": BOOL, "tropical": TROPICAL}


def regime_tagger(semiring):
    if semiring is BOOL:
        return lambda: True
    counter = [0]

    def tag():
        counter[0] += 1
        weight = 1 + counter[0] % 3
        return float(weight) if semiring is TROPICAL else weight
    return tag


def _decline(*_args):
    raise EncodedFallback("the object fold, for reference")


def create_by_object_fold(db, query):
    """The view as the object fold builds it (the encoded fold declines)."""
    with mock.patch.object(state, "fold_encoded", _decline):
        return MaterializedView.create(db, query)


def assert_same_state(view, reference):
    """Both heads hold the same groups, raw totals and tensors."""
    groups, expected = view._head.groups, reference._head.groups
    assert groups.keys() == expected.keys()
    for key, group in groups.items():
        assert group.total == expected[key].total, key
        assert group.tensors == expected[key].tensors, key
    assert view.result() == reference.result()


@settings(max_examples=80, deadline=None)
@given(regime=st.sampled_from(sorted(ENCODED_REGIMES)), rows=initial_rows(),
       query=spjua_query(), stream=insert_stream(), data=st.data())
def test_encoded_initial_fold_equals_object_fold(regime, rows, query, stream, data):
    semiring = ENCODED_REGIMES[regime]
    tag = regime_tagger(semiring)
    db = build_db(semiring, rows, tag)
    twin = KDatabase(semiring, dict(iter(db)))
    try:
        reference = create_by_object_fold(twin, query)
    except ReproError as exc:
        with pytest.raises(type(exc)):
            MaterializedView.create(db, query)
        return
    view = MaterializedView.create(db, query)
    assert_same_state(view, reference)
    assert view.result() == query.evaluate(db, engine="interpreted")
    for batch in stream:
        deltas = {}
        for name, rows_in in batch.items():
            pairs = [(r, tag()) for r in rows_in]
            base = db[name]
            if semiring is INT and len(base):
                victims = data.draw(
                    st.lists(st.sampled_from(sorted(base.support(), key=str)),
                             max_size=2, unique=True),
                    label=f"deletions[{name}]",
                )
                pairs += [(tuple(t[a] for a in SCHEMAS[name]), -base.annotation(t))
                          for t in victims]
            deltas[name] = KRelation.from_rows(semiring, SCHEMAS[name], pairs)
        view.apply(deltas)
        reference.apply(deltas)
        assert_same_state(view, reference)
    assert view.result() == query.evaluate(db, engine="interpreted")


def _fold_groups_calls(db, query, annotations="expanded"):
    calls = []

    def spy(*args):
        calls.append(args)
        return fold_groups(*args)

    fold_groups = state.fold_groups
    with mock.patch.object(state, "fold_groups", spy):
        MaterializedView.create(db, query, annotations=annotations)
    return len(calls)


def test_only_machine_scalar_views_fold_on_the_encoded_kernel():
    """An ``N`` view's initial fold skips :func:`fold_groups` (where NumPy
    runs the encoded tier); ``N[X]`` and circuit views still take it."""
    rows = {"R": [("g1", 5), ("g2", 10), ("g1", 20)], "S": [], "T": []}
    query = GroupBy(Select(Table("R"), [AttrEq("g", "g1")]), ["g"], {"v": SUM},
                    count_attr="n")
    assert _fold_groups_calls(build_db(NAT, rows, fresh_tagger(NAT)), query) == (
        0 if HAVE_NUMPY else 1
    )
    assert _fold_groups_calls(build_db(NX, rows, fresh_tagger(NX)), query) == 1
    assert _fold_groups_calls(
        build_db(NX, rows, fresh_tagger(NX)), query, annotations="circuit"
    ) == 1
