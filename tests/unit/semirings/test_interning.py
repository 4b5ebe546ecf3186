"""The interning core's generation rule, tested once for both stores.

``N[X]`` terms (:class:`~repro.semirings.terms.TermStore`, owned by the
semiring) and circuit gates (:class:`~repro.circuits.store.GateStore`,
owned by a builder) are two renderings of one core: a generation filled
to its cap hands its owner a fresh one, the kernel that missed falls back
under its counted label, a retired generation still decodes and maps its
ids, and a batch mixing two generations is refused.  The generation rule
itself needs no NumPy; the kernels do.
"""

import pytest

from repro.circuits.evaluate import evaluate_gates
from repro.circuits.nodes import CircuitBuilder
from repro.obs.metrics import ENCODED_KERNEL
from repro.plan.kernels import HAVE_NUMPY, np
from repro.semirings import NAT, NX
from repro.semirings.base import EncodedFallback
from repro.semirings.terms import TermStore, Unmappable, map_folds

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the kernels are NumPy")

CAP = 8


def two(tokens):
    return np.full(len(tokens), 2, dtype=np.int64)


class Terms:
    """``N[X]`` terms: the semiring owns the live store."""

    label = ("terms", "fallback: term store rolled over")

    def __init__(self, monkeypatch):
        monkeypatch.setattr(NX, "machine_repr", TermStore(NX, max_terms=CAP))

    def live(self):
        return NX.machine_repr

    def intern(self, i):
        return self.live().code(NX.variable(f"x{i}"))

    def values(self, store, ids):
        return store.decode(np.array(ids, dtype=np.int64))

    def mapped(self, store, ids):
        return store.images(np.array(ids, dtype=np.int64), two, int, 1).tolist()

    def refuse_mixed(self, old, ids, new, new_ids):
        def fold(store, ids):
            return store.fold(np.arange(len(ids)), np.array(ids, dtype=np.int64))

        with pytest.raises(Unmappable, match="two generations"):
            map_folds([fold(old, ids), fold(new, new_ids)], two, int)


class Gates:
    """Circuit gates: the builder owns the live store."""

    label = ("gates", "fallback: gate store rolled over")

    def __init__(self, monkeypatch):
        self.builder = CircuitBuilder(max_gates=CAP)

    def live(self):
        return self.builder.store

    def intern(self, i):
        return self.live().row(self.builder.var(f"x{i}"))

    def values(self, store, ids):
        return store.decode(np.array(ids, dtype=np.int64))

    def mapped(self, store, ids):
        return evaluate_gates(self.values(store, ids), NAT, lambda token: 2, builder=self.builder)

    def refuse_mixed(self, old, ids, new, new_ids):
        old_values, new_values = self.values(old, ids), self.values(new, new_ids)
        assert new.rows(old_values + new_values) is None
        assert not new.fits(old_values[0])


@pytest.fixture(params=[Terms, Gates], ids=["terms", "gates"])
def kind(request, monkeypatch):
    return request.param(monkeypatch)


def filled(kind):
    """The live generation filled to its cap, and the ids interned in it."""
    store = kind.live()
    ids = [kind.intern(i) for i in range(CAP - 2)]  # beside the pinned 0 and 1
    assert len(store) == CAP and kind.live() is store
    return store, ids


def test_a_full_generation_hands_its_owner_a_fresh_one(kind):
    old, _ids = filled(kind)
    with old._lock:
        assert not old.claim(1)
    fresh = kind.live()
    assert fresh is not old and type(fresh) is type(old)
    assert fresh.current() and not old.current()
    assert len(fresh) == 2 and fresh.cap == CAP
    with old._lock:
        assert not old.claim(0)  # retired for good, whatever its room
    assert kind.live() is fresh


def test_a_cap_past_the_pair_packing_is_refused():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        TermStore(NX, max_terms=(1 << 31) + 1)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        CircuitBuilder(max_gates=(1 << 31) + 1)


@needs_numpy
def test_the_kernel_that_missed_falls_back_and_the_retired_generation_decodes(kind):
    old, ids = filled(kind)
    before = dict(ENCODED_KERNEL.values())
    a, b = np.array(ids[:2], dtype=np.int64), np.array(ids[2:4], dtype=np.int64)
    with pytest.raises(EncodedFallback, match="rolled over"):
        old.pair_times(a, b)  # new products: no room for them here
    counted = {k: v - before.get(k, 0) for k, v in ENCODED_KERNEL.values().items()}
    assert {k: v for k, v in counted.items() if v} == {kind.label: 1}
    assert kind.live() is not old
    values = kind.values(old, ids)
    assert values == kind.values(old, ids)  # stable, and of the retired store
    assert kind.mapped(old, ids) == [2] * len(ids)


@needs_numpy
def test_a_batch_mixing_two_generations_is_refused(kind):
    old, ids = filled(kind)
    with old._lock:
        old.claim(1)
    new_ids = [kind.intern(CAP + i) for i in range(2)]
    assert kind.mapped(kind.live(), new_ids) == [2, 2]
    kind.refuse_mixed(old, ids, kind.live(), new_ids)
