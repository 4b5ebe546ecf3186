"""Unit tests for provenance circuits."""

import pytest

from repro.circuits import (
    CircuitSemiring,
    circuit_to_polynomial,
    evaluate_circuit,
    evaluate_gates,
    polynomial_to_circuit,
)
from repro.circuits.evaluate import _array_pass, _reach
from repro.circuits.store import TIMES
from repro.exceptions import HomomorphismError, SemiringError
from repro.semirings import BOOL, NAT, NX, check_semiring_axioms
from repro.semirings import interning


def fresh():
    return CircuitSemiring()


class TestBuilderSimplification:
    def test_units(self):
        cs = fresh()
        x = cs.variable("x")
        assert cs.plus(x, cs.zero) is x
        assert cs.times(x, cs.one) is x
        assert cs.times(x, cs.zero) is cs.zero

    def test_interning_shares_structure(self):
        cs = fresh()
        x, y = cs.variable("x"), cs.variable("y")
        a = cs.plus(x, y)
        b = cs.plus(y, x)  # commutative canonical order
        assert a is b

    def test_const_folding(self):
        cs = fresh()
        assert cs.from_int(0) is cs.zero
        assert cs.from_int(1) is cs.one
        assert cs.delta(cs.from_int(7)) is cs.one
        assert cs.delta(cs.zero) is cs.zero

    def test_dag_vs_tree_size(self):
        # (x + y) squared repeatedly: dag grows linearly, tree exponentially
        cs = fresh()
        node = cs.plus(cs.variable("x"), cs.variable("y"))
        for _ in range(8):
            node = cs.times(node, node)
        assert node.dag_size() <= 3 + 8
        assert node.tree_size() >= 2 ** 8

    def test_variables(self):
        cs = fresh()
        node = cs.times(cs.plus(cs.variable("x"), cs.variable("y")), cs.variable("x"))
        assert node.variables() == frozenset(["x", "y"])

    def test_axioms_via_polynomial_equality(self):
        # circuit equality is structural; check semiring laws through the
        # canonical polynomial expansion
        cs = fresh()
        x, y = cs.variable("x"), cs.variable("y")
        check_semiring_axioms(
            cs,
            [cs.zero, cs.one, x, y, cs.plus(x, y)],
            equal=lambda a, b: circuit_to_polynomial(a) == circuit_to_polynomial(b),
        )


class TestEvaluation:
    def test_eval_nat(self):
        cs = fresh()
        node = cs.times(cs.plus(cs.variable("x"), cs.variable("y")), cs.variable("x"))
        assert evaluate_circuit(node, NAT, {"x": 2, "y": 3}) == 10

    def test_eval_bool(self):
        cs = fresh()
        node = cs.plus(cs.variable("x"), cs.variable("y"))
        assert evaluate_circuit(node, BOOL, {"x": False, "y": True}) is True

    def test_eval_missing_token(self):
        cs = fresh()
        with pytest.raises(HomomorphismError):
            evaluate_circuit(cs.variable("x"), NAT, {})

    def test_eval_delta(self):
        cs = fresh()
        node = cs.delta(cs.plus(cs.variable("x"), cs.variable("y")))
        assert evaluate_circuit(node, NAT, {"x": 0, "y": 0}) == 0
        assert evaluate_circuit(node, NAT, {"x": 5, "y": 0}) == 1

    def test_deep_circuit_no_recursion_limit(self):
        cs = fresh()
        node = cs.variable("x")
        for i in range(5000):
            node = cs.plus(node, cs.variable(f"v{i}"))
        assert evaluate_circuit(node, NAT, lambda t: 1) == 5001

    def test_hom_to_nat(self):
        cs = fresh()
        node = cs.times(cs.plus(cs.variable("x"), cs.variable("y")), cs.from_int(3))
        assert cs.hom_to_nat(node) == 6


class TestEvaluationRoute:
    """The array pass runs only on circuits wide enough to pay for their
    levels; either route gives the same values."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def layered(self, width, depth):
        cs = fresh()
        level = [cs.variable(f"t{i}") for i in range(width)]
        for d in range(depth):
            op = cs.times if d % 2 == 0 else cs.plus
            level = [op(level[i], level[(i + 1) % width]) for i in range(width)]
        return cs, level

    def test_a_narrow_circuit_takes_the_loop(self):
        cs = fresh()
        node = cs.variable("x")
        for i in range(300):
            node = cs.plus(node, cs.variable(f"v{i}"))
        assert _reach(cs.builder.store, [node]) is None
        assert evaluate_gates([node], NAT, lambda t: 1, builder=cs.builder) == [301]

    def test_a_wide_circuit_takes_the_array_pass(self):
        cs, roots = self.layered(width=256, depth=4)
        reached = _reach(cs.builder.store, roots)
        assert reached is not None and len(reached.rows) == 256 * 5
        weights = {f"t{i}": i % 3 for i in range(256)}
        arrays = _array_pass(reached, NAT, weights.__getitem__)
        assert arrays == evaluate_gates(roots, NAT, weights)  # no builder: the loop

    def test_reachability_returns_its_mask_cleared(self):
        np = pytest.importorskip("numpy")
        cs, roots = self.layered(width=256, depth=4)
        store = cs.builder.store
        assert _reach(store, roots) is not None
        assert _reach(store, roots[:1]) is None  # stops part-way
        masks = store._scratch[np.dtype(bool)]
        assert masks and not any(mask.any() for mask in masks)


class TestGateStoreMirrors:
    @pytest.mark.parametrize("recent", [4, 1 << 14])
    def test_mirror_grows_sorted_and_complete(self, recent, monkeypatch):
        np = pytest.importorskip("numpy")
        monkeypatch.setattr(interning, "_RECENT", recent)  # fold, or never
        cs = fresh()
        store = cs.builder.store
        xs = [cs.variable(f"x{i}") for i in range(40)]
        for batch in range(4):
            for i in range(10 * batch, 10 * batch + 10):
                cs.times(xs[i], xs[(7 * i + 3) % 40])
            main_keys, main_rows, recent_keys, recent_rows = store._mirror(TIMES)
            assert (np.diff(main_keys) > 0).all() and (np.diff(recent_keys) > 0).all()
            assert len(recent_keys) < recent
            keys = np.concatenate((main_keys, recent_keys))
            rows = np.concatenate((main_rows, recent_rows))
            snap = store.arrays()
            binary = [
                r for r in range(snap.n)
                if snap.kinds[r] == TIMES and snap.ptr[r + 1] - snap.ptr[r] == 2
            ]
            assert sorted(rows.tolist()) == binary
            for key, row in zip(keys.tolist(), rows.tolist()):
                lo, hi = snap.kids[snap.ptr[row]:snap.ptr[row] + 2].tolist()
                assert key == (lo << 31) | hi


class TestConversion:
    def test_round_trip(self):
        cs = fresh()
        x, y = NX.variables("x", "y")
        poly = x * x * y + 2 * x + NX.from_int(3)
        node = polynomial_to_circuit(poly, cs)
        assert circuit_to_polynomial(node) == poly

    def test_delta_round_trip(self):
        cs = fresh()
        x, y = NX.variables("x", "y")
        poly = NX.delta(x + y) * x
        node = polynomial_to_circuit(poly, cs)
        assert circuit_to_polynomial(node) == poly

    def test_rejects_foreign_polynomials(self):
        from repro.semirings import ZX

        with pytest.raises(SemiringError):
            polynomial_to_circuit(ZX.variable("x"), fresh())

    def test_engine_agreement_circuit_vs_polynomial(self):
        # the same query over CircuitSemiring and N[X] produces annotations
        # that agree after expansion
        from repro.core import KDatabase, KRelation, Project, Table

        cs = fresh()
        rows = [((i % 3, i), NX.variable(f"t{i}")) for i in range(9)]
        rel_nx = KRelation.from_rows(NX, ("g", "v"), rows)
        rel_c = KRelation.from_rows(
            cs, ("g", "v"), [((i % 3, i), cs.variable(f"t{i}")) for i in range(9)]
        )
        q = Project(Table("T"), ["g"])
        out_nx = q.evaluate(KDatabase(NX, {"T": rel_nx}))
        out_c = q.evaluate(KDatabase(cs, {"T": rel_c}))
        for t in out_nx.support():
            assert circuit_to_polynomial(out_c.annotation(t)) == out_nx.annotation(t)
