"""Input generators: everything a workload feeds the program comes from here.

One rule keeps run-to-run spread down: **the seed permutes, it never
resizes**.  Every table is a fixed multiset of groups, salaries and
regions; the seed decides which row gets which, and the key range the rows
live in.  So two seeds give different keys and different sums but the same
amount of work (same group sizes, same selectivities, same result
cardinalities).  ``random.Random`` seeded with a string is stable across
processes and ``PYTHONHASHSEED`` values.

Nothing here imports ``repro``: the program receives only these outputs.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence, Tuple

S1 = "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept"
S2 = "SELECT Region, SUM(Sal) FROM Emp, Dept GROUP BY Region"
S3 = "SELECT Dept, MAX(Sal) FROM Emp WHERE Sal = 50 GROUP BY Dept"
S4 = "SELECT EmpId FROM Emp WHERE Dept = 'd7'"
COUNT_EMP = "SELECT COUNT(*) FROM Emp"

EMP_COLUMNS = ("EmpId", "Dept", "Sal")
DEPT_COLUMNS = ("Dept", "Region")
FACT_COLUMNS = ("Id", "G", "V")
DIM_COLUMNS = ("G", "Region")


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def key_base(seed: int, tag: str) -> int:
    """First key of a table: seed-dependent, and a multiple of 1000 so the
    share of keys ending in a given digit is exact."""
    return _rng(seed, "base:" + tag).randrange(1, 1 << 20) * 1000


def _dealt(rng: random.Random, values: Sequence, n: int) -> List:
    """``n`` items dealt round-robin from ``values``, then shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def emp_table(seed: int, n: int, depts: int, tag: str = "emp") -> List[Tuple[int, str, int]]:
    """``Emp(EmpId, Dept, Sal)``: equal-sized departments, salaries the
    fixed multiset 10, 20, ... 1000 dealt round-robin."""
    rng = _rng(seed, tag)
    base = key_base(seed, tag)
    dept_of = _dealt(rng, [f"d{j}" for j in range(depts)], n)
    sal_of = _dealt(rng, [10 * (1 + j) for j in range(100)], n)
    return [(base + i, dept_of[i], sal_of[i]) for i in range(n)]


def dept_table(seed: int, depts: int) -> List[Tuple[str, str]]:
    """``Dept(Dept, Region)``: exactly half the departments are in the EU."""
    regions = _dealt(_rng(seed, "dept"), ["EU", "US"], depts)
    return [(f"d{j}", regions[j]) for j in range(depts)]


def fact_table(seed: int, n: int, groups: int) -> Tuple[List[Tuple[int, str, int]], List[int]]:
    """``Fact(Id, G, V)`` rows and their ``N`` annotations (1..3)."""
    rng = _rng(seed, "fact")
    base = key_base(seed, "fact")
    g_of = _dealt(rng, [f"g{j}" for j in range(groups)], n)
    v_of = _dealt(rng, list(range(97)), n)
    return [(base + i, g_of[i], v_of[i]) for i in range(n)], [1 + i % 3 for i in range(n)]


def dim_table(seed: int, groups: int) -> List[Tuple[str, str]]:
    regions = _dealt(_rng(seed, "dim"), ["EU", "US"], groups)
    return [(f"g{j}", regions[j]) for j in range(groups)]


def update_batch(seed: int, k: int, size: int, depts: int) -> List[Tuple[int, str, int]]:
    """The ``k``-th write of ``serve_write``: ``size`` fresh-keyed rows."""
    rng = _rng(seed, f"upd:{k}")
    # Emp keys stay below 2**31, so a write never lands on a loaded row
    base = (1 << 31) + key_base(seed, "upd") + k * size
    return [(base + j, f"d{rng.randrange(depts)}", 10 * rng.randrange(1, 101))
            for j in range(size)]


# -- wire format -------------------------------------------------------------


def relation_body(name: str, columns: Sequence[str], rows: Sequence[Sequence]) -> bytes:
    """A ``POST /relations`` body."""
    return json.dumps({
        "name": name,
        "relation": {"columns": list(columns),
                     "rows": [{"values": list(r), "annotation": 1} for r in rows]},
    }).encode()


def update_body(rows: Sequence[Sequence]) -> bytes:
    """A ``POST /update`` body inserting ``rows`` into ``Emp``."""
    return json.dumps({
        "relations": {"Emp": {"rows": [{"values": list(r), "annotation": 1}
                                       for r in rows]}},
    }).encode()


def query_body(sql: str) -> bytes:
    return json.dumps({"sql": sql}).encode()


def view_body(name: str, sql: str) -> bytes:
    return json.dumps({"name": name, "sql": sql}).encode()


def read_script(reps: int) -> List[str]:
    """The SQL of one ``serve_read`` op, in request order."""
    return [S1, S2, S3, S4] * reps


# -- the answers the client expects (plain Python over the generated rows) ----


def sums_by_dept(emp: Sequence[Tuple[int, str, int]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for _id, dept, sal in emp:
        out[dept] = out.get(dept, 0) + sal
    return out


def sums_by_region(by_dept: Dict[str, int], dept: Sequence[Tuple[str, str]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for name, region in dept:
        if name in by_dept:
            out[region] = out.get(region, 0) + by_dept[name]
    return out


def read_answers(emp, dept) -> Dict[str, Dict[tuple, int]]:
    """SQL → ``{value tuple: annotation}`` for the four ``serve_read`` queries."""
    by_dept = sums_by_dept(emp)
    return {
        S1: {(d, s): 1 for d, s in by_dept.items()},
        S2: {(r, s): 1 for r, s in sums_by_region(by_dept, dept).items()},
        S3: {(d, 50): 1 for d in {d for _i, d, sal in emp if sal == 50}},
        S4: {(i,): 1 for i, d, _s in emp if d == "d7"},
    }
