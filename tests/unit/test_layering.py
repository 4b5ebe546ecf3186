"""The semiring layer stands below the circuits and the planner.

No file under ``src/repro/semirings/`` names ``repro.circuits`` or
``repro.plan`` — not in an import at the top, not in one inside a
function, not in a docstring — so the interning core and the term store
build on nothing above them.  A text scan, beside the module table's
(``test_module_reachability.py``): a lazy import is still an import.
"""

import pathlib
import re

SEMIRINGS = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "semirings"
ABOVE = re.compile(r"repro\.(circuits|plan)\b|from\s+repro\s+import\s+.*\b(circuits|plan)\b")


def test_no_semiring_module_names_the_layers_above():
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SEMIRINGS.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if ABOVE.search(line)
    ]
    assert not offenders, "\n".join(offenders)
