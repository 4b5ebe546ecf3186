"""Every module under ``src/repro/`` states what reaches it.

``docs/architecture.md`` §"What reaches each module" has one row per
package listing its modules (a package's ``__init__`` is the row itself).
A module missing from the table, or a row naming a module that does not
exist, fails here: a module added later must say which paper section,
workload or endpoint reaches it.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "architecture.md"
HEADING = "## What reaches each module"


def modules_on_disk():
    found = set()
    for path in SRC.rglob("*.py"):
        package = ".".join(("repro",) + path.relative_to(SRC).parent.parts)
        found.add(package)
        if path.stem != "__init__":
            found.add(f"{package}.{path.stem}")
    return found


def modules_in_table():
    section = DOC.read_text(encoding="utf-8").split(HEADING, 1)[1]
    section = section.split("\n## ", 1)[0]
    named = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        package = re.fullmatch(r"`(repro(?:\.\w+)*)`", cells[0])
        if package is None:
            continue
        package = package.group(1)
        assert package not in named, f"two rows for {package}"
        named.add(package)
        named.update(f"{package}.{m}" for m in re.findall(r"`(\w+)`", cells[1]))
    return named


def test_the_table_covers_every_module_and_names_no_other():
    on_disk, in_table = modules_on_disk(), modules_in_table()
    assert in_table, f"no table under {HEADING!r} in {DOC}"
    assert not on_disk - in_table, f"modules missing from the table: {sorted(on_disk - in_table)}"
    assert not in_table - on_disk, f"rows naming no module: {sorted(in_table - on_disk)}"
