#!/usr/bin/env python3
"""Count the non-test lines of Rust source under `crates/`.

Usage: loc.py [ROOT]   (default: the repository root above this script)

The rule: every `.rs` file under `crates/` outside `tests/` and
`benches/` directories (which also leaves out the analyzer's fixtures
under `crates/analyze/tests/fixtures`), cut at the first line that
starts with `#[cfg(test)]` in column 0 (the unit-test module and
everything after it). Blank and comment lines count; the rule measures
file length, not statements.

Prints one `crate lines` row per crate, then `total lines`. Reports
only: the exit code is 0 whatever the counts are.
"""

import sys
from pathlib import Path

SKIPPED_DIRS = {"tests", "benches"}


def non_test_lines(path):
    count = 0
    with path.open(encoding="utf-8") as source:
        for line in source:
            if line.startswith("#[cfg(test)]"):
                break
            count += 1
    return count


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    crates = root / "crates"
    per_crate = {}
    for path in sorted(crates.rglob("*.rs")):
        relative = path.relative_to(crates)
        if SKIPPED_DIRS.intersection(relative.parts[1:-1]):
            continue
        crate = relative.parts[0]
        per_crate[crate] = per_crate.get(crate, 0) + non_test_lines(path)
    width = max(len(name) for name in [*per_crate, "total"])
    for crate, lines in sorted(per_crate.items()):
        print(f"{crate:<{width}} {lines:>6}")
    print(f"{'total':<{width}} {sum(per_crate.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
