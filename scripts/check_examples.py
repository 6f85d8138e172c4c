#!/usr/bin/env python3
"""Run every example in release and compare its stdout with the committed
digests in examples/golden.digests.

Each digest line is `<example> <fingerprint>`, the 64-bit FNV-1a hash of
the example's stdout (the same hash as `mbaa_cli::checkpoint::fingerprint`).
On a mismatch the script prints the lines that would make it pass and
exits non-zero.

Usage: python3 scripts/check_examples.py   (from the repository root)
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "examples" / "golden.digests"


def fingerprint(data: bytes) -> str:
    hash_ = 0xCBF29CE484222325
    for byte in data:
        hash_ ^= byte
        hash_ = (hash_ * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{hash_:016x}"


def main() -> int:
    examples = sorted(p.stem for p in (ROOT / "examples").glob("*.rs"))
    subprocess.run(
        ["cargo", "build", "-q", "--release", "--examples"], cwd=ROOT, check=True
    )
    committed = {}
    if DIGESTS.exists():
        for line in DIGESTS.read_text().splitlines():
            name, _, digest = line.partition(" ")
            committed[name] = digest
    actual = {}
    for name in examples:
        binary = ROOT / "target" / "release" / "examples" / name
        out = subprocess.run([str(binary)], cwd=ROOT, check=True, stdout=subprocess.PIPE)
        actual[name] = fingerprint(out.stdout)
        status = "ok" if committed.get(name) == actual[name] else "DIFFERS"
        print(f"{name}: {actual[name]} {status}")
    if actual != committed:
        print(f"\nexample output differs from {DIGESTS.relative_to(ROOT)}; if the change is")
        print("intended, replace the file with:")
        for name in examples:
            print(f"{name} {actual[name]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
