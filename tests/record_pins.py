"""Recompute every pin of the ledger under ``tests/pins/`` and print what moved.

    python tests/record_pins.py            # print the delta table
    python tests/record_pins.py --write    # also rewrite the ledger

Runs the tests that read the ledger with ``pinned`` recording instead of
comparing, then prints one markdown table for ``CHANGES.md``: first every
changed iteration count, verdict or digest (a leaf that is not a
``float.hex`` string) and every pin added or no longer read, then per pin
its changed leaves and their largest relative change.  ``--write`` stores the values, appends a
provenance line to each moved entry (complete it with the commit and cause)
and drops the entries no test reads; it writes nothing if a test failed.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import pytest


def leaves(value, path=""):
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else None
    if items is None:
        yield path, value
    for key, item in items or ():
        yield from leaves(item, f"{path}.{key}".lstrip(".") if isinstance(key, str) else f"{path}[{key}]")


def delta(old, new):
    """``(discrete changes, changed leaves, largest relative change)`` from ``old`` to ``new``."""
    before, after = dict(leaves(old)), dict(leaves(new))
    discrete, changed, largest = [], 0, 0.0
    for path in sorted(before.keys() | after.keys()):
        a, b = before.get(path), after.get(path)
        if a == b:
            continue
        changed += 1
        if all(isinstance(x, str) and x.lstrip("-").startswith("0x") for x in (a, b)):
            a, b = float.fromhex(a), float.fromhex(b)
            largest = max(largest, abs(b - a) / abs(a) if a else math.inf if b else 0.0)
        else:
            discrete.append(f"{path or 'value'}: {a} -> {b}")
    return discrete, f"{changed} of {len(after)} leaves", f"{largest:.2g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the ledger with the recomputed pins")
    write = parser.parse_args(argv).write

    new = {}

    class Recorder:
        def pytest_configure(self, config):
            import ledger  # loaded by -p ledger, from this directory

            config.stash[ledger.RECORDING] = new

    status = pytest.main([str(Path(__file__).parent), "-q", "-p", "ledger", "-p", "no:cacheprovider"],
                         plugins=[Recorder()])
    import ledger

    entries = ledger.load()
    first, rows = [], []
    for test_id in sorted(entries.keys() | new.keys()):
        if test_id not in entries or test_id not in new:
            first.append((test_id, "whole pin", "added" if test_id in new else "read by no test"))
            continue
        discrete, changed, largest = delta(entries[test_id]["value"], new[test_id])
        first += [(test_id, "count, verdict or digest", change) for change in discrete]
        rows.append((test_id, changed, f"<= {largest} relative"))
        if write and not changed.startswith("0 "):
            entries[test_id]["provenance"].append("; ".join([f"re-recorded: {changed}, {rows[-1][2]}", *discrete]))
    print("\n| pin | what | delta |\n|---|---|---|")
    print("\n".join("| `{}` | {} | {} |".format(*row) for row in first + rows))
    moved = sum(not row[1].startswith("0 ") for row in rows)
    print(f"\n{len(rows)} pins compared, {moved} moved; {len(first)} count, verdict, digest or whole-pin changes")
    if status != 0:
        print(f"\nthe pinned tests did not all pass (pytest exit {int(status)}); the ledger is unchanged")
        return 1
    if write:
        files = {}
        for test_id, value in sorted(new.items()):
            entry = entries.get(test_id, {"provenance": ["recorded"]})
            files.setdefault(Path(test_id.split("::")[0]).stem, {})[test_id] = {**entry, "value": value}
        for path in ledger.PINS.glob("*.json"):
            path.unlink()
        for module, group in files.items():
            (ledger.PINS / f"{module}.json").write_text(json.dumps(group, indent=1) + "\n")
        print(f"\nwrote {len(new)} pins to {ledger.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
