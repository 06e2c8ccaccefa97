"""The pin ledger: every pinned value of the tests, in JSON under ``tests/pins/``.

Floats are stored as ``float.hex``, so a pin holds to the last bit;
iteration counts and digests as they are.  One file per test module, keyed
by the test id as pytest prints it; an entry is ``{"provenance": [...],
"value": ...}``, the provenance naming each recording's commit, cause and
size, oldest first.  A test reads its pin through the ``pinned`` fixture
(``tests/conftest.py``), which calls ``compare``.  Loaded as a plugin
(``-p ledger``) this module deselects every test that does not read the
ledger; ``tests/record_pins.py`` and ``tests/test_ledger.py`` find the
readers that way.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

PINS = Path(__file__).parent / "pins"
# in config.stash while tests/record_pins.py runs: test id -> value, recorded instead of compared
RECORDING = pytest.StashKey[dict]()


@lru_cache(maxsize=1)
def load() -> dict:
    """Every entry of the ledger by test id; refuses a test id in two files."""
    entries = {}
    for path in sorted(PINS.glob("*.json")):
        for test_id, entry in json.loads(path.read_text()).items():
            if entries.setdefault(test_id, entry) is not entry:
                raise ValueError(f"pin ledger: {test_id} is in two files")
    return entries


def encode(value):
    """``value`` as the ledger stores it: floats as ``float.hex``, tuples as lists."""
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return float.hex(value) if isinstance(value, float) else value


def compare(config, test_id: str, value) -> None:
    """``encode(value)`` equals the pin of ``test_id`` exactly."""
    value = encode(value)
    if RECORDING in config.stash:
        config.stash[RECORDING][test_id] = value
    elif test_id not in load():
        pytest.fail(f"the pin ledger has no entry for {test_id}; record it with tests/record_pins.py --write")
    else:
        assert value == load()[test_id]["value"]


def problems(entries: dict, readers: set) -> list:
    """Ledger keys that no test reads, then reading tests that the ledger lacks."""
    return [f"pin ledger key that no test reads: {key}" for key in sorted(entries.keys() - readers)] + [
        f"test that the pin ledger lacks: {key}" for key in sorted(readers - entries.keys())]


def pytest_collection_modifyitems(config, items):
    """As a plugin: deselect every test that does not read the ledger."""
    config.hook.pytest_deselected(items=[item for item in items if "pinned" not in item.fixturenames])
    items[:] = [item for item in items if "pinned" in item.fixturenames]
