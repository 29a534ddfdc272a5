"""Pinned resolved.json: the SHA-256 of every example config's resolved form.

A run writes ``resolved_dict(cfg)`` as its resolved.json, every field
explicit, so the run can be reproduced from that file alone. A round trip
through ``parse_config`` passes even when a default, a key name or the key
order changes; these hashes were produced once and checked in, so such a
change fails here and has to say so.

Regenerate (only when a change to resolved.json is intended) with

    PYTHONPATH=src python tests/test_resolved_hashes.py --write

which prints each case whose hash moves as ``name: old -> new`` (``None``
for a new case). Without ``--write`` the script prints the current hashes
and leaves the file alone.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from slowmo_sim import parse_config, resolved_dict
from slowmo_sim.config import load_config
from test_harness import _VALID_RAWS

PINNED_PATH = Path(__file__).with_name("resolved_hashes.json")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CASES = {f"configs/{p.name}": p for p in sorted(CONFIG_DIR.glob("*.json"))}
CASES.update({f"valid-raw-{i}": raw for i, raw in enumerate(_VALID_RAWS)})


def resolved_hash(name: str) -> str:
    case = CASES[name]
    cfg = load_config(str(case)) if isinstance(case, Path) else parse_config(case)
    return hashlib.sha256(json.dumps(resolved_dict(cfg), indent=2).encode()).hexdigest()


def _pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def test_pinned_file_covers_every_case():
    assert sorted(_pinned()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_resolved_json_is_pinned(name):
    assert resolved_hash(name) == _pinned()[name]


if __name__ == "__main__":
    hashes = {name: resolved_hash(name) for name in sorted(CASES)}
    text = json.dumps(hashes, indent=2) + "\n"
    if "--write" in sys.argv[1:]:
        pinned = _pinned()
        for name, new in hashes.items():
            if pinned.get(name) != new:
                print(f"{name}: {pinned.get(name)} -> {new}")
        PINNED_PATH.write_text(text)
        print(f"wrote {len(hashes)} hashes to {PINNED_PATH}")
    else:
        sys.stdout.write(text)
