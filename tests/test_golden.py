"""CLI output on the shipped fixtures against the committed snapshot.

tests/golden/cli.json holds, per invocation, the exit code and the sha256 of
stdout; `PYTHONPATH=src python3 tools/gen_goldens.py` rewrites it.  A change
that alters an entry on purpose regenerates the file and says why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())

_spec = importlib.util.spec_from_file_location("gen_goldens", ROOT / "tools" / "gen_goldens.py")
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_inputs")
    gen_goldens.write_inputs(out)
    return out


def test_snapshot_covers_the_invocations():
    assert sorted(GOLDEN) == sorted(" ".join(a) for a in gen_goldens.invocations())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_matches_golden(key, inputs, monkeypatch):
    monkeypatch.delenv("OMEGA_MAX_DIM", raising=False)
    assert gen_goldens.run(key.split(" "), inputs) == GOLDEN[key]
