"""tools/bitwise_oracle.py against the manifest committed beside it,
tools/oracle_manifest.txt. A change that moves output bits on purpose
regenerates the manifest and says so in CHANGES.md:

    python3 tools/bitwise_oracle.py OUT_DIR
    cp OUT_DIR/sha256.txt tools/oracle_manifest.txt
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_oracle_matches_the_committed_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the oracle prepends to it
    spec = importlib.util.spec_from_file_location("bitwise_oracle", TOOLS / "bitwise_oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    lines = oracle.run_oracle(str(tmp_path / "oracle"))
    build, *committed = (TOOLS / "oracle_manifest.txt").read_text().splitlines()
    if build != oracle.build_line():
        pytest.skip(f"the manifest's bits are pinned to another build: manifest {build!r}, "
                    f"here {oracle.build_line()!r}")
    assert lines == committed
