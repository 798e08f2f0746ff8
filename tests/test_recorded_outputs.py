"""The benchmark's recorded stdout, reproduced in the ordinary suite.

perfbench/expected.json records the sha256 of the `--json` stdout of every
benchmark command.  The commands that take under about a second are run
here in-process, from the repository root (their paths are relative to
it), so a change to certificate bytes fails tier-1 and not only the
benchmark.  These tests only read perfbench/.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rankcert.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "perfbench" / "expected.json"

# over a second each: the degree-255 resolvent, the 101-fiber scan and a
# rational-point search that finds no point up to height 200
SLOW = {
    "certify hyperelliptic --f=x^9+x+1",
    "family scan --f-t=x^6+t*x+2 --range=-49..51 --full-criterion",
    "certify hyperelliptic --f=-x^6+4*x^5-12*x^3-4*x-15 --height-bound 200",
}


def _recorded():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    return sorted((key, rec["sha256"]) for key, rec in expected.items() if key not in SLOW)


RECORDED = _recorded()


@pytest.mark.parametrize("key,sha256", RECORDED, ids=[key for key, _ in RECORDED])
def test_stdout_matches_recording(key, sha256, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    main(key.split(" ") + ["--json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
