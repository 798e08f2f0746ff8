"""The benchmark's recorded stdout, reproduced in the ordinary suite.

perfbench/expected.json records the sha256 of the `--json` stdout of every
benchmark command.  Every one of them is run here in-process, from the
repository root (their paths are relative to it), so a change to
certificate bytes fails tier-1 and not only the benchmark.  Each
certificate, and each fiber certificate of a scan, must also pass
`verify_certificate`, the check the benchmark runs on it.  These tests
only read perfbench/.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rankcert.certify import verify_certificate
from rankcert.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "perfbench" / "expected.json"


def _recorded():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    return sorted((key, rec["sha256"]) for key, rec in expected.items())


RECORDED = _recorded()


@pytest.mark.parametrize("key,sha256", RECORDED, ids=[key for key, _ in RECORDED])
def test_stdout_matches_recording(key, sha256, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    main(key.split(" ") + ["--json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
    doc = json.loads(out)
    if doc.get("command") == "family-scan":
        certs = [entry["certificate"] for entry in doc["certified"]]
    else:
        certs = [doc]
    assert [verify_certificate(cert) for cert in certs] == [(True, [])] * len(certs)
