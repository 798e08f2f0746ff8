"""The benchmark's recorded stdout, reproduced in the ordinary suite.

perfbench/expected.json records the sha256 of the `--json` stdout of every
benchmark command.  Every one of them is run here in-process, from the
repository root (their paths are relative to it), so a change to
certificate bytes fails tier-1 and not only the benchmark.  The rest of
the byte gate is checked too: stderr is empty, and the exit code is 0 for
a document that certifies (verdict RankAtLeastOne, or a scan with a
certified fiber) and 2 otherwise.  Each certificate, and each fiber
certificate of a scan, must also pass `verify_certificate`, the check the
benchmark runs on it.  The whole document, scan documents included, must
pass `document_problems`, the check of the `verify` command, and the
stdout, written to a file, must pass that command.  These tests only read
perfbench/.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rankcert.certify import document_problems, verify_certificate
from rankcert.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "perfbench" / "expected.json"


def _recorded():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    return sorted((key, rec["sha256"]) for key, rec in expected.items())


RECORDED = _recorded()


@pytest.mark.parametrize("key,sha256", RECORDED, ids=[key for key, _ in RECORDED])
def test_stdout_matches_recording(key, sha256, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    code = main(key.split(" ") + ["--json"])
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
    assert err == ""
    doc = json.loads(out)
    if doc.get("command") == "family-scan":
        certs = [entry["certificate"] for entry in doc["certified"]]
        certifies = doc["counts"]["certified"] > 0
    else:
        certs = [doc]
        certifies = doc["verdict"] == "RankAtLeastOne"
    assert code == (0 if certifies else 2)
    assert [verify_certificate(cert) for cert in certs] == [(True, [])] * len(certs)
    assert document_problems(doc) == []
    path = tmp_path / "stdout.json"
    path.write_text(out, encoding="utf-8")
    code = main(["verify", "--certificate", str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.startswith("verified: ")
