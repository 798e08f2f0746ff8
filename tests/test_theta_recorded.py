"""Recorded stdout of `orbits hyperelliptic --theta --json` beyond the bench corpus.

The benchmark's recording pins theta resolvents only for a few genus-2
and genus-3 curves.  These hashes, recorded before the class-set layer
was shared between two-torsion and theta characteristics, pin the theta
orbits and the chi_odd / chi_even bytes on odd genus-3 models, a genus-4
model, a curve labelled at c = 1, a zero-label retry (x^6 - 1 is
labelled at c = 2) and an f with three factors over Q.
"""

import hashlib

import pytest

from rankcert.cli import main

RECORDED = {
    "x^7+x+1": "f19109d5ff82dd8c353a65ac3f7d6365d14bc88c011f02a9db7069ec5abe8495",
    "x^7-3*x^2+x+5": "f027b0ebc87268db9cc02bd3553e6d2be24fa52eb84bcacc2572c2a908513a2b",
    "x^9+x+1": "f096867b566378cdf5e1939622f449bb61c96fef5ef5c8cfb4ee59064a7c6a58",
    "x^6-x^2+1": "4d6d8115c7d7c7a5835be874549917f77b488872b5d36a5487b20a384123fabd",
    "x^6-1": "6e2559e840b1414b4e50347f04967a55be75880aba22be9ab89b36a7235443ed",
    "(x^2-2)*(x^3-3)*(x-5)": "723eb8b04d5a1dbe694e19d4ae58ae7178178144e2222392628051534b4ae98e",
}


@pytest.mark.parametrize("f", sorted(RECORDED))
def test_theta_orbits_match_recording(f, capsys):
    assert main(["orbits", "hyperelliptic", "--f=" + f, "--theta", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECORDED[f]
