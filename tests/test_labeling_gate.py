"""Labelling indices and resolvent hashes pinned on a fixed curve set.

For 24 curves of genus 2-4, both parities, the labelling index c of the
two-torsion and of the theta characteristics and the sha256 of chi,
chi_odd and chi_even are pinned.  The values were recorded before the
injectivity certificate became pairwise disjoint label balls (it was a
modular squarefree and coprime test with an exact-gcd fallback), so a
change to the certificate that moves c fails here.  The curves mix
random squarefree polynomials with coefficients in [-4, 4] and curves
whose plain root sums collide, such as x^6-1, whose zero-containing
labels push c to 2.  Only resolvents are built; nothing is factored.
"""

import pytest

from rankcert.cli import parse_poly
from rankcert.exactpoly import poly_digest
from rankcert.theta import enumerate_theta_classes
from rankcert.weierstrass import build_curve, enumerate_j2_classes

from conftest import resolvents

# (f, c of the two-torsion, c of the theta characteristics,
#  sha256 of chi, chi_odd, chi_even)
RECORDED = [
    ("-3*x^5-3*x^4-4*x^3+2*x^2-2*x+1", 0, 0,
     "0b65065f90ce70884ca1c2194905b19259015616efc8848f05627cb57a1e19f0",
     "dc04e252102a6545749db0a786d15c930402a42cb8bce7a8a9fd2b172dadd1a4",
     "b8efe58184b0d8da6aa43b07cf4c157e02fe76d4e7933e2186ca08b6574a3ab4"),
    ("-3*x^5-4*x^4-x^3+4*x^2-4*x+1", 0, 0,
     "7a7c45509de103c8d452bc8de6acfdd87b532d77e92aeab60d1d5b4775c690ad",
     "eed674a224f0a557ad9d328336fb9b9d8e49bdce0f7faa96279380f578db14b4",
     "3952511b1ebd08cf656811bdf0b426de9a1328296366521261c4b9fe040c9036"),
    ("3*x^5-3*x^4-x^3-3*x^2+2*x+2", 1, 1,
     "20949bbd478b59af3d9e7f4770469b717bf1bf4dba92a6e2ba67c5afaa0822bf",
     "603688a9b9012d16d65b8855412ba4fa84f9c82dbff6e04e47d02c91ac7c05b5",
     "9b5d4673229387bb7da625060808847176c29e3ab61fd629344f0e752adaf7c3"),
    ("x^5-5*x^3+5*x", 1, 1,
     "3a426cbe4918b60ccba32fa97f39c7aa7c59fd1cc5a15862c9daef8736b1deab",
     "5f8d0ce4708b236af04bc305a35dd135627ccb2e486da05f3963fd3633eb06aa",
     "00add4eb20988774cbf257d73bce8216d69e8810c6650ac27d25549e0ea8b134"),
    ("-x^6-4*x^5+2*x^4-4*x^3-x^2-3*x-4", 0, 0,
     "1267ab37c57162c9c32d0a3053448c20672ab83ad5dc21c9bb28eddb447f2891",
     "272ae50cd08eb8b1d9b3e708a02aea371b95477b7885a96ed1e26ff824b5df2d",
     "5562074f9f9de8e797abe84bc695f0ce2c17200e8b8176c069c559dc26b69a6b"),
    ("-3*x^6-2*x^5+2*x^4-2*x^2+4*x-4", 0, 0,
     "1c6d81a236968422414baa9d85f7dd914769733daefbc9adecab8475b7bf08a1",
     "51d5958c994fca89653d27da403281d7085e811ccd486c044925ae9fe55c0505",
     "17d8de76962b6439208dc7eb6154e3bf3bd3b6b098fe34fef0d15815874ecc91"),
    ("-3*x^6+x^5-x^4-3*x^3-2*x^2+4*x", 0, 0,
     "34f01756467ad2075cb6890a42352d3d15cba61569cee29e80979687defd4a6c",
     "34c8063bbedb142c1bfae13e25ee95731be0cb16a6f98e8cec8519ff8d604ef9",
     "8f60113e33efa7744cab44c07af6725c5f2d086613368f5062b38c26b3899cbf"),
    ("x^6-1", 2, 2,
     "c75a2515feab4ffaa6773a6fbd3f27d410a1f4d150083fb088ee9641a0b3c541",
     "2b650b44a578d03588c354f2a32cc49b9bf691629f1538c269154d487e612627",
     "5fb99669afebe1ad0ebbb7e986f53450833959bbe7c53b23e9e8fab4323e7de0"),
    ("x^6+1", 1, 1,
     "a3b310fee6bd1d6ab7c4804cfab7623b7463d43c662885ef46e6a48355a6ae1a",
     "843cfbf34197a4b4a1884deccfbec1e7ac9f4d4d1f1d31b6f46248d6caa608f0",
     "4056addb9cbc3dba092ac5f0e183ba36819af4286d5342b00a8b1e3b4267860d"),
    ("x^6-x^2+1", 1, 1,
     "97d22910f79ee3ae0ade7d10e91839574177a46ee2af9ff24519982faf688059",
     "5a89f357555a6294a0937674264b3c1c96661e44a99afbbe80222f8a5e49904d",
     "1cf3db9fd1e1ca0d0fc7fc05ad279b841f68acb8d9557819354002c2c6a6f012"),
    ("x^6-5*x^4+6*x^2-1", 1, 1,
     "4bf3690bfb8f448495463e9cce2d17a670a112ad6b447c0eb9b52b24de1771cd",
     "317a67c2249198dd861941ea666cc9ebcd96124b1f83d94524b9eb673407f2f1",
     "2af625c6f84cad1accded301e524d80854800d6f2fdadcf72cc7da0f1018017a"),
    ("(x^2-2)*(x^3-3)*(x-5)", 1, 1,
     "73c32e5bb450c89e5e352717707faaeeafbe73fff35664027411158ab093ce58",
     "79d5e69113c2d2a871f68edb525ac1715346cbae423e0a18b7a41b277855f063",
     "9069f1c7271bd06f85950ea36a5ae1281878a032e3528d987d36ec8cf2e00e4d"),
    ("x^6-2*(1000*x-1)^2", 0, 1,
     "5a252a43995a6844e4d871466e3cfefc3aee3e1b6a40de997ee35b4f9e0987ad",
     "64aa16739e8b2aeb978e2bd2a4ccb8f97895ca659c5d1954f21e72d5c908e1f3",
     "2470e9fcaa3d66c5da4b1ad2b107d3653fc1818cfef9a1b0a7bd3249985371e9"),
    ("2*x^7+2*x^6+4*x^5+3*x^4-x^3-4*x^2-3*x+4", 0, 0,
     "948f724b8f82ea3d98a6b44ce88c7e0de3125b529fd35c0dff94429f911421e1",
     "567aa08c142ae64a82f5ac5e59bf014f2aef0ad1fde1535ffc0b993738a97ecf",
     "1be324453884cd3cea44ebebb7b6e30af3169b65a5b21ee84c673493c6c4f5ea"),
    ("-3*x^7-x^6-2*x^5-x^4+x^2+3*x+3", 0, 0,
     "4c20e2a4aa42aa33f4c8cdfe269640d2f704460b9240abe1e7eff859ba9c201e",
     "da5f7d66111fbb44a16924d1701ee6a01970bd811ebaceceef10fa9332402bd7",
     "62878100a97a7b93d9620ffc4c603ded2dec02460e2f00f6c50cc4e3ef8d1920"),
    ("-3*x^7-3*x^6+3*x^4+x^3+3*x^2+4*x", 0, 0,
     "82e15bff6d5332f84451de0fbfd29531262fe3d9314c22a8338ff8913625d401",
     "106296d9600a18a3c42025436f248f087a7b769783c3e29d4654fda5ebf99056",
     "ba478a5f0d71b86ffc1f60cd7aac78c0ec6d69713ddc8551e054a00ec0fc8b92"),
    ("x^7+x+2", 0, 0,
     "f558fa6e66453aa193818ded70bcc13657aa5a6a4d995e92c35385a6dccda9b0",
     "d1a2ca4615826ac60e7693b5292c9af83a8f936e6b1f759171d449b5fb2008ef",
     "4fce0c3d7cff528ffd85748e383201b70a84f9dbefcae2fe101dace85697daee"),
    ("-3*x^8-4*x^7+2*x^6+3*x^5-2*x^4+x^3-2*x^2+2*x+4", 0, 0,
     "f16b8230233fda554160b54b5302c9a4045c7edbee4fd3cece544ec648d55977",
     "c48a00aa5b1c3b4f5601601738239e61d05c156a4c93b3c11a50bea03a98e6a8",
     "249a5302511ce358ff98953b876b568c215eed91371a94a52c84ead6933391de"),
    ("x^8-3*x^7-3*x^6+3*x^5+3*x^4+x^3+x^2+x+4", 0, 0,
     "0b74669f38b6c7e2334831db3ef69f9f43e8e1ffbe2877ebbb3c81a47e08a027",
     "eda00d7119a2e3893b94c16d8562712c40498d51aa7179952382be31605c7498",
     "157667f46ed60947e9c17a5331447232b204c77d1de34613b938d3fb3bd2a11d"),
    ("-4*x^8+x^7+2*x^6+3*x^4-4*x^2-3*x+3", 0, 0,
     "f3a91bae73424da27c38c06b39593640ada5be2becfc24097fbdf47acc0e8163",
     "d1e913e3e26b8f7a9695435001947f50a88152d4fa6d2e09afa105fc9d7295a5",
     "3ff0fb559c094e20ad92d8ad1cece0d46c7d09ee994badecfadefd80c1d9451e"),
    ("x^8-x^2+1", 1, 1,
     "d675ac758dea0dc2e6968ba3c41d12bef06601a9c53039de34ed9ea201bfac09",
     "85c185d6b6e209e0a85a35112bf3d81b2606d181caec9fab5ba74b140a34ec54",
     "0682f5f4089535d837627806ecb694cdcd53eeff78e4193c815f296c629fb282"),
    ("-2*x^9+4*x^7+2*x^6+3*x^5-2*x^4-3*x^3+3*x^2+2*x+2", 0, 1,
     "4ebef4bc4512068e3af93e1be7a665f1915f16b90b88ac1cc152182aa192102c",
     "70c5390f55a326e9b98eb1d934073767cbce52d77f15c819a0fc5e4510869be3",
     "3409c9791cbfa2a1c53ffb8fafdbbf84031e3667da4be044302aee53ea42e98a"),
    ("x^9+x+1", 0, 0,
     "fcc197a68a4fead6a11668b21a480a31b94a86c50922134f2dd663cf17df7fec",
     "90b9ad9aade5e733881dd288156fa946a1919ac03d7430fa9d10e913e14904d1",
     "79686832e63514aa159c2ed86a3b5ff579af467e70ab2615ba08083e0943c27a"),
    ("x^10-x^2+1", 1, 1,
     "9a17e06dcfdd469844b65d1001c51c9a0be2c610eaa38ad0be74d56e9a234cf0",
     "b12d1191425ec99454b3bdc60779709779e0517ce8409e271ef2483483bb868a",
     "9d5f4bba3c8df67a37042912cbf7bee614fa38af2266b965cc0271fca5dd84ca"),
]


def test_corpus_covers_genera_parities_and_indices():
    curves = [build_curve(parse_poly(row[0])) for row in RECORDED]
    assert {(c.genus, c.parity) for c in curves} == {
        (g, par) for g in (2, 3, 4) for par in ("odd", "even")
    }
    assert {row[1] for row in RECORDED} == {0, 1, 2}
    assert any(row[1] != row[2] for row in RECORDED)


@pytest.mark.parametrize("row", RECORDED, ids=lambda row: row[0])
def test_labelling_index_and_hashes(row):
    f, c_j2, c_theta, chi, chi_odd, chi_even = row
    curve = build_curve(parse_poly(f))
    (j2_chi,), j2_c = resolvents(curve, [enumerate_j2_classes(curve)])
    (theta_odd, theta_even), theta_c = resolvents(curve, enumerate_theta_classes(curve))
    assert (j2_c, theta_c) == (c_j2, c_theta)
    assert poly_digest(j2_chi.coeffs) == chi
    assert poly_digest(theta_odd.coeffs) == chi_odd
    assert poly_digest(theta_even.coeffs) == chi_even
