"""Byte stability of the CLI: stdout digests and exit codes of fixed commands.

The digests pin the exact output bytes, so any change to exact values,
canonical forms or document layout shows up here.  Regenerate them only for a
deliberate change of output.
"""
import hashlib

import pytest

from quasitoric.cli import main
from quasitoric.examples import EXAMPLES

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = {
    "report --example cube --format json":
        (0, "93d5f393af88875a031383ee9c369dfd5edc86d73d5da35e29bf5091d5de3244"),
    "report --example dodecahedron --format json":
        (0, "44fe5dbce2b270121df12398f70f9ade8baf7dbba283783737058d5c9cb1d04d"),
    "report --example icosahedron --format json": (2, EMPTY),
    "report --example kite --format json":
        (0, "5951545c5d5a27cc7c7300deb874b2008a5ebc7bd6c6493c674e3fd50c9e96d0"),
    "report --example oblate_rhombohedron --format json":
        (0, "53de90d4605cc9bd6eae05e9cad8eb81b124975b8167891c2e512eb948bd98b1"),
    "report --example octahedron --format json": (2, EMPTY),
    "report --example orbisphere --format json":
        (0, "cea4e4b2c7e78779832d7752c5f36d25753e27632357c7360d6e7d93b851e8bc"),
    "report --example prolate_rhombohedron --format json":
        (0, "ff5874d0b6f372173baab9205a8be91e92ca16bc298334d0c9837ecfc49caf6a"),
    "report --example quasisphere --format json":
        (0, "591b6e4a3410ad19e1c0c873eb0a23c9f1c8d62ff31b9283755e34c4b1fcbcf4"),
    "report --example sphere --format json":
        (0, "f98d94bbe75ef1995df260eda35700a0e4e540406f731eea3c0ba5818c73cd8c"),
    "report --example tetrahedron --format json":
        (0, "38627909e30b8d0a20f5241999c9290ed06fe98aa21f74171d4a148c6b8fe7b2"),
    "report --example thick_rhombus --format json":
        (0, "b0a0c4200594ba8dd8f2aad18951a0c2ebb88b520d16b183b8048a9fa7d95815"),
    "report --example thin_rhombus --format json":
        (0, "e1dafd8e039ce60544a4ea839f67fed36a90407f29bb84a76376178e2dacec40"),
    "report --example cube":
        (0, "a9282dae8c9b749463804126bc624deca027116b9bff6668c3394be8bd2a4c36"),
    "report --example dodecahedron":
        (0, "ca4ad230f0562adea92cc2bf95fd84192ffc79568688edcc98018ebac19e37e7"),
    "report --example icosahedron": (2, EMPTY),
    "report --example kite":
        (0, "b49650f03c90e1fa3c3e4e95e318e9ceea6cab162fd3999844e8c51bc24cf8f4"),
    "report --example oblate_rhombohedron":
        (0, "f54acda4f8837b8a0f4de753c8fc2ade03c6f2740d277269592d2d5800f75607"),
    "report --example octahedron": (2, EMPTY),
    "report --example orbisphere":
        (0, "170388576bcfa8c778b2fbefa961ccf56567abc44d889ad9d6232c0ff430db5c"),
    "report --example prolate_rhombohedron":
        (0, "8930a40253b6124825c0b37351a362e8995c7c631ca1cf0be237c29b83b14dc1"),
    "report --example quasisphere":
        (0, "2876c987e94de545995edff5b02879803a9cbf637bb6e3565997a5a065ef531b"),
    "report --example sphere":
        (0, "5e423f3bc335d087e14a2e87d1a012203cb9bcff8d6a8f2ef18a105affa535ab"),
    "report --example tetrahedron":
        (0, "2dd30c487a1e3769b568f1c6b6d0d54e634bcd48af1c34ba3d25d483a5441f0b"),
    "report --example thick_rhombus":
        (0, "c1e8558f6b18ef8def22dbc80b3351f691e728aa5ad64db1feca05c0122402ca"),
    "report --example thin_rhombus":
        (0, "640cdc3d427dc09abefe19ee4da6183bebfe139800eae60f0433d87f7fa9d69a"),
    "charts --example cube --format json":
        (0, "bdac9a374c82288c911461f9a0d01a28fae3bc89351053b61edbf22ac015a54b"),
    "charts --example dodecahedron --format json":
        (0, "7f86eb087a08aa56b1caac72ad9093398ed1b44dc396d7efd0aba296f6e26118"),
    "charts --example kite --format json":
        (0, "8d27b7f630e291fc7baee5444369e4a0389da6c57ca35e5b016ee469f6c7ee74"),
    "charts --example oblate_rhombohedron --format json":
        (0, "46ceffb233df81e23be771abb132bbe2f6e22377ee74762e851b15a6f0c36bb0"),
    "charts --example orbisphere --format json":
        (0, "c12d3ba0854efaa70d3709ba01373469d310f1862a7630232ed9d6d5255cb1f4"),
    "charts --example prolate_rhombohedron --format json":
        (0, "190cc6d68301a1ff47c58d30b98922ec175dc8fe668462422a12838c28a98348"),
    "charts --example quasisphere --format json":
        (0, "336f87c65a31c3d6d95f7872192d3df50141796672898e54ec87ce2d881d1587"),
    "charts --example sphere --format json":
        (0, "b301971efe0d0b5f406bfb29941d80c41d8e0bd7a198fcc1a1b93ad86c68b9b6"),
    "charts --example tetrahedron --format json":
        (0, "d77f2439f554f83e002fe113ddee41461a702fd60061f6f15739db41f6e6dc55"),
    "charts --example thick_rhombus --format json":
        (0, "0c74b49d458102927937563eb6e37739a6354e03654ee6330f9f4ef1bdbf66f7"),
    "charts --example thin_rhombus --format json":
        (0, "c6fd5d7868cf4f1c20853f031fa2c8190d7186f3bd7fce519bacabf343f4ec6b"),
    "cut --example sphere --normal 1 --level 1/2":
        (0, "9c7e91dff2bae846d85b32000d360b6a3015efbabc093da997e68a58eb1e7775"),
    "cut --example kite --axis-of kite":
        (0, "9a4cd6056c8b00ae86d34047a2928c55b2bbb05b83f67f5133980e8f037f0e2a"),
    "tile --type p3 --steps 5 --doubled":
        (0, "4ad85919a7e1085b208c0c635ee4e9134cc7a632f9f3c86a16c89e6e4cb80646"),
    "tile --type p2 --steps 8":
        (0, "cf5e479bf38ad733782d581892b5a597755fd4af4501f1b17388090a45be4f9b"),
}


def test_every_example_has_a_golden_report():
    assert {f"report --example {n} --format json" for n in EXAMPLES} <= set(GOLDEN)
    assert {f"report --example {n}" for n in EXAMPLES} <= set(GOLDEN)


def test_every_simple_example_has_golden_charts():
    simple = {n for n in EXAMPLES if GOLDEN[f"report --example {n}"][0] == 0}
    assert len(simple) == 11
    assert {f"charts --example {n} --format json" for n in simple} <= set(GOLDEN)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]
