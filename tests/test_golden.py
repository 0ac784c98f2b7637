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
    "cut --example kite --axis-of kite":
        (0, "9a4cd6056c8b00ae86d34047a2928c55b2bbb05b83f67f5133980e8f037f0e2a"),
    "tile --type p3 --steps 5 --doubled":
        (0, "4ad85919a7e1085b208c0c635ee4e9134cc7a632f9f3c86a16c89e6e4cb80646"),
    "tile --type p2 --steps 8":
        (0, "cf5e479bf38ad733782d581892b5a597755fd4af4501f1b17388090a45be4f9b"),
}


def test_every_example_has_a_golden_report():
    assert {f"report --example {n} --format json" for n in EXAMPLES} <= set(GOLDEN)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]
