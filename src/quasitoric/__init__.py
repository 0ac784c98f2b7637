"""Exact toric quasifold presentations from polytope/quasilattice triples."""

from .field import FieldElem, KMatrix, KVector, fe, phi
from .intlattice import (AbelianGroupInvariants, SmithDecomposition, hnf,
                         int_solve, snf)
from .polytope import HalfSpace, PolytopeH, VertexData, cut
from .quasilattice import (Quasilattice, is_discrete, member, quotient_by,
                           relation_lattice)
from .construction import (Chart, Classification, Presentation, Triple,
                           build_charts, build_presentation, classify,
                           cut_and_present, emit_report)
from .tilings import (Cyclo, HalfTile, Patch, deflate, inflate, pair_tiles,
                      render_svg, seed, tile_triple)
from .examples import EXAMPLES, get_example

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupInvariants", "Chart", "Classification", "Cyclo", "EXAMPLES",
    "FieldElem", "HalfSpace", "HalfTile", "KMatrix", "KVector", "Patch",
    "PolytopeH", "Presentation", "Quasilattice", "SmithDecomposition",
    "Triple", "VertexData", "build_charts", "build_presentation", "classify",
    "cut", "cut_and_present", "deflate", "emit_report", "fe", "get_example",
    "hnf", "inflate", "int_solve", "is_discrete", "member", "pair_tiles",
    "phi", "quotient_by", "relation_lattice", "render_svg", "seed", "snf",
    "tile_triple",
]
