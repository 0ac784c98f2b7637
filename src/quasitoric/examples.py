"""Shipped example triples: tiles, spheres and the regular polyhedra.

Each example is a triple document, `quasitoric/data/<name>.json`, certificates
included, and reads through `jsonio.parse_triple` like any `--input` file.
The builders that derive them, with their size conventions, are the tests'
oracle (`tests/example_builders.py`).
"""
from __future__ import annotations

import json
from importlib import resources

from .field import FieldElem, KVector, fe, phi
from .construction import Triple
from . import jsonio

EXAMPLES = ("sphere", "orbisphere", "quasisphere", "kite", "thick_rhombus",
            "thin_rhombus", "prolate_rhombohedron", "oblate_rhombohedron", "cube",
            "tetrahedron", "octahedron", "dodecahedron", "icosahedron")


def kite_axis_cut() -> tuple[KVector, FieldElem]:
    """Normal and level of the kite's symmetry axis, as a quasilattice member."""
    p = phi()
    return KVector([p - 1, 1 - p]), fe(0, 0, 5)


def get_example(name: str) -> Triple:
    if name not in EXAMPLES:
        raise ValueError(f"unknown example {name!r}; "
                         f"choose from {sorted(EXAMPLES)}")
    text = resources.files("quasitoric.data").joinpath(f"{name}.json").read_text()
    return jsonio.parse_triple(json.loads(text))
