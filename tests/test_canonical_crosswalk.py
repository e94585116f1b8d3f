"""The cross-walk from canonical form v1 to v2.

v1 searched from a one-cell root; v2 splits the root by the vertices'
ball sizes first (`autgrp` module docstring).  A graph's string may
change, but the strings must still name isomorphism classes: the v2
forms of the v1 census are exactly the v2 census, and over a grid of
graphs of every kind the two forms make the same isomorphism tests.
The v1 engine is kept in conftest; the pin below is the v1 census that
`CENSUS_14_SHA256` held before the root was split.
"""

import hashlib
import random

from conftest import random_graph, random_relabel, v1_canonical_form
from cubicsym import (build_graph, canonical_form, decode_graph6,
                      enumerate_cubic_graph6)
from test_profile_reference import GRID
from test_search_differential import reference_root

# sha256 of the sorted v1 census strings for n = 4..14, each followed by "\n"
CENSUS_14_V1_SHA256 = "b68745dbc048cffd55c6f9b50e939ae1a4b5e5ca78b48ad228dd046eb93095b5"


def test_v2_forms_of_the_v1_census_are_the_v2_census():
    v2 = [s for n in range(4, 15, 2) for s in enumerate_cubic_graph6(n)]
    v1 = sorted(v1_canonical_form(decode_graph6(s)) for s in v2)
    text = "".join(s + "\n" for s in v1)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CENSUS_14_V1_SHA256
    assert sorted(canonical_form(decode_graph6(s)).decode("ascii") for s in v1) == sorted(v2)
    # a string is kept exactly when the root is one cell, as it is for the
    # 15 vertex-transitive classes
    one_cell = {s for s in v2 if len(reference_root(decode_graph6(s))) == 1}
    assert set(v1) & set(v2) == one_cell and len(one_cell) == 26


def _disjoint_union(a, b):
    return build_graph(a.n + b.n, list(a.edges()) + [(u + a.n, w + a.n) for u, w in b.edges()])


def _crosswalk_grid():
    rng = random.Random(2026)
    small = [g for g in GRID if g.n <= 12]
    graphs = list(GRID)
    graphs += [_disjoint_union(rng.choice(small), rng.choice(small)) for _ in range(100)]
    graphs += [random_graph(rng.randint(2, 12), rng.choice((0.1, 0.2, 0.4)), rng)
               for _ in range(100)]
    return graphs


def test_v1_and_v2_make_the_same_isomorphism_tests():
    graphs = _crosswalk_grid()
    assert len(GRID) == 1103 and {0, 1} <= {g.n for g in graphs}
    assert any(not g.is_connected() for g in graphs)
    assert any(len({len(row) for row in g.adj}) > 1 for g in graphs)
    rng = random.Random(1998)
    pairs = set()
    for g in graphs:
        v2 = canonical_form(g)
        for _ in range(2):
            assert canonical_form(random_relabel(g, rng)) == v2
        pairs.add((v1_canonical_form(g), v2))
    # the classes of the grid under v1 and under v2 are the same: each v1
    # string meets one v2 string and each v2 string one v1 string
    assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)
    assert len(pairs) < len(graphs)  # the grid repeats classes
