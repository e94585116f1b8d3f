"""graph6 codec: bit-exact layout, round trips, and parse errors."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicsym import (
    Graph6Error,
    build_graph,
    catalog_graph,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
)

from conftest import FIXED_CATALOG, random_cubic, random_graph
import random
import time

from cubicsym import enumerate_cubic_graph6


def test_k4_is_C_tilde():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert encode_graph6(k4) == "C~"
    assert decode_graph6("C~") == k4


def test_single_vertex_encodes_to_at_sign():
    assert encode_graph6(build_graph(1, [])) == "@"
    assert decode_graph6("@").n == 1


def test_heawood_round_trip_is_identical():
    g = catalog_graph("heawood")
    assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_1000_random_cubic_graphs():
    rng = random.Random(6)
    for i in range(1000):
        n = rng.choice((4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24))
        g = random_cubic(n, rng)
        assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 12), st.integers(0, 2**31 - 1))
def test_round_trip_arbitrary_graphs(n, seed):
    rng = random.Random(seed)
    edges = [
        (u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.5
    ]
    g = build_graph(n, edges)
    assert decode_graph6(encode_graph6(g)) == g


def test_extended_order_form():
    g = build_graph(63, [(i, i + 1) for i in range(62)])
    text = encode_graph6(g)
    assert text.startswith("~")
    assert not text.startswith("~~")
    assert decode_graph6(text) == g


def test_decode_is_left_inverse_on_canonical_strings():
    for name in ("k4", "petersen", "heawood"):
        s = encode_graph6(catalog_graph(name))
        assert encode_graph6(decode_graph6(s)) == s


def test_eight_byte_form_rejected():
    with pytest.raises(Graph6Error):
        decode_graph6("~~" + "?" * 10)


def test_malformed_length_reports_offset():
    with pytest.raises(Graph6Error) as err:
        decode_graph6("C~~")  # one byte too many for n = 4
    assert err.value.offset == 1


def test_nonprintable_byte_reports_offset():
    with pytest.raises(Graph6Error) as err:
        decode_graph6("C\x1f")
    assert err.value.offset == 1


def test_nonzero_padding_rejected():
    # n = 2: one adjacency byte with 1 significant bit; set a padding bit
    with pytest.raises(Graph6Error) as err:
        decode_graph6("A" + chr(63 + 1))
    assert "padding" in str(err.value)


def test_non_ascii_character_rejected_at_its_offset():
    with pytest.raises(Graph6Error) as err:
        decode_graph6("C\u00e9")
    assert err.value.offset == 1
    assert "non-printable" in str(err.value)
    with pytest.raises(Graph6Error) as err:
        decode_graph6("\u00e9")
    assert err.value.offset == 0


def test_header_prefix_accepted():
    g = catalog_graph("petersen")
    assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g


# ---------------------------------------------------------------------------
# the linear decoder against a bit-by-bit reference through build_graph


def _reference_decode(text):
    """One bit at a time into an edge list, then `build_graph`."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"non-printable graph6 byte {ord(ch)}", off)
    data = s.encode("ascii")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte order form is not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated extended order", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise Graph6Error("extended order used for n < 63", 0)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - pos}",
            pos,
        )
    edges = []
    bit_index = 0
    i, j = 0, 1
    for k in range(pos, len(data)):
        chunk = data[k] - 63
        for shift in range(5, -1, -1):
            if bit_index >= nbits:
                if (chunk >> shift) & 1:
                    raise Graph6Error("nonzero padding bits", k)
                continue
            if (chunk >> shift) & 1:
                edges.append((i, j))
            bit_index += 1
            i += 1
            if i == j:
                i = 0
                j += 1
    return build_graph(n, edges)


def _assert_decoders_agree(text):
    try:
        ref = _reference_decode(text)
    except Graph6Error as exc:
        with pytest.raises(Graph6Error) as err:
            decode_graph6(text)
        assert (err.value.offset, str(err.value)) == (exc.offset, str(exc))
        return
    g = decode_graph6(text)
    assert (g.n, g.adj, g.adj_bits) == (ref.n, ref.adj, ref.adj_bits)


def test_decoder_matches_reference_on_census_to_12():
    for n in range(4, 13, 2):
        for s in enumerate_cubic_graph6(n):
            _assert_decoders_agree(s)


def test_decoder_matches_reference_on_catalog():
    for name in FIXED_CATALOG:
        _assert_decoders_agree(encode_graph6(catalog_graph(name)))


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 200])
def test_decoder_matches_reference_on_random_graphs(n):
    rng = random.Random(n)
    for density in (0.05, 0.5, 0.95):
        s = encode_graph6(random_graph(n, density, rng))
        assert s.startswith("~") == (n >= 63)
        _assert_decoders_agree(s)


def test_decode_is_linear_on_2000_vertex_cubic_graph():
    g = random_cubic(2000, random.Random(2000))
    s = encode_graph6(g)
    start = time.perf_counter()
    decoded = decode_graph6(s)
    elapsed = time.perf_counter() - start
    assert decoded == g
    assert elapsed < 5.0, f"decoding 2,000 vertices took {elapsed:.2f} s"


def _well_formed(n, payload):
    """An order prefix followed by exactly the adjacency bytes n needs."""
    nbytes = (n * (n - 1) // 2 + 5) // 6
    return chr(63 + n) + "".join(chr(63 + b) for b in payload[:nbytes])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
    st.builds(_well_formed, st.integers(0, 20),
              st.lists(st.integers(0, 63), min_size=32, max_size=32)),
))
def test_decoders_agree_on_arbitrary_ascii(text):
    _assert_decoders_agree(text)


# ---------------------------------------------------------------------------
# edge list text format

def test_edge_list_round_trip():
    g = catalog_graph("pappus")
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    text = "# a comment\n\n0 1\n1 2  # trailing\n\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.m == 2


def test_edge_list_bad_line():
    with pytest.raises(ValueError) as err:
        parse_edge_list("0 1 2\n")
    assert "line 1" in str(err.value)
