"""Graph construction and DIMACS text round-trips."""

import random
import tracemalloc

import pytest

from sumcol.graph import DimacsError, Graph, parse_dimacs, read_dimacs, write_dimacs

TRIANGLE = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.degree(0) == 1
    assert g.degree(1) == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_from_edges_collapses_duplicates_and_orientations():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edges_rejects_self_loop_and_range():
    with pytest.raises(ValueError, match="self loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 3)])


def test_density_endpoints():
    assert Graph.from_edges(1, []).density() == 0.0
    assert Graph.from_edges(2, [(0, 1)]).density() == 1.0
    empty = Graph.from_edges(5, [])
    assert empty.density() == 0.0
    complete = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert complete.density() == 1.0


def test_complement_involution_and_counts():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    h = g.complement()
    assert h.edge_count == 10 - 3
    assert not h.has_edge(0, 1) and h.has_edge(0, 2)
    assert h.complement() == g


def test_adjacency_length_must_match():
    with pytest.raises(ValueError):
        Graph(3, (0,))


def test_parse_triangle():
    g = parse_dimacs(TRIANGLE, name="k3")
    assert (g.n, g.edge_count, g.name) == (3, 3, "k3")
    assert g.adj == (0b110, 0b101, 0b011)


def test_parse_skips_comments_and_blanks():
    text = "c header\n\nc more\np edge 2 1\nc inline\ne 1 2\n"
    g = parse_dimacs(text)
    assert (g.n, g.edge_count) == (2, 1)


def test_parse_accepts_edges_keyword_and_dedups():
    text = "p edges 3 4\ne 1 2\ne 2 1\ne 1 2\ne 2 3\n"
    g = parse_dimacs(text)
    assert g.edge_count == 2


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("e 1 2\np edge 2 1\n", 1, "before problem line"),
        ("p edge 2 1\np edge 2 1\n", 2, "duplicate problem line"),
        ("p edge two 1\n", 1, "malformed problem line"),
        ("p foo 2 1\n", 1, "malformed problem line"),
        ("p edge 2 1\ne 1\n", 2, "malformed edge line"),
        ("p edge 2 1\ne 1 x\n", 2, "malformed edge line"),
        ("p edge 2 1\ne 0 2\n", 2, "out of range"),
        ("p edge 2 1\ne 1 3\n", 2, "out of range"),
        ("p edge 2 1\ne 2 2\n", 2, "self loop"),
        ("p edge 2 1\nq 1 2\n", 2, "unrecognized line"),
        ("c only comments\n", 0, "missing problem line"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(DimacsError, match=fragment) as exc_info:
        parse_dimacs(text)
    assert exc_info.value.line_no == line_no


def test_write_then_parse_round_trip():
    g = Graph.from_edges(6, [(0, 5), (1, 2), (1, 4), (3, 4)], name="rt")
    text = write_dimacs(g, comment="generated\nfor a test")
    assert text.startswith("c generated\nc for a test\np edge 6 4\n")
    back = parse_dimacs(text, name="rt")
    assert back == g


def test_read_dimacs_names_by_stem(tmp_path):
    path = tmp_path / "tri.col"
    path.write_text(TRIANGLE)
    g = read_dimacs(path)
    assert g.name == "tri"
    assert g.edge_count == 3


def test_read_dimacs_ignores_non_utf8_comments(tmp_path):
    path = tmp_path / "latin1.col"
    path.write_bytes("c caf\u00e9 r\u00e9seau\n".encode("latin-1") + TRIANGLE.encode())
    g = read_dimacs(path)
    assert g == parse_dimacs(TRIANGLE, name="latin1")


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    text = "\ufeffc made on windows\r\n" + TRIANGLE
    path = tmp_path / "bom.col"
    path.write_bytes(text.encode("utf-8"))
    assert read_dimacs(path) == parse_dimacs(TRIANGLE, name="bom")
    assert parse_dimacs(text, name="bom") == parse_dimacs(TRIANGLE, name="bom")
    # only at the start: elsewhere it is a character of its line
    for bad in (TRIANGLE + "\ufeffe 1 2\n", "\ufeff\ufeff" + TRIANGLE):
        path.write_bytes(bad.encode("utf-8"))
        with pytest.raises(DimacsError, match="unrecognized line") as from_text:
            parse_dimacs(bad)
        with pytest.raises(DimacsError, match="unrecognized line") as from_file:
            read_dimacs(path)
        assert str(from_file.value) == str(from_text.value)


def test_read_dimacs_non_utf8_edge_line_is_malformed(tmp_path):
    path = tmp_path / "bad.col"
    path.write_bytes(b"p edge 2 1\ne 1 \xff2\n")
    with pytest.raises(DimacsError, match="line 2: malformed edge line"):
        read_dimacs(path)


def test_empty_graph_and_isolated_vertices():
    g = parse_dimacs("p edge 4 0\n")
    assert g.n == 4
    assert g.edge_count == 0
    assert list(g.edges()) == []
    text = write_dimacs(g)
    assert parse_dimacs(text).n == 4


@pytest.mark.parametrize(
    "text",
    [
        "p edge 3 2\ne 1 2\x0ce 2 3\n",
        "p edge 3 2\r\ne 1 2\x0b\x1c\x1d\x1e\x85\u2028\u2029e 2 3\r",
        "c form feed\x0c\np edge 3 1\n\x0c\ne 1 3",
        "p edge 2 1\re 1 3\r",
        "p edge 3 1\n\x0c\ne 1 9\n",
        "p edge 3 1\r\re 1\x0ce 2 2\n",
    ],
)
def test_read_dimacs_splits_lines_as_parse_dimacs(tmp_path, text):
    assert_reads_as_parsed(tmp_path / "g.col", text)


@pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
def test_lines_end_only_at_newlines(tmp_path, sep):
    # any other separator is whitespace inside its line, in text and in a file
    text = f"c made by gen{sep}page 2\np edge 2 1\ne 1{sep}2\n"
    assert parse_dimacs(text) == Graph.from_edges(2, [(0, 1)])
    assert assert_reads_as_parsed(tmp_path / "ok.col", text) is None
    bad = f"c ok{sep}\np edge 2 1\ne 1 x\n"
    assert assert_reads_as_parsed(tmp_path / "bad.col", bad) == 3


def assert_reads_as_parsed(path, text):
    """read_dimacs on `text` saved at `path` gives parse_dimacs's graph or
    error; returns the error's line number, or None."""
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = parse_dimacs(text, name=path.stem)
    except DimacsError as exc:
        with pytest.raises(DimacsError) as exc_info:
            read_dimacs(path)
        assert str(exc_info.value) == str(exc)
        return exc.line_no
    assert read_dimacs(path) == expected
    return None


def test_read_dimacs_across_read_blocks(tmp_path):
    # many 8 KiB blocks of the file, line breaks of every kind at random
    # places (a "\r\n" or a character split between blocks too), other
    # separators inside comments, and one bad line at the end whose number
    # must come out the same
    rng = random.Random(5)
    breaks = ["\n", "\r\n", "\r", "\r\r\n\n"]
    n = 60
    lines = [f"p edge {n} 0"]
    for _ in range(6000):
        if rng.random() < 0.1:
            # now and then a comment longer than a block, so a block holds no "\n"
            body = "\u00e9" * (9000 if rng.random() < 0.02 else rng.randint(0, 300))
            cut = rng.randint(0, len(body))
            lines.append("c " + body[:cut] + rng.choice(["\x0c", "\x85", "\u2028"]) + body[cut:])
        else:
            u, v = rng.sample(range(1, n + 1), 2)
            lines.append(f"e {u} {v}")
    good = "".join(line + rng.choice(breaks) for line in lines)
    assert len(good.encode("utf-8")) > 8 * 8192
    assert max(map(len, lines)) > 9000
    assert assert_reads_as_parsed(tmp_path / "good.col", good) is None
    assert assert_reads_as_parsed(tmp_path / "bad.col", good + "e 1 x\n") > len(lines)


def test_read_dimacs_holds_the_graph_not_the_text(tmp_path):
    # about 2 MiB, most of it in long comment lines: tracing every line's
    # allocations costs far more per line than per byte
    n = 300
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u * v) % 9 < 1]
    comment = "c " + "x" * 254 + "\n"
    path = tmp_path / "big.col"
    path.write_text(
        comment * 8000 + f"p edge {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    )
    size = path.stat().st_size
    assert size > 2 << 20
    tracemalloc.start()
    try:
        g = read_dimacs(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == len(edges)
    # the graph's rows take a few KiB; the text or its lines held at once
    # would take more than the file's size
    assert peak < size / 8
