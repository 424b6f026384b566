"""parse_graph against the line-by-line reader in tests/paper.py.

parse_graph reads a well-formed file in whole-list passes and walks it
line by line only when that read fails.  On any text, valid or not, it
must give the Graph the reference reader gives, or the ParseError with
the same line and reason.  The texts are well-formed graphs with comments,
blank lines and mixed line ends, each with up to two edits that respell
a token or break the file.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcircuits import ParseError, parse_graph
from paper import parse_graph_by_line

HUGE = "1" + "0" * 4999  # past int()'s default limit of 4300 digits
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def outcome(read, text):
    """read(text), or the (line, reason) of the ParseError it raises."""
    try:
        return read(text)
    except ParseError as exc:
        return exc.line, exc.reason


def _respell(tok: str, how: str) -> str:
    """The same int in another spelling int() reads, or a token it refuses."""
    if how == "plus":
        return "+" + tok
    if how == "arabic-indic":
        return tok.translate(ARABIC_INDIC)
    if how == "underscore":
        return tok[0] + "_" + tok[1:] if len(tok) > 1 else "0_" + tok
    if how == "zeros":
        return "00" + tok
    return {"huge": HUGE, "junk": "x", "float": tok + ".0"}[how]


EDITS = ["plus", "arabic-indic", "underscore", "zeros", "huge", "junk", "float",
         "negative-n", "more-m", "fewer-m", "merge", "split", "out-of-range", "self-loop",
         "drop", "repeat"]


@st.composite
def graph_texts(draw):
    n = draw(st.integers(0, 9))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=12)) if n > 1 else []
    rows = [[str(n), str(len(edges))]] + [[str(u), str(v)] for u, v in edges]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if edit == "negative-n" and rows[0]:
            rows[0][0] = str(-1 - n)
        elif edit in ("more-m", "fewer-m") and len(rows[0]) == 2:
            rows[0][1] = str(len(edges) + (draw(st.integers(1, 2)) if edit == "more-m"
                                           else -draw(st.integers(1, 2))))
        elif edit == "merge" and i + 1 < len(rows) and rows[i + 1]:
            row.append(rows[i + 1].pop(0))  # three tokens on line i, one on the next
        elif edit == "split" and len(row) > 1:
            rows.insert(i + 1, [row.pop()])
        elif edit == "out-of-range" and i > 0 and row:
            row[-1] = str(draw(st.sampled_from([0, n + 1, -1])))
        elif edit == "self-loop" and i > 0 and len(row) == 2:
            row[1] = row[0]
        elif edit == "drop":
            del rows[i]
            if not rows:
                break
        elif edit == "repeat":
            rows.insert(i, list(row))
        elif edit in ("plus", "arabic-indic", "underscore", "zeros", "huge", "junk",
                      "float") and row:
            j = draw(st.integers(0, len(row) - 1))
            row[j] = _respell(row[j], edit)
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [draw(st.sampled_from(["", " "])) + draw(gap).join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "   ", "\t", "# note", "#", "  # 1 2", "#3 4"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join([line + end for line, end in zip(lines, ends)])


@given(graph_texts())
@settings(max_examples=400, deadline=None)
def test_parse_graph_reads_as_the_line_by_line_reader(text):
    assert outcome(parse_graph, text) == outcome(parse_graph_by_line, text)


@pytest.mark.parametrize("text", [
    "# a comment\n\n3 2\n  # another\n1 2\n\n2 3\n",
    "3 2\r\n1 2\r\n2 3\r\n",
    "3 2\r1 2\r2 3",
    "3 2\r\n1 2\r2 3\n",
    "+3 2\n1 +2\n٢ ٣\n",
    "1_0 1\n1_0 1\n",
    f"3 1\n1 {HUGE}\n",
    f"{HUGE} 0\n",
    "-1 0\n",
    "3 -1\n",
    "3 3\n1 2\n2 3\n",
    "3 1\n1 2\n2 3\n",
    "3 2\n1 2 3\n1\n",
    "3 2\n1 2\n2 4\n",
    "3 2\n1 2\n0 1\n",
    "3 2\n1 2\n3 3\n",
    "3 3\n1 5\nx y\n",
    "",
    "# only a comment\n",
    "3\n",
    "2 1\n1 2 # trailing comment\n",
])
def test_parse_graph_reads_each_case_as_the_line_by_line_reader(text):
    assert outcome(parse_graph, text) == outcome(parse_graph_by_line, text)
