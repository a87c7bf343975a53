"""``kg.read_lines`` reads the lines of ``open`` without their "\\n", and
``load_triples`` on it equals a loader that reads one line at a time.

Blocks of a few characters (``READ_CHARS`` patched small) put block
boundaries inside lines, between "\\r" and "\\n", and on both sides of a
line end, so that every line crosses or touches a boundary somewhere.
"""

import configparser
import io
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hornplex import kg
from hornplex.kg import TripleFileError, load_triples, read_lines

import oracles

BLOCK_CHARS = st.sampled_from([1, 2, 3, 5, 8, 64])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
SYMBOLS = st.sampled_from(["a", "b", "c", "r", "s", "", " ", "é", "x" * 70])


@st.composite
def texts(draw, line):
    """Lines drawn from ``line``, each ended by "\\n", "\\r\\n" or "\\r", the
    last one maybe not ended."""
    lines = draw(st.lists(st.tuples(line, LINE_ENDS), max_size=12))
    text = "".join(body + end for body, end in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]
    return text


# Lines of zero to four tab-separated symbols: empty lines, triples and
# lines with the wrong field count.
TSV = texts(st.lists(SYMBOLS, max_size=4).map("\t".join))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("read_lines") / "input.txt"


def small_blocks(chars):
    return mock.patch.object(kg, "READ_CHARS", chars)


@given(st.one_of(TSV, st.text(max_size=80)), BLOCK_CHARS)
def test_read_lines_are_the_lines_of_open(scratch_file, text, chars):
    scratch_file.write_bytes(text.encode("utf-8"))
    with open(scratch_file, encoding="utf-8") as handle:
        expected = [line.removesuffix("\n") for line in handle]
    with small_blocks(chars):
        assert list(read_lines(scratch_file, TripleFileError)) == expected


@given(TSV, BLOCK_CHARS, st.data())
def test_a_byte_that_is_not_utf8_names_its_line_and_offset(scratch_file, text, chars, data):
    cut = data.draw(st.integers(0, len(text)))
    head = text[:cut].encode("utf-8")
    scratch_file.write_bytes(head + b"\xff" + text[cut:].encode("utf-8"))
    lineno = io.StringIO(text[:cut], newline=None).read().count("\n") + 1
    with small_blocks(chars), pytest.raises(TripleFileError) as err:
        list(read_lines(scratch_file, TripleFileError))
    assert str(err.value) == f"{scratch_file}:{lineno}: byte 0xff at offset {len(head)} is not UTF-8"


def loaded(load, path, dicts, frozen):
    """The rows and dictionary items that ``load`` returns, or its error."""
    try:
        triples, (entity_ids, relation_ids) = load(path, dicts, frozen)
    except TripleFileError as err:
        return str(err)
    return triples.tolist(), list(entity_ids.items()), list(relation_ids.items())


@given(TSV, BLOCK_CHARS, st.booleans(), st.booleans())
def test_load_triples_equals_the_line_by_line_loader(scratch_file, text, chars, given_dicts, frozen):
    scratch_file.write_bytes(text.encode("utf-8"))

    def dicts():
        return ({"a": 0, "x" * 70: 1}, {"r": 0}) if given_dicts else None

    expected = loaded(oracles.load_triples, scratch_file, dicts(), frozen)
    with small_blocks(chars):
        assert loaded(load_triples, scratch_file, dicts(), frozen) == expected


@pytest.mark.parametrize("chars", [11, 12, 13])
@pytest.mark.parametrize(
    "bad, message",
    [
        ("a\tr", "expected 3 tab-separated fields, got 2"),
        ("a\tr\tz", "unknown entity 'z' with frozen dictionaries"),
        ("a\tq\tz", "unknown relation 'q' with frozen dictionaries"),
        ("y\tq\tz", "unknown entity 'y' with frozen dictionaries"),
    ],
)
def test_malformed_line_after_a_block_boundary_names_its_line(tmp_path, chars, bad, message):
    """Two 6-character lines fill the first 12 characters, so the third line
    starts just after, at or just before the boundary of a 12-character
    block."""
    path = tmp_path / "t.txt"
    path.write_text("a\tr\tb\n" * 2 + bad + "\n", encoding="utf-8")
    with small_blocks(chars), pytest.raises(TripleFileError) as err:
        load_triples(path, ({"a": 0, "b": 1}, {"r": 0}), frozen=True)
    assert str(err.value) == f"{path}:3: {message}"


INI_LINES = st.sampled_from(
    ["[a]", "[b]", "k = 1", "k=2", "j : v", "  more", "", "#c", "; c", "x", "%", "[DEFAULT]"]
)


@given(texts(INI_LINES))
def test_configparser_reads_the_lines_as_it_reads_open(scratch_file, text):
    """``load_run_config`` hands ``read_lines`` to configparser."""
    scratch_file.write_bytes(text.encode("utf-8"))

    def parsed(lines):
        parser = configparser.ConfigParser()
        try:
            parser.read_file(lines, source="f")
        except configparser.Error as err:
            return type(err)
        return {name: dict(parser.items(name, raw=True)) for name in parser}

    with open(scratch_file, encoding="utf-8") as handle:
        expected = parsed(handle)
    assert parsed(read_lines(scratch_file, ValueError)) == expected
