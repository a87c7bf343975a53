"""Every file reader, on arbitrary bytes: it returns a result or raises its
own error type with the file in the message. Any other exception, or a
message that does not name the file, fails.

Each text reader gets raw bytes, or lines built from tokens of its format
(numbers, names, tabs, section headers and keys, ``%``) with bytes that are
not UTF-8 among them, so that inputs reach past the first line and field.
``load_table`` gets an intact dump with some bytes overwritten, cut short,
or both.
"""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hornplex.config import load_run_config
from hornplex.kg import TripleFileError, load_triples, read_dictionary
from hornplex.model import init_table, load_table, save_table
from hornplex.rules import RuleFileError, parse_rules

COMMON = [" ", "", "#", "x", "é", "0", "1", "-1", "nan", "1e400", "\r"]
RAW = [b"\xff", b"\xc3", b"\x00"]


def tokens(*extra):
    return st.sampled_from([t.encode() for t in COMMON + list(extra)] + RAW)


def fields(*extra):
    return st.lists(tokens(*extra), max_size=3).map(b"".join)


def tsv(*extra):
    """Arbitrary bytes, or lines of tab-separated fields made of tokens."""
    line = st.lists(fields(*extra), max_size=5).map(b"\t".join)
    return st.one_of(st.binary(max_size=120), st.lists(line, max_size=8).map(b"\n".join))


def ini(sections, keys, *values):
    """Arbitrary bytes, or sections with distinct names, each a header and
    ``key = value`` lines with distinct keys, the values made of ``values``."""
    value = st.lists(st.sampled_from([v.encode() for v in values]), max_size=2).map(b"".join)
    pairs = st.dictionaries(st.sampled_from([key.encode() for key in keys]), value, max_size=4)
    section = st.tuples(st.sampled_from([name.encode() for name in sections]), pairs)
    text = st.lists(section, max_size=4, unique_by=lambda s: s[0]).map(
        lambda parts: b"\n".join(
            b"[%s]\n" % name + b"".join(b"%s = %s\n" % pair for pair in body.items())
            for name, body in parts
        )
    )
    return st.one_of(st.binary(max_size=120), text)


READERS = {
    "triples": (
        lambda path: load_triples(path, ({"a": 0}, {"r": 0}), frozen=True),
        TripleFileError,
        tsv("a", "r", "b"),
    ),
    "triples-open": (load_triples, TripleFileError, tsv("a", "r")),
    "rules": (
        lambda path: parse_rules(path, {"r": 0, "s": 1}),
        RuleFileError,
        tsv("r", "s", "0.5", "1.0", "inf"),
    ),
    "dictionary": (read_dictionary, TripleFileError, tsv("a", "2", "١", "+3", "0x1")),
    "run-config": (
        load_run_config,
        ValueError,
        ini(
            ["train", "paths", "eval", "fewshot", "verify", "other", ""],
            ["learning_rate", "batch_size", "epochs", "mu", "bound", "dim", "seed", "hits",
             "side", "split", "num_task_relations", "shots", "candidates", "trials", "ks",
             "train", "output_dir"],
            "%", "%%", "%(x)s", "%(mu)s", ",", "0", "1", "-1", "0.5", "1e9", "nan", "x", " ",
        ),
    ),
}


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def reads_or_names_the_file(read, error, path):
    try:
        read(path)
    except error as err:
        assert str(path) in str(err), str(err)


@pytest.mark.parametrize("kind", READERS)
@given(data=st.data())
def test_text_readers_return_or_raise_their_error(scratch_file, kind, data):
    read, error, content = READERS[kind]
    scratch_file.write_bytes(data.draw(content))
    reads_or_names_the_file(read, error, scratch_file)


def intact_dump():
    buf = io.BytesIO()
    save_table(buf, init_table(3, 2, 2, bound=1.5, seed=0))
    return buf.getvalue()


DUMP = intact_dump()
VALUES = [b"\x00", b"\xff", b"\x7f", b"\x80"] + [
    np.float64(v).tobytes() for v in (-1.0, 0.0, 1.0, 2.0, np.nan, np.inf, 1e308)
] + [np.int64(v).tobytes() for v in (-1, 0, 1, 2, 2**40, 2**62)]


@given(
    st.lists(st.tuples(st.integers(0, len(DUMP) - 1), st.sampled_from(VALUES)), max_size=4),
    st.one_of(st.none(), st.integers(0, len(DUMP))),
)
def test_load_table_returns_or_raises_on_patched_dumps(scratch_file, patches, cut):
    blob = bytearray(DUMP)
    for at, value in patches:
        blob[at : at + len(value)] = value
    scratch_file.write_bytes(bytes(blob[:cut]))
    reads_or_names_the_file(load_table, ValueError, scratch_file)


@pytest.mark.parametrize(
    "text, parts",
    [
        ("[train]\nmu = %\n", ["[train] mu = '%'", "'%' must be followed"]),
        ("[paths]\ntrain = %(x)s\n", ["[paths] train = '%(x)s'", "interpolation key 'x'"]),
        ("[train]\nbound = -1\n", ["[train] bound must be positive"]),
    ],
    ids=["bad-percent", "unknown-interpolation", "rejected-by-train-config"],
)
def test_run_config_value_errors_name_the_file(tmp_path, text, parts):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_run_config(path)
    assert str(path) in str(err.value)
    for part in parts:
        assert part in str(err.value)
