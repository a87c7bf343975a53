"""Every file reader, on arbitrary bytes: it returns a result or raises its
own error type with the file in the message. Any other exception, or a
message that does not name the file, fails.

Each text reader gets raw bytes, or lines built from tokens of its format
(numbers, names, tabs, section headers and keys, ``%``) with bytes that are
not UTF-8 among them, so that inputs reach past the first line and field.
``load_table`` gets an intact dump with some bytes overwritten, cut short,
or both, and ``load_checkpoint`` an intact checkpoint with some bytes
overwritten, cut short or extended; a checkpoint that loads holds a finite,
positive epsilon and finite, non-negative accumulators.
"""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from hornplex.config import FLAGS, load_run_config
from hornplex.kg import TripleFileError, load_triples, read_dictionary
from hornplex.model import init_table, load_table, save_table
from hornplex.rules import RuleFileError, parse_rules
from hornplex.training import AdagradState, load_checkpoint, save_checkpoint

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


def ini(sections, *values):
    """Sections with distinct names, each a header and ``key = value`` lines
    with distinct keys from the section's list in the dict ``sections``, the
    values made of ``values``."""
    value = st.lists(st.sampled_from([v.encode() for v in values]), max_size=2).map(b"".join)

    def section(name):
        keys = st.sampled_from([key.encode() for key in sections[name]])
        return st.tuples(st.just(name.encode()), st.dictionaries(keys, value, max_size=4))

    return st.lists(
        st.sampled_from(list(sections)).flatmap(section), max_size=4, unique_by=lambda s: s[0]
    ).map(
        lambda parts: b"\n".join(
            b"[%s]\n" % name + b"".join(b"%s = %s\n" % pair for pair in body.items())
            for name, body in parts
        )
    )


def load_run_config_in_range(path, overrides=None):
    """``load_run_config``, asserting that every list, count and seed it
    loads holds values in its range."""
    cfg = load_run_config(path, overrides)
    for values, least in (
        (cfg.eval_hits, 1),
        (cfg.verify_dims, 1),
        (cfg.verify_ks, 1),
        (cfg.fewshot_shots, 0),
        ((cfg.verify_trials, cfg.fewshot_num_task_relations), 1),
        ((cfg.train.seed, cfg.fewshot_seed, cfg.verify_seed), 0),
    ):
        assert values and min(values) >= least, (values, least)
    assert cfg.eval_split in ("train", "valid", "test")
    return cfg


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
        load_run_config_in_range,
        ValueError,
        st.one_of(
            st.binary(max_size=120),
            # each section draws its own keys and one that belongs elsewhere
            ini(
                {
                    "train": ["learning_rate", "batch_size", "epochs", "mu", "bound", "dim",
                              "seed", "hits"],
                    "paths": ["train", "output_dir", "mu"],
                    "eval": ["hits", "side", "split", "seed"],
                    "fewshot": ["num_task_relations", "shots", "seed", "candidates", "ks"],
                    "verify": ["trials", "seed", "dims", "ks", "shots"],
                    "other": ["mu"],
                    "": ["mu"],
                },
                "%", "%%", "%(x)s", "%(mu)s", ",", "0", "1", "-1", "0.5", "1e9", "nan", "x", " ",
            ),
            # non-empty files of the integer lists and counts alone, most of which load
            ini(
                {
                    "eval": ["hits"],
                    "fewshot": ["num_task_relations", "shots"],
                    "verify": ["trials", "dims", "ks"],
                },
                ",", "0", "1", "-1", " ",
            ).filter(bool),
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


def intact_checkpoint():
    state = AdagradState.zeros(3, 2, 2)
    state.acc[:3, 0::2] += 0.5  # ent_re_acc
    state.acc[3:, 1::2] += 2.0  # rel_im_acc
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(path, init_table(3, 2, 2, bound=1.5, seed=0), state)
        return path.read_bytes()


CHECKPOINT = intact_checkpoint()


def load_checkpoint_in_range(path):
    """``load_checkpoint``, asserting that the AdaGrad state it loads is one
    that AdaGrad can go on from."""
    table, state = load_checkpoint(path)
    assert math.isfinite(state.epsilon) and state.epsilon > 0, state.epsilon
    for acc in oracles.accumulator_halves(state, table.num_entities):
        assert ((acc >= 0) & np.isfinite(acc)).all(), acc


@given(
    st.lists(st.tuples(st.integers(0, len(CHECKPOINT) - 1), st.sampled_from(VALUES)), max_size=4),
    st.one_of(st.none(), st.integers(0, len(CHECKPOINT))),
    st.binary(max_size=16),
)
def test_load_checkpoint_returns_or_raises_on_patched_checkpoints(scratch_file, patches, cut, extra):
    blob = bytearray(CHECKPOINT)
    for at, value in patches:
        blob[at : at + len(value)] = value
    scratch_file.write_bytes(bytes(blob[:cut]) + extra)
    reads_or_names_the_file(load_checkpoint_in_range, ValueError, scratch_file)


@pytest.mark.parametrize(
    "text, parts",
    [
        ("[train]\nmu = %\n", ["[train] mu = '%'", "'%' must be followed"]),
        ("[paths]\ntrain = %(x)s\n", ["[paths] train = '%(x)s'", "interpolation key 'x'"]),
        ("[train]\nbound = -1\n", ["[train] bound must be positive"]),
        ("[eval]\nhits =\n", ["[eval] hits = '': expected at least one value"]),
        ("[eval]\nhits = 0,-3\n", ["[eval] hits = '0,-3': expected an integer of at least 1"]),
        ("[verify]\ndims =\n", ["[verify] dims = '': expected at least one value"]),
        ("[verify]\ndims = 2,0\n", ["[verify] dims = '2,0': expected an integer of at least 1"]),
        ("[verify]\nks =\n", ["[verify] ks = '': expected at least one value"]),
        ("[verify]\nks = 0\n", ["[verify] ks = '0': expected an integer of at least 1"]),
        ("[verify]\ntrials = -5\n", ["[verify] trials = '-5': expected an integer of at least 1"]),
        (
            "[fewshot]\nnum_task_relations = 0\n",
            ["[fewshot] num_task_relations = '0': expected an integer of at least 1"],
        ),
        ("[fewshot]\nshots =\n", ["[fewshot] shots = '': expected at least one value"]),
        (
            "[fewshot]\nshots = 0,-1\n",
            ["[fewshot] shots = '0,-1': expected an integer of at least 0"],
        ),
        ("[fewshot]\ncandidates =\n", ["[fewshot] candidates = '': expected at least one name"]),
        (
            "[fewshot]\ncandidates = r1, r0,r1\n",
            ["[fewshot] candidates = 'r1, r0,r1': 'r1' is listed twice"],
        ),
    ],
    ids=[
        "bad-percent",
        "unknown-interpolation",
        "rejected-by-train-config",
        "empty-hits",
        "hits-below-1",
        "empty-dims",
        "dims-below-1",
        "empty-ks",
        "ks-below-1",
        "trials-below-1",
        "num-task-relations-below-1",
        "empty-shots",
        "shots-below-0",
        "empty-candidates",
        "duplicated-candidates",
    ],
)
def test_run_config_value_errors_name_the_file(tmp_path, text, parts):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_run_config(path)
    assert str(path) in str(err.value)
    for part in parts:
        assert part in str(err.value)


# The fields of the loaded configuration that each flag sets, and how the
# flag's text reads as their value.
FLAG_FIELDS = {
    "output_dir": (str, lambda cfg: [cfg.output_dir]),
    "seed": (int, lambda cfg: [cfg.train.seed, cfg.fewshot_seed, cfg.verify_seed]),
    "split": (str, lambda cfg: [cfg.eval_split]),
    "trials": (int, lambda cfg: [cfg.verify_trials]),
}


@given(data=st.data())
def test_run_config_flags_load_their_value_or_name_the_flag(scratch_file, data):
    assert set(FLAG_FIELDS) == set(FLAGS)
    scratch_file.write_bytes(data.draw(READERS["run-config"][2]))
    text = st.sampled_from(
        ["0", "1", "-1", "7", " 3", "", "x", "1.5", "nan", "%", "%(x)s", "valid", "tset"]
    )
    overrides = data.draw(st.dictionaries(st.sampled_from(sorted(FLAGS)), text))
    try:
        cfg = load_run_config_in_range(scratch_file, overrides)
    except ValueError as err:
        named = [f"--{flag.replace('_', '-')} {overrides[flag]}: " for flag in overrides]
        assert str(scratch_file) in str(err) or str(err).startswith(tuple(named)), str(err)
        return
    for flag, given_text in overrides.items():
        read, loaded = FLAG_FIELDS[flag]
        assert loaded(cfg) == [read(given_text)] * len(FLAGS[flag]), (flag, given_text)
