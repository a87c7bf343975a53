import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hornplex.kernel import Scratch
from hornplex.kg import Triple
from hornplex.model import (
    BLOCK_VALUES,
    EmbeddingTable,
    export_table_csv,
    init_table,
    is_feasible,
    load_table,
    project,
    project_relation_components,
    save_table,
    score,
    score_all_heads,
    score_all_tails,
    score_dim,
)

import oracles
from conftest import assert_row_slices, make_feasible_table


def one_dim_table(e0, e1, r, bound=1.0):
    return EmbeddingTable(
        ent_re=np.array([[e0[0]], [e1[0]]], dtype=float),
        ent_im=np.array([[e0[1]], [e1[1]]], dtype=float),
        rel_re=np.array([[r[0]]], dtype=float),
        rel_im=np.array([[r[1]]], dtype=float),
        bound=bound,
    )


@pytest.mark.parametrize(
    "e0, e1, r, expected",
    [
        ((1, 0), (1, 0), (1, 0), 1.0),  # identity phases
        ((1, 1), (1, 0), (0.5, 0.5), 0.0),
        ((1, 0), (0, 1), (0, 1), 1.0),
    ],
)
def test_score_examples(e0, e1, r, expected):
    table = one_dim_table(e0, e1, r)
    assert score(table, Triple(0, 0, 1)) == pytest.approx(expected, abs=1e-15)


def test_score_dim_single_dimension_equals_score():
    table = one_dim_table((0.3, 0.8), (0.6, 0.1), (0.4, 0.9))
    t = Triple(0, 0, 1)
    assert score_dim(table, t, 0) == pytest.approx(score(table, t), abs=1e-15)


def test_score_dim_zero_relation_row():
    table = make_feasible_table(seed=1, dim=5)
    table.rel_re[0] = 0.0
    table.rel_im[0] = 0.0
    for l in range(5):
        assert score_dim(table, Triple(0, 0, 1), l) == 0.0


def test_score_dim_polar_form():
    table = make_feasible_table(seed=2, dim=8)
    t = Triple(3, 1, 7)
    for l in range(8):
        mods = []
        phases = []
        for re_arr, im_arr, idx in (
            (table.ent_re, table.ent_im, t.head),
            (table.rel_re, table.rel_im, t.relation),
            (table.ent_re, table.ent_im, t.tail),
        ):
            mods.append(np.hypot(re_arr[idx, l], im_arr[idx, l]))
            phases.append(np.arctan2(im_arr[idx, l], re_arr[idx, l]))
        expected = mods[0] * mods[1] * mods[2] * np.cos(phases[1] + phases[0] - phases[2])
        assert score_dim(table, t, l) == pytest.approx(expected, abs=1e-12)


def test_score_is_sum_of_dimension_scores():
    table = make_feasible_table(seed=3, dim=16)
    t = Triple(2, 1, 9)
    total = sum(score_dim(table, t, l) for l in range(16))
    assert abs(total - score(table, t)) < 1e-12 * 16


def test_score_dim_out_of_range():
    table = make_feasible_table(seed=0, dim=4)
    with pytest.raises(IndexError):
        score_dim(table, Triple(0, 0, 1), 4)


def test_score_all_tails_matches_scalar_small():
    table = make_feasible_table(seed=4, num_entities=3, dim=4)
    vec = score_all_tails(table, 0, 1)
    for j in range(3):
        assert abs(vec[j] - score(table, Triple(0, 1, j))) < 1e-12


def test_score_all_tails_matches_scalar_large():
    table = make_feasible_table(seed=5, num_entities=50, dim=6)
    vec = score_all_tails(table, 7, 2)
    worst = max(abs(vec[j] - score(table, Triple(7, 2, j))) for j in range(50))
    assert worst < 1e-12


def test_score_all_heads_matches_scalar():
    table = make_feasible_table(seed=6, num_entities=50, dim=6)
    vec = score_all_heads(table, 1, 4)
    worst = max(abs(vec[i] - score(table, Triple(i, 1, 4))) for i in range(50))
    assert worst < 1e-12


def test_score_all_tails_zero_head_row():
    table = make_feasible_table(seed=7)
    table.ent_re[2] = 0.0
    table.ent_im[2] = 0.0
    assert np.all(score_all_tails(table, 2, 0) == 0.0)


def test_project_clamps_entities():
    table = make_feasible_table(seed=8)
    table.ent_re[0, 0] = 1.7
    table.ent_im[0, 1] = -0.3
    project(table)
    assert table.ent_re[0, 0] == 1.0
    assert table.ent_im[0, 1] == 0.0


def test_project_radial_rescale():
    table = make_feasible_table(seed=9, dim=2)
    table.rel_re[0, 0] = 1.0
    table.rel_im[0, 0] = 1.0
    project(table)
    assert table.rel_re[0, 0] == pytest.approx(0.70710678, abs=1e-8)
    assert table.rel_im[0, 0] == pytest.approx(0.70710678, abs=1e-8)
    assert np.hypot(table.rel_re[0, 0], table.rel_im[0, 0]) <= 1.0


def test_project_fixed_point_on_feasible_table():
    table = make_feasible_table(seed=10)
    before = table.copy()
    project(table)
    assert np.array_equal(table.ent_re, before.ent_re)
    assert np.array_equal(table.rel_re, before.rel_re)
    assert np.array_equal(table.rel_im, before.rel_im)


@given(st.integers(0, 2**32 - 1), st.floats(0.5, 3.0))
def test_project_idempotent_bit_exact(seed, scale):
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        ent_re=rng.normal(0, scale, (5, 3)),
        ent_im=rng.normal(0, scale, (5, 3)),
        rel_re=rng.normal(0, scale, (4, 3)),
        rel_im=rng.normal(0, scale, (4, 3)),
        bound=1.0,
    )
    project(table)
    assert is_feasible(table)
    once = table.copy()
    project(table)
    assert np.array_equal(table.ent_re, once.ent_re)
    assert np.array_equal(table.ent_im, once.ent_im)
    assert np.array_equal(table.rel_re, once.rel_re)
    assert np.array_equal(table.rel_im, once.rel_im)


def test_project_works_in_place():
    """Projecting 250 of 20k entity rows and two relation rows through an
    arena allocates under 16 KiB, where taking the rows' halves alone would
    take 250 KiB, and so does projecting the whole table. Each row gets the
    bits of clipping and projecting its halves on their own."""
    rng = np.random.default_rng(4)
    table = init_table(20_000, 6, 64, 1.0, seed=4)
    rows = np.sort(rng.choice(np.arange(1, 20_000), 250, replace=False))
    rel_rows = np.array([4, 1])
    table.ent[rows] += rng.normal(0.0, 0.5, (250, 128))
    table.ent[0] = 2.0  # not in ``rows``
    table.rel_re[rel_rows] += 0.8
    expected = table.copy()
    for half in (expected.ent_re, expected.ent_im):
        half[rows] = np.clip(half[rows], 0.0, 1.0)
    re, im = expected.rel_re[rel_rows], expected.rel_im[rel_rows]
    project_relation_components(re, im, 1.0)
    expected.rel_re[rel_rows], expected.rel_im[rel_rows] = re, im
    whole = table.copy()

    arena = Scratch(2 * (rows.size + rel_rows.size) * 64)
    tracemalloc.start()
    try:
        project(table, np.concatenate([rows, 20_000 + np.sort(rel_rows)]), alloc=arena)
        rows_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        project(whole)
        whole_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rows_peak < 16 * 1024, rows_peak
    assert whole_peak < 16 * 1024, whole_peak
    for name in ("ent", "rel_re", "rel_im"):
        assert getattr(table, name).tobytes() == getattr(expected, name).tobytes(), name
    assert is_feasible(whole) and np.all(whole.ent[0] == 1.0)
    assert whole.ent[rows].tobytes() == table.ent[rows].tobytes()


def test_init_deterministic():
    a = init_table(10, 4, 6, 1.0, seed=42)
    b = init_table(10, 4, 6, 1.0, seed=42)
    assert np.array_equal(a.ent_re, b.ent_re)
    assert np.array_equal(a.rel_im, b.rel_im)


def test_init_feasible_without_projection():
    table = init_table(20, 5, 8, bound=0.7, seed=3)
    before = table.copy()
    assert is_feasible(table)
    project(table)
    assert np.array_equal(table.rel_re, before.rel_re)
    assert np.array_equal(table.ent_re, before.ent_re)


def test_init_component_mean():
    table = init_table(100, 4, 16, 1.0, seed=12)
    assert abs(table.ent_re.mean() - 0.5) < 0.02


def test_init_validates_arguments():
    with pytest.raises(ValueError):
        init_table(0, 1, 4)
    with pytest.raises(ValueError):
        init_table(1, 1, 4, bound=0.0)
    with pytest.raises(ValueError, match="bound must be positive"):
        init_table(1, 1, 4, bound=float("nan"))



def test_init_rejects_an_infinite_bound():
    with pytest.raises(ValueError, match="bound must be positive and finite"):
        init_table(2, 1, 2, bound=float("inf"))

@given(st.integers(0, 2**32 - 1))
def test_score_dim_bounded(seed):
    table = make_feasible_table(seed=seed, num_entities=6, num_relations=2, dim=4)
    t = Triple(0, 1, 5)
    for l in range(4):
        assert abs(score_dim(table, t, l)) <= 2.0 * table.bound + 1e-12
    assert abs(score(table, t)) <= 2.0 * table.bound * 4 + 1e-12


def test_save_load_round_trip(tmp_path):
    table = make_feasible_table(seed=13, num_entities=7, num_relations=3, dim=5)
    p = tmp_path / "emb.bin"
    save_table(p, table)
    loaded = load_table(p)
    assert loaded.bound == table.bound
    assert np.array_equal(loaded.ent_re, table.ent_re)
    assert np.array_equal(loaded.ent_im, table.ent_im)
    assert np.array_equal(loaded.rel_re, table.rel_re)
    assert np.array_equal(loaded.rel_im, table.rel_im)


def test_load_ignores_trailing_bytes(tmp_path):
    table = make_feasible_table(seed=14)
    buf = io.BytesIO()
    save_table(buf, table)
    buf.write(b"optimizer state trailer")
    buf.seek(0)
    loaded = load_table(buf)
    assert np.array_equal(loaded.ent_re, table.ent_re)


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_table(p)


def damaged_dumps():
    """Damaged embedding dumps and the parts their error must name; the
    intact dump (5 entities, 2 relations, d=3) is 36 + 14 * 24 = 372 bytes."""
    buf = io.BytesIO()
    save_table(buf, init_table(5, 2, 3, seed=0))
    dump = buf.getvalue()
    cases = [
        ("cut-in-header", dump[:20], ["truncated at byte 20", "header", "from byte 4"]),
        ("cut-in-arrays", dump[:100], ["truncated at byte 100", "ent_re", "from byte 36"]),
        ("negative-count", dump[:4] + struct.pack("<q", -1) + dump[12:], ["byte 4", "n=-1"]),
        ("zero-dimension", dump[:20] + struct.pack("<q", 0) + dump[28:], ["byte 20", "d=0"]),
        ("infinite-bound", dump[:28] + struct.pack("<d", np.inf) + dump[36:], ["byte 28", "bound=inf"]),
        ("zero-bound", dump[:28] + struct.pack("<d", 0.0) + dump[36:], ["byte 28", "bound=0.0"]),
        ("huge-count", dump[:4] + struct.pack("<q", 2**60) + dump[12:], ["truncated at byte 372"]),
        # ent_im starts at byte 36 + 5 * 24 = 156; its 6th value is at byte 196
        ("nan-entity", dump[:196] + struct.pack("<d", np.nan) + dump[204:], ["ent_im", "nan", "at byte 196"]),
        ("inf-relation", dump[:276] + struct.pack("<d", -np.inf) + dump[284:], ["rel_re", "-inf", "at byte 276"]),
        # finite but outside the feasible set: ent_re[1, 0] is at byte 60,
        # rel_re[0, 1] at byte 284 and rel_im[0, 0] at byte 324
        ("entity-above-1", dump[:60] + struct.pack("<d", 1.5) + dump[68:], ["ent_re", "1.5", "at byte 60", "[0, 1]"]),
        ("relation-modulus-7", dump[:284] + struct.pack("<d", 7.0) + dump[292:], ["rel_re", "7.0", "at byte 284", "modulus at most 1.0"]),
        ("relation-modulus-of-both", dump[:276] + struct.pack("<d", 0.9) + dump[284:324] + struct.pack("<d", 0.9) + dump[332:], ["rel_im", "0.9", "at byte 324", "modulus at most 1.0"]),
    ]
    return [pytest.param(blob, parts, id=label) for label, blob, parts in cases]


@pytest.mark.parametrize("blob, parts", damaged_dumps())
def test_load_rejects_damaged_dump_naming_file_and_offset(tmp_path, blob, parts):
    p = tmp_path / "damaged.bin"
    p.write_bytes(blob)
    with pytest.raises(ValueError) as err:
        load_table(p)
    message = str(err.value)
    assert str(p) in message
    for part in parts:
        assert part in message


EDGES = [-1e-300, -0.0, 0.0, 0.5, 0.7071067811865476, 0.7071067811865477, 1.0, 1.0000000000000002]


@given(
    st.lists(st.sampled_from(EDGES), min_size=4, max_size=4),
    st.lists(st.sampled_from(EDGES + [7.0]), min_size=4, max_size=4),
)
def test_load_accepts_exactly_the_tables_is_feasible_accepts(ent, rel):
    """Entity components on both sides of 0 and 1, relation pairs whose
    modulus falls on both sides of the bound 1: ``load_table`` raises just
    when ``is_feasible`` is false."""
    ent = np.array(ent).reshape(1, 4)
    rel = np.array(rel).reshape(2, 1, 2)
    table = EmbeddingTable(ent[:, :2], ent[:, 2:], rel[0], rel[1], 1.0)
    buf = io.BytesIO()
    save_table(buf, table)
    buf.seek(0)
    if is_feasible(table):
        assert np.array_equal(load_table(buf).ent, ent)
    else:
        with pytest.raises(ValueError, match="infeasible value"):
            load_table(buf)


@pytest.mark.parametrize("name, rows", [("ent", 6), ("rel", 4)])
def test_each_matrix_is_one_array_with_views_for_its_halves(name, rows):
    table = init_table(6, 4, 3, seed=4)
    matrix, re, im = (getattr(table, name + suffix) for suffix in ("", "_re", "_im"))
    assert matrix.shape == (rows, 6) and matrix.flags.c_contiguous
    assert matrix.base is table.matrix and re.base is table.matrix and im.base is table.matrix
    assert np.array_equal(matrix, np.hstack([re, im]))
    re[2] = 0.25
    setattr(table, f"{name}_im", im.__iadd__(1.0))  # ``table.x_im += 1.0``: in place, so allowed
    assert np.all(matrix[2, :3] == 0.25) and np.all(matrix[:, 3:] >= 1.0)
    with pytest.raises(AttributeError, match="view"):
        setattr(table, f"{name}_re", np.zeros((rows, 3)))
    with pytest.raises(AttributeError):
        setattr(table, name, np.zeros((rows, 6)))


def test_relation_halves_must_match_each_other_and_the_entities():
    ones = np.ones
    with pytest.raises(ValueError, match=r"rel_re \(2, 3\) and rel_im \(2, 5\)"):
        EmbeddingTable(ones((3, 4)), ones((3, 4)), ones((2, 3)), ones((2, 5)), 1.0)
    with pytest.raises(ValueError, match=r"rel \(2, 6\) and ent \(3, 8\)"):
        EmbeddingTable(ones((3, 4)), ones((3, 4)), ones((2, 3)), ones((2, 3)), 1.0)
    with pytest.raises(ValueError, match=r"6 entities do not fit matrix \(5, 8\)"):
        EmbeddingTable.from_matrix(ones((5, 8)), 6, 1.0)


def test_init_table_draws_in_the_order_of_the_separate_arrays():
    rng = np.random.default_rng(8)
    table = init_table(5, 2, 3, bound=2.0, seed=8)
    rel_scale = 2.0 / np.sqrt(2.0)
    for arr, scale in ((table.ent_re, 1.0), (table.ent_im, 1.0), (table.rel_re, rel_scale), (table.rel_im, rel_scale)):
        assert np.array_equal(arr, rng.random(arr.shape) * scale)


@pytest.mark.parametrize("dim", [1, 3, 64, BLOCK_VALUES + 1])
def test_init_table_equals_one_draw_per_half_at_block_edges(dim):
    """1, block - 1, block and block + 1 rows, for entities and relations:
    the block-wise draw gives the bits of one draw per whole half."""
    block = max(1, BLOCK_VALUES // dim)
    for rows in sorted({1, block - 1, block, block + 1} - {0}):
        got = init_table(rows, rows, dim, bound=1.7, seed=rows)
        want = oracles.init_table(rows, rows, dim, bound=1.7, seed=rows)
        assert got.ent.tobytes() == want.ent.tobytes(), rows
        assert got.rel.tobytes() == want.rel.tobytes(), rows
        assert got.bound == want.bound == 1.7


def test_init_table_allocates_little_beyond_its_table():
    init_table(1, 1, 1)  # first-use allocations of the Generator
    tracemalloc.start()
    try:
        table = init_table(20_000, 12, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.ent.nbytes - table.rel.nbytes <= 2**20, peak


def test_dump_of_many_blocks_is_each_half_in_row_order():
    block = BLOCK_VALUES // 3
    table = make_feasible_table(seed=5, num_entities=2 * block + 1, num_relations=block + 2, dim=3)
    buf = io.BytesIO()
    save_table(buf, table)
    halves = (table.ent_re, table.ent_im, table.rel_re, table.rel_im)
    assert buf.getvalue()[36:] == b"".join(half.tobytes() for half in halves)
    buf.seek(0)
    loaded = load_table(buf)
    assert loaded.ent.tobytes() == table.ent.tobytes()
    assert loaded.rel.tobytes() == table.rel.tobytes()


@pytest.mark.parametrize(
    "half, row, col",
    [("ent_re", -1, 2), ("ent_im", 0, 0), ("ent_im", "block", 1), ("rel_re", "block", 0), ("rel_im", -1, 2)],
)
def test_a_bad_value_in_any_block_names_its_byte(tmp_path, half, row, col):
    block = BLOCK_VALUES // 3
    n, m = 2 * block + 1, block + 2
    table = make_feasible_table(seed=6, num_entities=n, num_relations=m, dim=3)
    path = tmp_path / "dump.bin"
    save_table(path, table)
    starts = {"ent_re": 36, "ent_im": 36 + 24 * n, "rel_re": 36 + 48 * n, "rel_im": 36 + 48 * n + 24 * m}
    rows = n if half.startswith("ent") else m
    row = block if row == "block" else row % rows
    at = starts[half] + 24 * row + 8 * col
    blob = bytearray(path.read_bytes())
    blob[at : at + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_table(path)
    assert f"{path}: {half} holds the non-finite value nan at byte {at} (" in str(err.value)


def made_table(how):
    """A table of 5 entities and 3 relations, d = 2, made by ``how``: drawn,
    built from the drawn halves, copied, or loaded from a dump."""
    drawn = init_table(5, 3, 2, bound=1.3, seed=2)
    if how == "constructor":
        halves = [half.copy() for half in (drawn.ent_re, drawn.ent_im, drawn.rel_re, drawn.rel_im)]
        return EmbeddingTable(*halves, 1.3)
    if how == "copy":
        return drawn.copy()
    if how == "load_table":
        buf = io.BytesIO()
        save_table(buf, drawn)
        buf.seek(0)
        return load_table(buf)
    return drawn


@pytest.mark.parametrize("how", ["init_table", "constructor", "copy", "load_table"])
def test_every_table_is_one_row_space(how):
    table = made_table(how)
    assert_row_slices(table.matrix, table.ent, table.rel, 5)
    assert table.matrix.shape == (8, 4) and table.num_relations == 3
    assert table.matrix.tobytes() == made_table("init_table").matrix.tobytes()
    first, second = io.BytesIO(), io.BytesIO()
    save_table(first, table)
    first.seek(0)
    save_table(second, load_table(first))
    assert second.getvalue() == first.getvalue()


def test_constructor_copies_entity_halves_into_one_matrix():
    ent_re, ent_im = np.arange(6.0).reshape(3, 2), -np.arange(6.0).reshape(3, 2)
    table = EmbeddingTable(ent_re, ent_im, np.ones((1, 2)), np.zeros((1, 2)), 1.0)
    assert np.array_equal(table.ent, np.hstack([ent_re, ent_im]))
    ent_re[0, 0] = 99.0
    assert table.ent[0, 0] == 0.0
    with pytest.raises(ValueError):
        EmbeddingTable(ent_re, ent_im[:2], np.ones((1, 2)), np.zeros((1, 2)), 1.0)


def test_save_load_save_is_byte_identical():
    first = io.BytesIO()
    save_table(first, make_feasible_table(seed=16, num_entities=9, num_relations=4, dim=5))
    first.seek(0)
    second = io.BytesIO()
    save_table(second, load_table(first))
    assert second.getvalue() == first.getvalue()


def test_csv_export(tmp_path):
    table = make_feasible_table(seed=15, num_entities=4, num_relations=2, dim=3)
    ents = tmp_path / "entities.csv"
    rels = tmp_path / "relations.csv"
    export_table_csv(table, ents, rels)
    lines = ents.read_text().strip().split("\n")
    assert lines[0] == "re_0,re_1,re_2,im_0,im_1,im_2"
    assert len(lines) == 5
    first = [float(x) for x in lines[1].split(",")]
    assert first[:3] == pytest.approx(list(table.ent_re[0]))
    assert first[3:] == pytest.approx(list(table.ent_im[0]))


@pytest.mark.parametrize("bound", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("how", ["constructor", "from_matrix", "init_table"])
def test_every_constructor_refuses_a_bound_that_is_not_positive_and_finite(how, bound):
    halves = [np.full((n, 2), 0.5) for n in (3, 3, 2, 2)]
    make = {
        "constructor": lambda: EmbeddingTable(*halves, bound),
        "from_matrix": lambda: EmbeddingTable.from_matrix(np.full((5, 4), 0.5), 3, bound),
        "init_table": lambda: init_table(3, 2, 2, bound=bound),
    }[how]
    with pytest.raises(ValueError, match="bound must be positive and finite"):
        make()


@pytest.mark.parametrize("bad", ["-1", "count"])
@pytest.mark.parametrize("slot", ["head", "relation", "tail"])
def test_scorers_refuse_ids_outside_the_table(slot, bad):
    """A negative id would read a row from the end, and an entity id of n
    or more a relation row; each scorer names the kind of id instead."""
    table = make_feasible_table(seed=2, num_entities=3, num_relations=2, dim=4)
    what = "relation" if slot == "relation" else "entity"
    wrong = -1 if bad == "-1" else {"entity": 3, "relation": 2}[what]
    triple = [0, 1, 2]
    triple["head relation tail".split().index(slot)] = wrong
    h, r, t = triple
    calls = [lambda: score(table, triple), lambda: score_dim(table, triple, 0)]
    if slot != "tail":
        calls.append(lambda: score_all_tails(table, h, r))
    if slot != "head":
        calls.append(lambda: score_all_heads(table, r, t))
    for call in calls:
        with pytest.raises(IndexError, match=f"{what} index out of range"):
            call()
