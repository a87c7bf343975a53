"""Complex-valued embedding tables, bilinear scoring, and constraint projection.

Entities and relations are complex vectors stored as real and imaginary
float64 parts: entities as one (n, 2d) matrix of ``[re | im]`` rows,
relations as two (m, d) arrays. The feasible set is: entity components in
[0, 1], relation components non-negative with per-dimension modulus at
most ``bound``. The score of a triple (h, r, t) is
Re(sum_l e_h[l] * r[l] * conj(e_t)[l]), which under the constraints is
bounded by 2 * bound * dim in absolute value.
"""

import io
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .kernel import cmul

__all__ = [
    "EmbeddingTable",
    "init_table",
    "score",
    "score_triples",
    "score_dim",
    "query_factors",
    "score_all_tails",
    "score_all_heads",
    "project",
    "project_relation_components",
    "is_feasible",
    "save_table",
    "load_table",
    "read_array",
    "replacing",
    "write_provenance",
    "export_table_csv",
]

_MAGIC = b"HPX1"


def _entity_half(attr):
    """A property for a view of half of ``EmbeddingTable.ent``. Setting it
    to anything but that same view raises; ``table.ent_re += x`` works in
    place and sets the same view back, so it is allowed."""

    def get(self):
        return getattr(self, attr)

    def set_(self, value):
        if value is not getattr(self, attr):
            raise AttributeError(f"{attr[1:]} is a view of EmbeddingTable.ent; write into it")

    return property(get, set_)


class EmbeddingTable:
    """Entity and relation embeddings with the relation modulus ``bound``.

    Entities live in one C-contiguous (n, 2d) float64 array ``ent`` whose
    rows are ``[re | im]``, so scoring every entity is one matrix product.
    ``ent_re`` and ``ent_im`` are views of its two halves: write into them
    (``table.ent_re[rows] = ...``); rebinding them is an AttributeError.
    Relations are the (m, d) arrays ``rel_re`` and ``rel_im``. The
    constructor copies the entity halves into ``ent``.
    """

    def __init__(self, ent_re, ent_im, rel_re, rel_im, bound):
        ent_re, ent_im = np.asarray(ent_re), np.asarray(ent_im)
        if ent_re.ndim != 2 or ent_re.shape != ent_im.shape:
            raise ValueError(
                f"ent_re {ent_re.shape} and ent_im {ent_im.shape} must be matching 2-d arrays"
            )
        ent = np.empty((ent_re.shape[0], 2 * ent_re.shape[1]))
        ent[:, : ent_re.shape[1]] = ent_re
        ent[:, ent_re.shape[1] :] = ent_im
        self._set_entities(ent)
        self.rel_re = rel_re
        self.rel_im = rel_im
        self.bound = bound

    @classmethod
    def from_entities(cls, ent, rel_re, rel_im, bound):
        """A table that takes ``ent`` (C-contiguous, (n, 2d) float64) as is."""
        table = cls.__new__(cls)
        table._set_entities(ent)
        table.rel_re, table.rel_im, table.bound = rel_re, rel_im, bound
        return table

    def _set_entities(self, ent):
        if ent.dtype != np.float64 or not ent.flags.c_contiguous or ent.shape[1] % 2:
            raise ValueError("ent must be a C-contiguous float64 array with an even row length")
        d = ent.shape[1] // 2
        self._ent, self._ent_re, self._ent_im = ent, ent[:, :d], ent[:, d:]

    @property
    def ent(self):
        return self._ent

    ent_re = _entity_half("_ent_re")
    ent_im = _entity_half("_ent_im")

    @property
    def num_entities(self):
        return self._ent.shape[0]

    @property
    def num_relations(self):
        return self.rel_re.shape[0]

    @property
    def dim(self):
        return self._ent_re.shape[1]

    def copy(self):
        return EmbeddingTable.from_entities(
            self._ent.copy(), self.rel_re.copy(), self.rel_im.copy(), self.bound
        )


def init_table(num_entities, num_relations, dim, bound=1.0, seed=0):
    """Fresh table: entity components uniform on [0, 1], relation components
    uniform on [0, bound/sqrt(2)] so every row is feasible by construction."""
    if min(num_entities, num_relations, dim) < 1:
        raise ValueError("table dimensions must be at least 1")
    if not 0 < bound < math.inf:  # NaN fails too
        raise ValueError("bound must be positive and finite")
    rng = np.random.default_rng(seed)
    rel_scale = bound / np.sqrt(2.0)
    ent = np.empty((num_entities, 2 * dim))
    ent[:, :dim] = rng.random((num_entities, dim))
    ent[:, dim:] = rng.random((num_entities, dim))
    return EmbeddingTable.from_entities(
        ent,
        rng.random((num_relations, dim)) * rel_scale,
        rng.random((num_relations, dim)) * rel_scale,
        float(bound),
    )


def _head_factors(c, d, e, f):
    """Halves v_re, v_im of (c - id)(e + if), from a relation's halves c, d
    and a tail's e, f: score(h, r, t) = e_h_re . v_re + e_h_im . v_im. With
    a head's halves for c, d, score(h, r, t) = r_re . v_re + r_im . v_im.
    (The tail factors, (a + ib)(c + id) from a head and a relation, are
    ``kernel.cmul``.)"""
    return c * e + d * f, c * f - d * e


def _tail_dot(e_re, e_im, v_re, v_im):
    """Row-wise e_re . v_re + e_im . v_im: two dot products of length d."""
    return np.vecdot(e_re, v_re) + np.vecdot(e_im, v_im)


def score_triples(table, heads, relations, tails):
    """Re(<e_h, r, conj(e_t)>) for each (heads[i], relations[i], tails[i]).

    Each score is two dot products of length d, one per row: the bits of a
    score depend only on the three rows, not on the other triples."""
    v_re, v_im = cmul(
        table.ent_re[heads], table.ent_im[heads], table.rel_re[relations], table.rel_im[relations]
    )
    return _tail_dot(table.ent_re[tails], table.ent_im[tails], v_re, v_im)


def score(table, triple):
    """Re(<e_h, r, conj(e_t)>) for one triple (``score_triples`` of one row)."""
    return float(score_triples(table, [triple[0]], [triple[1]], [triple[2]])[0])


def score_dim(table, triple, l):
    """Contribution of dimension ``l`` to the score: Re(e_h[l] r[l] conj(e_t)[l])."""
    h, r, t = triple[0], triple[1], triple[2]
    if not 0 <= l < table.dim:
        raise IndexError(f"dimension {l} out of range")
    a, b = table.ent_re[h, l], table.ent_im[h, l]
    c, d = table.rel_re[r, l], table.rel_im[r, l]
    e, f = table.ent_re[t, l], table.ent_im[t, l]
    return float((a * c - b * d) * e + (a * d + b * c) * f)


def query_factors(table, triples, tail_side):
    """Factor rows and true scores of ranking queries, each row built once.

    Row q of the (Q, 2d) ``rows`` is [v_re | v_im] with ent[j] . row the
    score of ``triples[q]`` (an (Q, 3) int array) with its tail replaced by
    j where ``tail_side[q]``, and its head otherwise. ``true[q]`` is the
    score of ``triples[q]`` itself, with the bits of ``score_triples``: it
    is taken from the tail factors that every row holds first."""
    h, r, t = triples.T
    # Gathered halves are contiguous: elementwise calls on the strided halves
    # of gathered ``ent`` rows cost about twice as much. (``ent_re.take``
    # would first copy the whole strided half.)
    c, s = table.rel_re[r], table.rel_im[r]
    e, f = table.ent_re[t], table.ent_im[t]
    v_re, v_im = cmul(table.ent_re[h], table.ent_im[h], c, s)
    true = _tail_dot(e, f, v_re, v_im)
    rows = np.concatenate((v_re, v_im), axis=1)
    head = np.nonzero(~tail_side)[0]
    if head.size:
        rows[head] = np.concatenate(_head_factors(c[head], s[head], e[head], f[head]), axis=1)
    return rows, true


def score_all_tails(table, head, relation):
    """Scores of (head, relation, j) for every entity j, as one array."""
    c, s = table.rel_re[relation], table.rel_im[relation]
    return table.ent @ np.concatenate(cmul(table.ent_re[head], table.ent_im[head], c, s))


def score_all_heads(table, relation, tail):
    """Scores of (i, relation, tail) for every entity i, as one array."""
    c, s = table.rel_re[relation], table.rel_im[relation]
    return table.ent @ np.concatenate(_head_factors(c, s, table.ent_re[tail], table.ent_im[tail]))


def project_relation_components(rel_re, rel_im, bound):
    """In-place projection of relation components onto the feasible set.

    Components are clamped to [0, bound] first; component clamping alone
    leaves corner moduli as large as bound*sqrt(2), so dimensions whose
    modulus still exceeds the bound are then rescaled radially. The rescale
    repeats until the recomputed modulus is exactly <= bound, which makes the
    projection idempotent bit-for-bit.
    """
    np.clip(rel_re, 0.0, bound, out=rel_re)
    np.clip(rel_im, 0.0, bound, out=rel_im)
    for _ in range(64):
        modulus = np.hypot(rel_re, rel_im)
        mask = modulus > bound
        if not mask.any():
            return
        scale = bound / modulus[mask]
        rel_re[mask] *= scale
        rel_im[mask] *= scale
    raise RuntimeError("relation modulus projection did not converge")


def _check_rows(rows, count, what):
    """Raise IndexError unless every id of the int64 array ``rows`` is in
    [0, count); a negative id, seen as uint64, exceeds any count. Checked
    rows are then taken with mode="clip", which writes to ``out`` without
    the buffer that mode="raise" makes."""
    if rows.size and rows.view(np.uint64).max() >= count:
        raise IndexError(f"{what} index out of range for {count} {what}s")


_HALF = np.array([[0], [1]])


def _entity_halves(table, rows):
    """``table.ent`` as (2n, d) rows, with row 2i the re half of entity i and
    row 2i+1 its im half, and the indices of the halves of ``rows`` in it,
    stacked [re, im]. Taking from the strided ``ent_re``/``ent_im`` views
    instead would copy a whole half per call."""
    return table.ent.reshape(-1, table.dim), 2 * rows + _HALF


def project(table, ent_rows=slice(None), rel_rows=slice(None), alloc=np.empty):
    """Clamp entity components into [0, 1] and project relation components;
    in place. ``ent_rows`` and ``rel_rows`` (slices, or arrays of unique row
    ids) limit it to those rows; by default it covers every row. Each
    component is projected on its own, so a row gets the same bits either
    way. Entity rows given by ids are taken, both halves at once, into an
    array from ``alloc(shape)``, clipped there and put back; an entity row
    outside the table is an IndexError."""
    if isinstance(ent_rows, slice):
        ent = table.ent[ent_rows]
        ent.clip(0.0, 1.0, out=ent)
    else:
        rows = np.asarray(ent_rows, dtype=np.int64)
        _check_rows(rows, table.num_entities, "entity")
        halves, index = _entity_halves(table, rows)
        index = index.reshape(-1)
        ent = halves.take(index, axis=0, out=alloc((index.size, table.dim)), mode="clip")
        ent.clip(0.0, 1.0, out=ent)
        halves[index] = ent
    rel_re, rel_im = table.rel_re[rel_rows], table.rel_im[rel_rows]
    project_relation_components(rel_re, rel_im, table.bound)
    table.rel_re[rel_rows], table.rel_im[rel_rows] = rel_re, rel_im
    return table


def is_feasible(table):
    """Exact (not tolerance-based) feasibility of every component."""
    ents_ok = (
        (table.ent_re >= 0.0).all()
        and (table.ent_re <= 1.0).all()
        and (table.ent_im >= 0.0).all()
        and (table.ent_im <= 1.0).all()
    )
    rels_ok = (
        (table.rel_re >= 0.0).all()
        and (table.rel_im >= 0.0).all()
        and (np.hypot(table.rel_re, table.rel_im) <= table.bound).all()
    )
    return bool(ents_ok and rels_ok)


def save_table(path_or_file, table):
    """Binary dump: magic, n, m, d (int64), bound (float64), then row-major
    ent_re, ent_im, rel_re, rel_im float64 arrays."""
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    handle = open(path_or_file, "wb") if own else path_or_file
    try:
        handle.write(_MAGIC)
        handle.write(
            struct.pack(
                "<qqqd",
                table.num_entities,
                table.num_relations,
                table.dim,
                table.bound,
            )
        )
        for arr in (table.ent_re, table.ent_im, table.rel_re, table.rel_im):
            handle.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    finally:
        if own:
            handle.close()


def _read_exact(handle, size, what):
    """``size`` bytes of ``what`` from a binary ``handle``. A short file is a
    ValueError that names the file and the byte offset; it is found before
    reading, so a corrupt size never allocates."""
    offset = handle.tell()
    end = handle.seek(0, io.SEEK_END)
    handle.seek(offset)
    if end - offset < size:
        name = getattr(handle, "name", "<stream>")
        raise ValueError(
            f"{name}: truncated at byte {end}: {what} needs {size} bytes from byte {offset}"
        )
    return handle.read(size)


def read_array(handle, shape, what):
    """A float64 array of ``shape`` from a binary ``handle`` (see ``_read_exact``)."""
    buf = _read_exact(handle, 8 * math.prod(shape), what)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()


def load_table(path_or_file):
    """Read a table written by ``save_table``; trailing bytes (e.g. optimizer
    state in a checkpoint) are left unread. A bad magic, a header with a
    count below 1 or a bound that is not finite and positive, and a short
    file are ValueErrors that name the file and the byte offset, and so is
    a component that is NaN, infinite or outside the feasible set of
    ``is_feasible`` (the offset is that of the first one)."""
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    handle = open(path_or_file, "rb") if own else path_or_file
    try:
        name = getattr(handle, "name", "<stream>")
        magic = _read_exact(handle, 4, "the magic")
        if magic != _MAGIC:
            raise ValueError(f"{name}: bad magic {magic!r} at byte 0; not an embedding dump")
        n, m, d, bound = struct.unpack("<qqqd", _read_exact(handle, 32, "the header"))
        for offset, field, value in ((4, "n", n), (12, "m", m), (20, "d", d)):
            if value < 1:
                raise ValueError(f"{name}: bad header at byte {offset}: {field}={value} is below 1")
        if not (math.isfinite(bound) and bound > 0):
            raise ValueError(
                f"{name}: bad header at byte 28: bound={bound} is not finite and positive"
            )
        relations = []
        for rows, what in ((n, "ent_re"), (n, "ent_im"), (m, "rel_re"), (m, "rel_im")):
            start = handle.tell()
            buf = _read_exact(handle, 8 * rows * d, what)
            arr = np.frombuffer(buf, dtype=np.float64).reshape(rows, d)
            # the test of ``is_feasible``, which NaN and inf fail too; a
            # relation component above the bound puts its modulus above it
            if what.startswith("ent"):
                ok, rule = (arr >= 0.0) & (arr <= 1.0), "entity components lie in [0, 1]"
            else:
                modulus = arr if what == "rel_re" else np.hypot(relations[0], arr)
                ok = (arr >= 0.0) & (modulus <= bound)
                rule = f"relation components are non-negative, with modulus at most {bound}"
            bad = np.flatnonzero(~ok)
            if bad.size:
                value = arr.flat[bad[0]]
                kind = "infeasible" if np.isfinite(value) else "non-finite"
                raise ValueError(
                    f"{name}: {what} holds the {kind} value {value} "
                    f"at byte {start + 8 * int(bad[0])} ({rule})"
                )
            # The entity halves go straight into ``ent``, allocated once the
            # first half has been read, so a corrupt n allocates nothing; each
            # array's bytes are freed before the next array is read.
            if what == "ent_re":
                ent = np.empty((n, 2 * d))
                ent[:, :d] = arr
            elif what == "ent_im":
                ent[:, d:] = arr
            else:
                relations.append(arr.copy())
            del buf, arr, ok
        return EmbeddingTable.from_entities(ent, *relations, bound)
    finally:
        if own:
            handle.close()


@contextmanager
def replacing(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` for writing. When the block
    ends normally the file replaces ``path`` in one ``os.replace``; when it
    raises, the temporary file is removed and ``path`` keeps its content."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise



def write_provenance(handle, extra):
    """The ``extra`` rows (e.g. the resolved config) as ``# key = value``
    comment lines, in key order; ``extra`` may be None."""
    for key in sorted(extra or ()):
        handle.write(f"# {key} = {extra[key]}\n")

def export_table_csv(table, entities_path, relations_path):
    """CSV export for diagnostics: one row per entity/relation with columns
    re_0..re_{d-1}, im_0..im_{d-1}. Each file is written to a temporary file
    that then replaces it."""
    d = table.dim
    header = ",".join([f"re_{l}" for l in range(d)] + [f"im_{l}" for l in range(d)])

    def write(path, re_arr, im_arr):
        with replacing(path, encoding="utf-8") as handle:
            handle.write(header + "\n")
            for row_re, row_im in zip(re_arr, im_arr):
                values = np.concatenate([row_re, row_im])
                handle.write(",".join(f"{v:.17g}" for v in values) + "\n")

    write(entities_path, table.ent_re, table.ent_im)
    write(relations_path, table.rel_re, table.rel_im)
