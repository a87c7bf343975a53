"""Complex-valued embedding tables, bilinear scoring, and constraint projection.

Entities and relations are complex vectors stored as real and imaginary
float64 parts, all in one (n+m, 2d) matrix of ``[re | im]`` rows: entity i
is row i and relation r is row n + r. The feasible set is: entity
components in [0, 1], relation components non-negative with per-dimension
modulus at most ``bound``. The score of a triple (h, r, t) is
Re(sum_l e_h[l] * r[l] * conj(e_t)[l]), which under the constraints is
bounded by 2 * bound * dim in absolute value. Every scorer but
``score_triples`` raises IndexError for an id outside the table.
"""

import io
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .kernel import _check_ids, _check_rows, _halves, cmul

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

BLOCK_VALUES = 1 << 14  # float64 values per block of ``_row_blocks``


def _matrix_half(name, half):
    """A property for the view of half ``half`` (0 for re, 1 for im) of the
    rows ``name`` that ``EmbeddingTable._bind`` set. Setting it to anything
    but that same view raises; ``x.ent_re += y`` works in place and sets
    the same view back, so it is allowed."""
    attr, which = f"_{name}_halves", ("re", "im")[half]

    def get(self):
        return getattr(self, attr)[half]

    def set_(self, value):
        if value is not get(self):
            raise AttributeError(
                f"the {which} half of {type(self).__name__}.{name} is a view; write into it"
            )

    return property(get, set_)


def _row_blocks(rows, dim):
    """Slices that cut ``rows`` rows of ``dim`` values, in order, into
    blocks of at most ``BLOCK_VALUES`` values (one row, if a row holds
    more): a half is filled, written and read a block at a time, so no
    whole half is ever copied."""
    step = max(1, BLOCK_VALUES // dim)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


class EmbeddingTable:
    """Entity and relation embeddings with the relation modulus ``bound``.

    Every embedding is a row of one C-contiguous (n+m, 2d) float64 array
    ``matrix`` of ``[re | im]`` rows, the row space of a step: entity i is
    row i and relation r is row n + r. ``ent`` (rows 0 to n) and ``rel``
    (rows n to n+m) are C-contiguous row-slice views of it, so scoring every
    entity is one matrix product, and a step gathers and puts the rows it
    touches, of either kind, at once. ``ent_re``, ``ent_im``, ``rel_re`` and
    ``rel_im`` are views of their halves: write into them (``table.ent_re[rows]
    = ...``); rebinding them is an AttributeError. The constructor copies
    the halves into a new matrix; ``from_matrix`` takes a matrix as it is.
    Either way a ``bound`` that is not positive and finite is a ValueError.
    """

    def __init__(self, ent_re, ent_im, rel_re, rel_im, bound):
        halves = [np.asarray(half) for half in (ent_re, ent_im, rel_re, rel_im)]
        for name, re, im in (("ent", *halves[:2]), ("rel", *halves[2:])):
            if re.ndim != 2 or re.shape != im.shape:
                raise ValueError(
                    f"{name}_re {re.shape} and {name}_im {im.shape} must be matching 2-d arrays"
                )
        (n, d), (m, d_rel) = halves[0].shape, halves[2].shape
        if d_rel != d:
            raise ValueError(
                f"rel {(m, 2 * d_rel)} and ent {(n, 2 * d)} must have rows of one length 2d"
            )
        self._bind(np.empty((n + m, 2 * d)), n, bound)
        for view, half in zip((self.ent_re, self.ent_im, self.rel_re, self.rel_im), halves):
            view[...] = half

    @classmethod
    def from_matrix(cls, matrix, num_entities, bound):
        """A table that takes ``matrix``, a C-contiguous float64 (n+m, 2d)
        array with its ``num_entities`` entity rows first, as it is."""
        table = cls.__new__(cls)
        table._bind(matrix, num_entities, bound)
        return table

    def _bind(self, matrix, num_entities, bound):
        """Take ``matrix``, entity rows first, as the row space, with its
        ``ent`` and ``rel`` row slices and the views of their halves."""
        if not 0 < bound < math.inf:  # NaN fails too
            raise ValueError("bound must be positive and finite")
        contiguous = matrix.flags.c_contiguous
        if matrix.dtype != np.float64 or matrix.ndim != 2 or matrix.shape[1] % 2 or not contiguous:
            raise ValueError(
                f"matrix {matrix.shape} must be a C-contiguous float64 (rows, 2d) array"
            )
        if not 0 <= num_entities <= matrix.shape[0]:
            raise ValueError(f"{num_entities} entities do not fit matrix {matrix.shape}")
        d = matrix.shape[1] // 2
        self._matrix, self._num_entities, self.bound = matrix, num_entities, bound
        for part, rows in (("ent", matrix[:num_entities]), ("rel", matrix[num_entities:])):
            setattr(self, "_" + part, rows)
            setattr(self, f"_{part}_halves", (rows[:, :d], rows[:, d:]))

    matrix = property(lambda self: self._matrix)
    ent = property(lambda self: self._ent)
    rel = property(lambda self: self._rel)
    ent_re = _matrix_half("ent", 0)
    ent_im = _matrix_half("ent", 1)
    rel_re = _matrix_half("rel", 0)
    rel_im = _matrix_half("rel", 1)

    @property
    def num_entities(self):
        return self._num_entities

    @property
    def num_relations(self):
        return self._matrix.shape[0] - self._num_entities

    @property
    def dim(self):
        return self._matrix.shape[1] // 2

    def copy(self):
        return EmbeddingTable.from_matrix(self._matrix.copy(), self._num_entities, self.bound)


def init_table(num_entities, num_relations, dim, bound=1.0, seed=0):
    """Fresh table: entity components uniform on [0, 1], relation components
    uniform on [0, bound/sqrt(2)] so every row is feasible by construction.
    The halves are drawn in the order ent_re, ent_im, rel_re, rel_im, a
    block at a time (see ``_row_blocks``) straight into the one matrix: a
    ``Generator`` yields the same doubles however its draws are split."""
    if min(num_entities, num_relations, dim) < 1:
        raise ValueError("table dimensions must be at least 1")
    rng = np.random.default_rng(seed)
    matrix = np.empty((num_entities + num_relations, 2 * dim))
    table = EmbeddingTable.from_matrix(matrix, num_entities, float(bound))
    for rows, scale in ((table.ent, 1.0), (table.rel, bound / np.sqrt(2.0))):
        for half in (rows[:, :dim], rows[:, dim:]):
            for block in _row_blocks(len(half), dim):
                view = half[block]
                np.multiply(rng.random(view.shape), scale, out=view)  # x * 1.0 is x
    return table


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
    score depend only on the three rows, not on the other triples. The ids
    are not checked (a negative one reads a row from the end): the one caller
    here, ``evaluation._score_band``, passes ids that ``rank_queries`` checked."""
    v_re, v_im = cmul(
        table.ent_re[heads], table.ent_im[heads], table.rel_re[relations], table.rel_im[relations]
    )
    return _tail_dot(table.ent_re[tails], table.ent_im[tails], v_re, v_im)


def score(table, triple):
    """Re(<e_h, r, conj(e_t)>) for one triple (``score_triples`` of one row)."""
    _check_ids(table, (triple[0], triple[2]), (triple[1],))
    return float(score_triples(table, [triple[0]], [triple[1]], [triple[2]])[0])


def score_dim(table, triple, l):
    """Contribution of dimension ``l`` to the score: Re(e_h[l] r[l] conj(e_t)[l])."""
    h, r, t = triple[0], triple[1], triple[2]
    _check_ids(table, (h, t), (r,))
    _check_rows(l, table.dim, "dimension")
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
    _check_ids(table, (head,), (relation,))
    c, s = table.rel_re[relation], table.rel_im[relation]
    return table.ent @ np.concatenate(cmul(table.ent_re[head], table.ent_im[head], c, s))


def score_all_heads(table, relation, tail):
    """Scores of (i, relation, tail) for every entity i, as one array."""
    _check_ids(table, (tail,), (relation,))
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


def project(table, rows=None, alloc=np.empty):
    """Clamp entity components into [0, 1] and project relation components;
    in place. ``rows``, ascending unique ids of the table's row space
    (entity i is row i, relation r is row n + r), limits it to those rows,
    which are checked (an IndexError, raised before any write), taken, both
    halves at once, into one array from ``alloc(shape)``, projected there
    and put back in one. By default every row is projected where it lies,
    since taking every row would copy the whole matrix. Each component is
    projected on its own, so a row gets the same bits either way."""
    if rows is None:
        ent, re, im = table.ent, table.rel_re, table.rel_im
    else:
        rows = _check_rows(rows, len(table.matrix), "row")
        halves, index = _halves(table.matrix, rows)
        values = halves.take(index, axis=0, out=alloc(index.shape + (table.dim,)), mode="clip")
        split = int(np.searchsorted(rows, table.num_entities))
        ent, (re, im) = values[:, :split], values[:, split:]
    ent.clip(0.0, 1.0, out=ent)
    project_relation_components(re, im, table.bound)
    if rows is not None:
        halves[index] = values
    return table


def is_feasible(table):
    """Exact (not tolerance-based) feasibility of every component."""
    return bool(
        (table.ent >= 0.0).all()
        and (table.ent <= 1.0).all()
        and (table.rel >= 0.0).all()
        and (np.hypot(table.rel_re, table.rel_im) <= table.bound).all()
    )


def save_table(path_or_file, table):
    """Binary dump: magic, n, m, d (int64), bound (float64), then row-major
    ent_re, ent_im, rel_re, rel_im float64 arrays. A path is written through
    ``replacing``."""
    if isinstance(path_or_file, (str, bytes, os.PathLike)):
        with replacing(path_or_file, "wb") as handle:
            return save_table(handle, table)
    handle = path_or_file
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
    _write_rows(handle, table.matrix, table.num_entities)


def _write_rows(handle, matrix, num_entities):
    """Write ``matrix``, (n+m, 2d) ``[re | im]`` rows split after its
    ``num_entities`` entity rows, to a binary ``handle`` as four row-major
    float64 halves, ent re and im then rel re and im, one block (see
    ``_row_blocks``) at a time."""
    d = matrix.shape[1] // 2
    for rows in (matrix[:num_entities], matrix[num_entities:]):
        for half in (rows[:, :d], rows[:, d:]):
            for block in _row_blocks(len(half), d):
                handle.write(np.ascontiguousarray(half[block], dtype=np.float64))


def _require(handle, size, what):
    """The bytes left in a binary ``handle`` from its position, which must
    hold ``size`` bytes of ``what``: a short file is a ValueError that names
    the file and the byte offset. Nothing is read, so a corrupt size never
    allocates."""
    offset = handle.tell()
    end = handle.seek(0, io.SEEK_END)
    handle.seek(offset)
    if end - offset < size:
        name = getattr(handle, "name", "<stream>")
        raise ValueError(
            f"{name}: truncated at byte {end}: {what} needs {size} bytes from byte {offset}"
        )
    return end - offset


def _read_exact(handle, size, what):
    """``size`` bytes of ``what`` from a binary ``handle`` (see ``_require``)."""
    _require(handle, size, what)
    return handle.read(size)


def read_array(handle, shape, what):
    """A float64 array of ``shape`` from a binary ``handle`` (see ``_read_exact``)."""
    buf = _read_exact(handle, 8 * math.prod(shape), what)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()


def _read_rows(handle, dim, parts):
    """A (rows, 2 * dim) matrix of ``[re | im]`` rows, read from a binary
    ``handle`` a row slice at a time: ``parts`` lists (rows, names, valid,
    kind, rule) per slice, in row order, each stored as two row-major
    (rows, dim) float64 halves named ``names`` and read one block (see
    ``_row_blocks``) at a time. A half the file does not hold whole raises
    before it is read (``_require``). ``valid(values, re)`` is true where a
    block's value may stand; ``re`` is the same rows of the re half in the
    im half, else None. The first value that may not is a ValueError naming
    the file, the half and the byte offset, calling the value ``kind`` (or
    non-finite) and ending with ``rule``. The matrix is allocated only if
    the file holds every half, so a corrupt count allocates nothing; until
    a short half raises, ``re`` is then None, so only the last slice's
    ``valid`` may need it."""
    name = getattr(handle, "name", "<stream>")
    total = sum(part[0] for part in parts)
    held = _require(handle, 0, "the rows") >= 16 * total * dim  # bytes left from here
    matrix = np.empty((total, 2 * dim)) if held else None
    at = 0
    for rows, names, valid, kind, rule in parts:
        out = None if matrix is None else matrix[at : at + rows]
        at += rows
        for half, what in enumerate(names):
            _require(handle, 8 * rows * dim, what)
            for block in _row_blocks(rows, dim):
                offset = handle.tell()
                count = 8 * (block.stop - block.start) * dim
                values = np.frombuffer(handle.read(count), dtype=np.float64).reshape(-1, dim)
                re = out[block, :dim] if half and out is not None else None
                bad = np.flatnonzero(~valid(values, re))
                if bad.size:
                    value = values.flat[bad[0]]
                    raise ValueError(
                        f"{name}: {what} holds the {kind if np.isfinite(value) else 'non-finite'} "
                        f"value {value} at byte {offset + 8 * int(bad[0])} ({rule})"
                    )
                if out is not None:
                    out[block, half * dim : (half + 1) * dim] = values
    return matrix


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
        # the test of ``is_feasible``, which NaN and inf fail too; a relation
        # component above the bound puts its modulus above it
        def entity_ok(values, re):
            return (values >= 0.0) & (values <= 1.0)

        def relation_ok(values, re):
            modulus = values if re is None else np.hypot(re, values)
            return (values >= 0.0) & (modulus <= bound)

        matrix = _read_rows(handle, d, [
            (n, ("ent_re", "ent_im"), entity_ok, "infeasible", "entity components lie in [0, 1]"),
            (m, ("rel_re", "rel_im"), relation_ok, "infeasible",
             f"relation components are non-negative, with modulus at most {bound}"),
        ])
        return EmbeddingTable.from_matrix(matrix, n, bound)
    finally:
        if own:
            handle.close()


@contextmanager
def replacing(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` for writing. When the block
    ends normally the file replaces ``path`` in one ``os.replace``; when it
    raises, the temporary file is removed and ``path`` keeps its content."""
    tmp = f"{os.fsdecode(path)}.{os.getpid()}.tmp"
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
