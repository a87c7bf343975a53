"""Complex-valued embedding tables, bilinear scoring, and constraint projection.

Entities and relations are complex vectors stored as separate real/imaginary
float64 arrays. The feasible set is: entity components in [0, 1], relation
components non-negative with per-dimension modulus at most ``bound``. The
score of a triple (h, r, t) is Re(sum_l e_h[l] * r[l] * conj(e_t)[l]), which
under the constraints is bounded by 2 * bound * dim in absolute value.
"""

import io
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmbeddingTable",
    "init_table",
    "score",
    "score_dim",
    "score_all_tails",
    "score_all_heads",
    "project",
    "project_relation_components",
    "is_feasible",
    "save_table",
    "load_table",
    "read_array",
    "replacing",
    "export_table_csv",
]

_MAGIC = b"HPX1"


@dataclass
class EmbeddingTable:
    ent_re: np.ndarray
    ent_im: np.ndarray
    rel_re: np.ndarray
    rel_im: np.ndarray
    bound: float

    @property
    def num_entities(self):
        return self.ent_re.shape[0]

    @property
    def num_relations(self):
        return self.rel_re.shape[0]

    @property
    def dim(self):
        return self.ent_re.shape[1]

    def copy(self):
        return EmbeddingTable(
            self.ent_re.copy(),
            self.ent_im.copy(),
            self.rel_re.copy(),
            self.rel_im.copy(),
            self.bound,
        )


def init_table(num_entities, num_relations, dim, bound=1.0, seed=0):
    """Fresh table: entity components uniform on [0, 1], relation components
    uniform on [0, bound/sqrt(2)] so every row is feasible by construction."""
    if min(num_entities, num_relations, dim) < 1:
        raise ValueError("table dimensions must be at least 1")
    if bound <= 0:
        raise ValueError("bound must be positive")
    rng = np.random.default_rng(seed)
    rel_scale = bound / np.sqrt(2.0)
    return EmbeddingTable(
        ent_re=rng.random((num_entities, dim)),
        ent_im=rng.random((num_entities, dim)),
        rel_re=rng.random((num_relations, dim)) * rel_scale,
        rel_im=rng.random((num_relations, dim)) * rel_scale,
        bound=float(bound),
    )


def _tail_factors(table, head, relation):
    """Vectors v_re, v_im such that score(h, r, t) = e_t_re . v_re + e_t_im . v_im."""
    a, b = table.ent_re[head], table.ent_im[head]
    c, d = table.rel_re[relation], table.rel_im[relation]
    return a * c - b * d, a * d + b * c


def _head_factors(table, relation, tail):
    """Vectors v_re, v_im such that score(h, r, t) = e_h_re . v_re + e_h_im . v_im."""
    c, d = table.rel_re[relation], table.rel_im[relation]
    e, f = table.ent_re[tail], table.ent_im[tail]
    return c * e + d * f, c * f - d * e


def score(table, triple):
    """Re(<e_h, r, conj(e_t)>) for one triple."""
    v_re, v_im = _tail_factors(table, triple[0], triple[1])
    t = triple[2]
    return float(np.dot(table.ent_re[t], v_re) + np.dot(table.ent_im[t], v_im))


def score_dim(table, triple, l):
    """Contribution of dimension ``l`` to the score: Re(e_h[l] r[l] conj(e_t)[l])."""
    h, r, t = triple[0], triple[1], triple[2]
    if not 0 <= l < table.dim:
        raise IndexError(f"dimension {l} out of range")
    a, b = table.ent_re[h, l], table.ent_im[h, l]
    c, d = table.rel_re[r, l], table.rel_im[r, l]
    e, f = table.ent_re[t, l], table.ent_im[t, l]
    return float((a * c - b * d) * e + (a * d + b * c) * f)


def score_all_tails(table, head, relation):
    """Scores of (head, relation, j) for every entity j, as one array."""
    v_re, v_im = _tail_factors(table, head, relation)
    return table.ent_re @ v_re + table.ent_im @ v_im


def score_all_heads(table, relation, tail):
    """Scores of (i, relation, tail) for every entity i, as one array."""
    v_re, v_im = _head_factors(table, relation, tail)
    return table.ent_re @ v_re + table.ent_im @ v_im


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


def project(table, ent_rows=slice(None), rel_rows=slice(None)):
    """Clamp entity components into [0, 1] and project relation components;
    in place. ``ent_rows`` and ``rel_rows`` (unique row ids) limit it to
    those rows; by default it covers every row. Each component is projected
    on its own, so a row gets the same bits either way."""
    for arr in (table.ent_re, table.ent_im):
        arr[ent_rows] = np.clip(arr[ent_rows], 0.0, 1.0)
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
    file are ValueErrors that name the file and the byte offset."""
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
        ent_re, ent_im, rel_re, rel_im = (
            read_array(handle, (rows, d), what)
            for rows, what in ((n, "ent_re"), (n, "ent_im"), (m, "rel_re"), (m, "rel_im"))
        )
        return EmbeddingTable(ent_re, ent_im, rel_re, rel_im, bound)
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


def export_table_csv(table, entities_path, relations_path):
    """CSV export for diagnostics: one row per entity/relation with columns
    re_0..re_{d-1}, im_0..im_{d-1}."""
    d = table.dim
    header = ",".join([f"re_{l}" for l in range(d)] + [f"im_{l}" for l in range(d)])

    def write(path, re_arr, im_arr):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header + "\n")
            for row_re, row_im in zip(re_arr, im_arr):
                values = np.concatenate([row_re, row_im])
                handle.write(",".join(f"{v:.17g}" for v in values) + "\n")

    write(entities_path, table.ent_re, table.ent_im)
    write(relations_path, table.rel_re, table.rel_im)
