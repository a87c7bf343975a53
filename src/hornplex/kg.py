"""Knowledge-graph loading and the sorted fact codes that index the graph.

Triples are stored with dense integer ids, each split as one (N, 3) int64
array of (head, relation, tail) rows. Dictionaries map surface strings to
ids in first-seen order (train, then valid, then test), so indices are
reproducible for fixed input files. Duplicate triples are kept in the split
arrays (they weight the loss) but stored once in the sorted fact codes.
"""

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .kernel import _check_ids
from .model import replacing

__all__ = [
    "Triple",
    "KnowledgeGraph",
    "TripleFileError",
    "load_triples",
    "build_graph",
    "load_graph",
    "write_triples",
    "write_dictionary",
    "read_dictionary",
    "check_dictionary",
    "read_lines",
    "run_positions",
]


READ_CHARS = 1 << 16  # characters per block of ``read_lines``
CODE_BLOCK = 1 << 12  # fact codes per block of ``build_graph``'s head codes


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class TripleFileError(ValueError):
    """Malformed triple file or unresolvable symbol; message carries the line number."""


def read_lines(path, error):
    """The lines of the UTF-8 text file ``path``, as ``open`` reads them but
    without their "\n" (a "\r\n" or "\r" line end reads as "\n"). A byte
    that is not UTF-8 raises ``error`` (an exception class) naming the file,
    the line and the byte offset.

    The file is read ``READ_CHARS`` characters at a time and each block is
    split at once, so the loop over the lines runs in C."""
    return itertools.chain.from_iterable(_line_blocks(path, error))


def _line_blocks(path, error):
    """The lines of ``path``, one list per block; a block's unfinished last
    line is carried to the next."""
    try:
        with open(path, encoding="utf-8") as handle:
            carry = ""
            while block := handle.read(READ_CHARS):
                lines = (carry + block).split("\n")
                carry = lines.pop()
                yield lines
            if carry:
                yield (carry,)
    except UnicodeDecodeError as err:
        raise error(_not_utf8(path, err)) from None


def _not_utf8(path, err):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        head = data[: whole.start]
        # lines end at "\n", "\r\n" or "\r", as ``open`` splits them
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        byte = data[whole.start]
        return f"{path}:{lineno}: byte 0x{byte:02x} at offset {whole.start} is not UTF-8"
    return f"{path}: {err}"  # the file changed since it was read


def load_triples(path, dicts=None, frozen=False):
    """Read a TSV triple file (``head<TAB>relation<TAB>tail``, UTF-8, no header).

    ``dicts`` is an optional ``(entity_ids, relation_ids)`` pair of str->int
    maps. Unknown symbols extend the maps in first-seen order unless
    ``frozen`` is set, in which case they raise. Line order is preserved and
    duplicate lines yield duplicate rows.

    Returns ``(triples, (entity_ids, relation_ids))``, ``triples`` an (N, 3)
    int64 array.
    """
    if dicts is None:
        entity_ids: dict = {}
        relation_ids: dict = {}
    else:
        entity_ids, relation_ids = dicts

    entity_id, relation_id = entity_ids.setdefault, relation_ids.setdefault
    ids = []
    for lineno, line in enumerate(read_lines(path, TripleFileError), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise TripleFileError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        h, r, t = fields
        if frozen and not (h in entity_ids and r in relation_ids and t in entity_ids):
            what, name = (
                ("entity", h) if h not in entity_ids
                else ("relation", r) if r not in relation_ids
                else ("entity", t)
            )
            raise TripleFileError(
                f"{path}:{lineno}: unknown {what} {name!r} with frozen dictionaries"
            )
        # one tuple: h is resolved before r, and r before t
        ids.extend((
            entity_id(h, len(entity_ids)),
            relation_id(r, len(relation_ids)),
            entity_id(t, len(entity_ids)),
        ))
    return np.array(ids, dtype=np.int64).reshape(-1, 3), (entity_ids, relation_ids)


@dataclass
class KnowledgeGraph:
    """Immutable-by-convention container for the three splits and their facts.

    ``tail_codes`` and ``head_codes``, the only fact index, hold every
    distinct fact once, as sorted int64 codes (h*m + r)*n + t and
    (r*n + t)*n + h: the tails known for (h, r), or the heads known for
    (r, t), are one contiguous run of codes, found by ``np.searchsorted``.
    A lookup raises IndexError for an id outside the graph, whose code would alias another fact's.
    ``contains``, ``tails_of`` and ``pairs_of`` have unchecked ``_`` twins
    for callers whose ids are checked or come from the graph
    (``rules.ground_confidence``).
    """

    entity_ids: dict
    relation_ids: dict
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    tail_codes: np.ndarray = field(repr=False)
    head_codes: np.ndarray = field(repr=False)

    @property
    def num_entities(self):
        return len(self.entity_ids)

    @property
    def num_relations(self):
        return len(self.relation_ids)

    @property
    def entity_names(self):
        names = [None] * len(self.entity_ids)
        for name, idx in self.entity_ids.items():
            names[idx] = name
        return names

    @property
    def relation_names(self):
        names = [None] * len(self.relation_ids)
        for name, idx in self.relation_ids.items():
            names[idx] = name
        return names

    def contains(self, heads, relations, tails):
        """Whether each (heads[i], relations[i], tails[i]) is a known fact,
        as a bool array; the arguments are int arrays that broadcast together."""
        _check_ids(self, (heads, tails), (relations,))
        return self._contains(heads, relations, tails)

    def _contains(self, heads, relations, tails):
        """``contains`` with no id check."""
        codes = self.tail_codes
        wanted = (heads * self.num_relations + relations) * self.num_entities + tails
        if codes.size == 0:
            return np.zeros(wanted.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(codes, wanted), codes.size - 1)
        return codes[pos] == wanted

    def tails_of(self, heads, relations):
        """Arrays (i, t) of every known fact (heads[i], relations[i], t),
        ordered by i, then t; ``relations`` may be a scalar."""
        _check_ids(self, (heads,), (relations,))
        return self._tails_of(heads, relations)

    def _tails_of(self, heads, relations):
        """``tails_of`` with no id check."""
        n = self.num_entities
        return _runs(self.tail_codes, (heads * self.num_relations + relations) * n, n)

    def heads_of(self, relations, tails):
        """Arrays (i, h) of every known fact (h, relations[i], tails[i]),
        ordered by i, then h; ``relations`` may be a scalar."""
        _check_ids(self, (tails,), (relations,))
        n = self.num_entities
        return _runs(self.head_codes, (relations * n + tails) * n, n)

    def pairs_of(self, relation):
        """Arrays (heads, tails) of every known fact (heads[i], relation,
        tails[i]), ordered by head, then tail: the relation's run of
        ``head_codes``, re-keyed by head."""
        _check_ids(self, (), (relation,))
        return self._pairs_of(relation)

    def _pairs_of(self, relation):
        """``pairs_of`` with no id check."""
        n = self.num_entities
        lo, hi = np.searchsorted(self.head_codes, [relation * n * n, (relation + 1) * n * n])
        run = self.head_codes[lo:hi]  # codes (relation*n + t)*n + h, ordered by t, then h
        return np.divmod(np.sort(run % n * n + run // n % n), n)


def run_positions(start, stop):
    """Arrays (i, p) of every position p in [start[i], stop[i]), ordered by
    i, then p: the runs expanded at once."""
    length = stop - start
    i = np.repeat(np.arange(length.size), length)
    # output k of run i is start[i] + k - (cumsum(length)[i] - length[i])
    return i, np.arange(i.size) + np.repeat(stop - np.cumsum(length), length)


def _runs(codes, base, n):
    """(i, codes[j] % n) for every code j in [base[i], base[i] + n)."""
    i, pos = run_positions(np.searchsorted(codes, base), np.searchsorted(codes, base + n))
    return i, codes[pos] % n


def build_graph(train, valid, test, dicts):
    """Assemble a KnowledgeGraph from (N, 3) int split arrays sharing ``dicts``.

    Raises IndexError if any triple index falls outside the dictionaries, and
    ValueError if n*n*m reaches 2**63, where the int64 fact codes overflow.
    """
    entity_ids, relation_ids = dicts
    n, m = len(entity_ids), len(relation_ids)
    if n * n * m >= 2**63:
        raise ValueError(
            f"{n} entities and {m} relations overflow the int64 fact codes (n*n*m >= 2**63)"
        )
    splits = [np.asarray(split, dtype=np.int64).reshape(-1, 3) for split in (train, valid, test)]
    # every split's codes, written in place into one array
    codes = np.empty(sum(len(split) for split in splits), dtype=np.int64)
    start = 0
    for split in splits:
        h, r, t = split.T
        columns = ((h, n), (r, m), (t, n))
        # as uint64, a negative id exceeds any count
        if len(split) and any(ids.view(np.uint64).max() >= count for ids, count in columns):
            bad = (split < 0) | (split >= (n, m, n))
            first = int(np.argmax(bad.any(axis=1)))  # the first bad triple
            what = "entity" if bad[first, ::2].any() else "relation"
            raise IndexError(f"{what} index out of bounds in {Triple(*split[first].tolist())}")
        out = codes[start : start + len(split)]
        np.multiply(h, m, out=out)
        out += r
        out *= n
        out += t
        start += len(split)

    # sort, then keep each code once (np.unique hashes, which took 20x as long)
    codes.sort()
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    tail_codes = codes[keep]
    del codes, keep, out  # ``out`` is a view of ``codes``
    # a tail code is h*(m*n) + (r*n + t), and its head code (r*n + t)*n + h,
    # made a block at a time: the step holds the two code arrays and one
    # block's quotients and remainders, not a whole array of each
    head_codes = np.empty_like(tail_codes)
    for lo in range(0, tail_codes.size, CODE_BLOCK):
        h, rt = np.divmod(tail_codes[lo : lo + CODE_BLOCK], m * n)
        block = head_codes[lo : lo + CODE_BLOCK]
        np.multiply(rt, n, out=block)
        block += h
    head_codes.sort()
    return KnowledgeGraph(
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        train=splits[0],
        valid=splits[1],
        test=splits[2],
        tail_codes=tail_codes,
        head_codes=head_codes,
    )


def load_graph(train_path, valid_path=None, test_path=None):
    """Load up to three split files into a KnowledgeGraph (shared dictionaries)."""
    train, dicts = load_triples(train_path)
    valid = test = ()
    if valid_path is not None:
        valid, dicts = load_triples(valid_path, dicts)
    if test_path is not None:
        test, dicts = load_triples(test_path, dicts)
    return build_graph(train, valid, test, dicts)


def write_triples(path, triples, entity_names, relation_names):
    """Write the (N, 3) id rows ``triples`` back to the TSV format accepted by
    ``load_triples``, to a temporary file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        for h, r, t in np.asarray(triples, dtype=np.int64).reshape(-1, 3).tolist():
            handle.write(f"{entity_names[h]}\t{relation_names[r]}\t{entity_names[t]}\n")


def write_dictionary(path, names: Iterable[str]):
    """Dump a dictionary as ``<index><TAB><surface-string>`` lines, written to
    a temporary file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        for idx, name in enumerate(names):
            handle.write(f"{idx}\t{name}\n")


def read_dictionary(path):
    """Read a dictionary dump back into a str->int map."""
    table = {}
    for lineno, line in enumerate(read_lines(path, TripleFileError), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise TripleFileError(f"{path}:{lineno}: expected 2 fields")
        try:
            table[fields[1]] = int(fields[0])
        except ValueError:
            raise TripleFileError(f"{path}:{lineno}: id {fields[0]!r} is not an integer") from None
    return table


def check_dictionary(path, names):
    """Require the dictionary dump at ``path`` to list ``names`` with ids 0,
    1, ... in order. The first difference is a TripleFileError that names the
    file, the line and both names."""
    count = lineno = 0
    for lineno, line in enumerate(read_lines(path, TripleFileError), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise TripleFileError(f"{path}:{lineno}: expected 2 fields")
        expected = names[count] if count < len(names) else None
        if fields != [str(count), expected]:
            raise TripleFileError(
                f"{path}:{lineno}: the dictionary maps id {fields[0]} to {fields[1]!r}, "
                f"the graph maps id {count} to {expected!r}"
            )
        count += 1
    if count != len(names):
        raise TripleFileError(
            f"{path}:{lineno + 1}: the dictionary ends, "
            f"the graph maps id {count} to {names[count]!r}"
        )
