"""Dataset ingestion and generation for the classification experiments.

Supports the line-oriented LIBSVM sparse text format
(``<label> <index>:<value> ...`` with 1-based ascending indices, ``#``
comments, LF or CRLF endings) and synthetic Gaussian class mixtures for
desk-scale runs. A dataset is one read-only dense (points, feature_dim)
matrix per class, so parsing a file takes points x largest index x 8 bytes,
plus 16 bytes per written entry until the matrices are filled; a class whose
matrix cannot be allocated is a DataError.
"""

from __future__ import annotations

import io
import math
from array import array
from collections import defaultdict

import numpy as np

__all__ = [
    "ParseError",
    "DataError",
    "ClassGroupedDataset",
    "parse_libsvm",
    "to_libsvm",
    "synth_gaussian_classes",
]


class DataError(ValueError):
    """Invalid dataset: empty input or class, wrong width, non-finite entry, or too big."""


class ParseError(ValueError):
    """Malformed LIBSVM text; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def _row_norms(mat: np.ndarray) -> list:
    # A Python sum over each row in index order: the zero entries add an exact
    # 0.0, so this rounds as a sum over the nonzero entries alone.
    return [math.sqrt(sum(v * v for v in row)) for row in mat.tolist()]


class ClassGroupedDataset:
    """Feature vectors grouped by integer class label.

    `classes` maps each label to a (points, feature_dim) float64 matrix, one
    point per row, held as a read-only view of the array passed in (so the
    caller must not write to that array either). Labels keep their
    first-appearance order; positional class ids 1..m used by the solvers
    follow that order. Every class is nonempty and every entry finite.
    """

    def __init__(self, classes: dict, feature_dim: int):
        if not classes:
            raise DataError("dataset has no classes")
        self.feature_dim = int(feature_dim)
        self.classes = {}
        for label, points in classes.items():
            mat = np.asarray(points, dtype=np.float64).view()
            if mat.shape[:1] == (0,):
                raise DataError(f"class {label} is empty")
            if mat.ndim != 2 or mat.shape[1] != self.feature_dim:
                raise DataError(f"class {label} has shape {mat.shape}, not (points, {self.feature_dim})")
            if not np.isfinite(mat).all():
                raise DataError(f"class {label} has non-finite entries")
            mat.flags.writeable = False
            self.classes[int(label)] = mat

    @property
    def labels(self) -> list:
        return list(self.classes.keys())

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def num_points(self, label=None) -> int:
        if label is not None:
            return len(self.classes[label])
        return sum(len(mat) for mat in self.classes.values())

    def normalize(self) -> "ClassGroupedDataset":
        """Unit l2-norm copy (zero vectors are left as zero)."""
        out = {}
        for label, mat in self.classes.items():
            scale = [1.0 / nrm if nrm > 0.0 else 1.0 for nrm in _row_norms(mat)]
            out[label] = mat * np.array(scale)[:, None]
        return ClassGroupedDataset(out, self.feature_dim)

    def subsample(self, max_per_class: int, rng: np.random.Generator) -> "ClassGroupedDataset":
        """At most max_per_class points per class, drawn without replacement."""
        if max_per_class < 1:
            raise ValueError("max_per_class must be >= 1")
        out = {}
        for label, mat in self.classes.items():
            if len(mat) <= max_per_class:
                out[label] = mat
            else:
                out[label] = mat[np.sort(rng.choice(len(mat), size=max_per_class, replace=False))]
        return ClassGroupedDataset(out, self.feature_dim)

    def max_feature_norm(self) -> float:
        return max(nrm for mat in self.classes.values() for nrm in _row_norms(mat))

    def __eq__(self, other):
        if not isinstance(other, ClassGroupedDataset):
            return NotImplemented
        return (
            self.feature_dim == other.feature_dim
            and list(self.classes.keys()) == list(other.classes.keys())
            and all(np.array_equal(self.classes[k], other.classes[k]) for k in self.classes)
        )


def _iter_lines(source):
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_libsvm(source) -> ClassGroupedDataset:
    """Parse LIBSVM text from a string or line iterable.

    Grammar per line: ``<int label> [<index>:<value> ...]`` with 1-based
    strictly ascending indices; ``#`` starts a comment running to end of line.
    Blank lines are skipped. Raises ParseError with the line number on any
    malformed token, and DataError when no data line is present or a class's
    dense matrix cannot be allocated.
    """
    # label -> flat column indices, values and row offsets, in first-appearance order
    classes = defaultdict(lambda: (array("q"), array("d"), array("q", [0])))
    max_index = 0
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = int(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"non-numeric label {tokens[0]!r}") from None
        cols, vals, offsets = classes[label]
        prev = 0
        for token in tokens[1:]:
            idx_s, sep, val_s = token.partition(":")
            if not sep:
                raise ParseError(lineno, f"feature token {token!r} is not index:value")
            try:
                idx = int(idx_s)
            except ValueError:
                raise ParseError(lineno, f"non-numeric index {idx_s!r}") from None
            try:
                val = float(val_s)
            except ValueError:
                raise ParseError(lineno, f"non-numeric value {val_s!r}") from None
            if idx < 1:
                raise ParseError(lineno, f"index {idx} is not >= 1")
            if idx <= prev:
                raise ParseError(lineno, f"indices not strictly ascending at {idx}")
            if not math.isfinite(val):
                raise ParseError(lineno, f"non-finite value {val_s!r}")
            try:
                cols.append(idx - 1)
            except OverflowError:
                raise DataError(f"line {lineno}: feature index {idx} does not fit in a dense matrix") from None
            vals.append(val)
            prev = idx
        offsets.append(len(cols))
        max_index = max(max_index, prev)
    if not classes:
        raise DataError("empty input: no data lines found")
    out = {}
    for label, (cols, vals, offsets) in classes.items():
        points = len(offsets) - 1
        try:
            mat = np.zeros((points, max_index))
        except (MemoryError, ValueError):
            raise DataError(f"class {label} with {points} point(s) and largest feature index "
                            f"{max_index} does not fit in memory as a dense matrix") from None
        rows = np.repeat(np.arange(points), np.diff(np.frombuffer(offsets, dtype=np.int64)))
        mat[rows, np.frombuffer(cols, dtype=np.int64)] = np.frombuffer(vals, dtype=np.float64)
        out[label] = mat
    return ClassGroupedDataset(out, max_index)


def _format_value(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(float(v))


def to_libsvm(dataset: ClassGroupedDataset) -> str:
    """Serialize back to LIBSVM text, every entry written; parse(to_libsvm(d)) == d."""
    lines = []
    for label, mat in dataset.classes.items():
        for row in mat.tolist():
            parts = [str(label)]
            parts.extend(f"{i}:{_format_value(v)}" for i, v in enumerate(row, start=1))
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def synth_gaussian_classes(rng: np.random.Generator, m_classes: int, n_dim: int,
                           points_per_class: int, separation: float) -> ClassGroupedDataset:
    """Gaussian mixture: class i (labels 1..m) is N(separation * e_{i mod n}, I).

    Deterministic given the generator state and parameters.
    """
    if m_classes < 2:
        raise ValueError("need at least 2 classes")
    if points_per_class < 1:
        raise ValueError("need at least 1 point per class")
    if n_dim < 1:
        raise ValueError("feature dimension must be positive")
    classes = {}
    for label in range(1, m_classes + 1):
        shift = np.zeros(n_dim)
        shift[label % n_dim] = separation
        classes[label] = rng.standard_normal((points_per_class, n_dim)) + shift
    return ClassGroupedDataset(classes, n_dim)
