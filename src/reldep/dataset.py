"""Samples, CSV ingestion, alignment and the half split.

A Sample is an immutable (m, d) float64 matrix with a label.  Like every
frozen type in the package, it holds a read-only view of the caller's
array, not a copy, where it can: do not change an array after handing it
over.  Loading is strict: every cell must parse as a finite number, rows
must have equal width, and any violation is reported with its file
position.  Missing values are never imputed.  Samples of the same units
must share their row count; ``row_count`` checks that for ``JointSample``
and ``joint_summary``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "DatasetError",
    "PreconditionError",
    "Sample",
    "JointSample",
    "load_csv",
    "save_csv",
    "align",
    "row_count",
    "split_half",
]


class DatasetError(ValueError):
    """Unreadable, malformed or inconsistent input data."""


class PreconditionError(ValueError):
    """A statistical precondition is violated (too few rows, degenerate data)."""


def _readonly(a) -> np.ndarray:
    """Read-only C-contiguous float64 view of ``a``; it may share a's memory."""
    a = np.ascontiguousarray(a, dtype=np.float64).view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Sample:
    """One variable's observations: rows are observations, columns features."""

    data: np.ndarray
    label: str = ""

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim == 1:
            data = data[:, None]  # a vector is m observations of one feature
        if data.ndim != 2:
            raise DatasetError(f"sample {self.label!r}: expected a 2-d matrix")
        object.__setattr__(self, "data", _readonly(data))
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DatasetError(f"sample {self.label!r}: empty matrix")
        if not np.isfinite(self.data).all():
            i, j = np.argwhere(~np.isfinite(self.data))[0]
            raise DatasetError(
                f"sample {self.label!r}: non-finite value at row {i + 1}, "
                f"column {j + 1}"
            )

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def rows(self, idx) -> "Sample":
        """New sample restricted to the given row indices (order kept)."""
        return Sample(self.data[idx], self.label)


@dataclass(frozen=True)
class JointSample:
    """Row-aligned samples: row i of each variable is the same unit."""

    x: Sample
    y: Sample
    z: Sample | None = None

    def __post_init__(self):
        row_count(self.samples)

    @property
    def samples(self) -> list[Sample]:
        """x, y and, if present, z."""
        return [s for s in (self.x, self.y, self.z) if s is not None]

    @property
    def m(self) -> int:
        return self.x.m


def row_count(samples: Sequence[Sample]) -> int:
    """The number of rows that ``samples`` share; DatasetError if they differ."""
    counts = [s.m for s in samples]
    if len(set(counts)) != 1:
        raise DatasetError(f"sample sizes {','.join(map(str, counts))} differ")
    return counts[0]


def load_csv(path, *, delimiter: str = ",", has_header: bool = False) -> Sample:
    """Load a numeric CSV file into a Sample labelled with the file's stem.

    Rows must all have the same width and every cell must be a finite
    number; errors name the offending 1-based line and column.
    """
    path = Path(path)
    if len(delimiter) != 1:
        raise DatasetError(f"delimiter must be a single character, got {delimiter!r}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not valid UTF-8 text ({exc})") from exc

    rows: list[list[float]] = []
    width: int | None = None
    reader = csv.reader(text.splitlines(), delimiter=delimiter)
    for lineno, cells in enumerate(reader, start=1):
        if has_header and lineno == 1:
            continue
        if not cells or (len(cells) == 1 and cells[0].strip() == ""):
            continue  # blank line
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DatasetError(
                f"{path}: line {lineno} has {len(cells)} columns, expected {width}"
            )
        parsed = []
        for colno, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: non-numeric cell {cell!r} at line {lineno}, "
                    f"column {colno}"
                ) from None
            if not np.isfinite(value):
                raise DatasetError(
                    f"{path}: non-finite cell {cell!r} at line {lineno}, "
                    f"column {colno}"
                )
            parsed.append(value)
        rows.append(parsed)

    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return Sample(np.array(rows, dtype=np.float64), path.stem)


def save_csv(sample: Sample, path) -> None:
    """Write a sample with exact round-trip precision (shortest repr)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for row in sample.data:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def align(x: Sample, y: Sample, z: Sample | None = None) -> JointSample:
    """Bundle samples that observe the same units; sizes must match."""
    return JointSample(x=x, y=y, z=z)


def split_half(
    j: JointSample, *, shuffle_seed: int | None = None
) -> tuple[JointSample, JointSample]:
    """Split into two disjoint halves: (x', y') rows and (x'', z'') rows.

    The first half pairs the first floor(m/2) rows of x with the same rows
    of y; the second half pairs the next floor(m/2) rows of x with the same
    rows of z.  An odd final row is dropped.  Row order is deterministic
    unless ``shuffle_seed`` asks for a seeded pre-shuffle.
    """
    if j.z is None:
        raise PreconditionError("split_half needs all three variables x, y, z")
    if j.m < 8:
        raise PreconditionError(
            f"split_half needs m >= 8 so each half supports the estimator; got {j.m}"
        )
    order = np.arange(j.m)
    if shuffle_seed is not None:
        order = np.random.default_rng(np.random.SeedSequence(shuffle_seed)).permutation(
            j.m
        )
    half = j.m // 2
    first, second = order[:half], order[half : 2 * half]
    return (
        JointSample(x=j.x.rows(first), y=j.y.rows(first)),
        JointSample(x=j.x.rows(second), y=j.z.rows(second)),
    )
