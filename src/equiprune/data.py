"""Tabular dataset ingestion, ordinal encoding, and seeded splitting.

CSV input follows RFC 4180 (UTF-8, header row required). Continuous columns
are parsed as floats; any column with a non-numeric cell is treated as
categorical and ordinal-encoded by first appearance. Labels are mapped to
0..C-1 by sorted distinct values.

Splits shuffle row indices with a Philox counter-based generator (a named,
platform-stable 64-bit PRNG) and cut at cumulative floor boundaries, with the
remainder assigned to the last partition.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    InconsistentColumnCount,
    ParseError,
    TooFewRows,
)

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureMeta:
    """Per-feature kind and, for categoricals, the code -> name table."""

    name: str
    kind: str  # CONTINUOUS or CATEGORICAL
    categories: tuple[str, ...] = ()

    def decode(self, code: float) -> str:
        """Map an ordinal code back to the original category token."""
        if self.kind != CATEGORICAL:
            raise ValueError(f"feature {self.name!r} is not categorical")
        return self.categories[int(code)]


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with optional integer labels in 0..C-1."""

    rows: np.ndarray  # (n, p) float64
    labels: np.ndarray | None  # (n,) int64 or None
    feature_meta: tuple[FeatureMeta, ...]
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d matrix")
        object.__setattr__(self, "rows", rows)
        rows.setflags(write=False)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (rows.shape[0],):
                raise ValueError("labels must align with rows")
            object.__setattr__(self, "labels", labels)
            labels.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            return 0
        if self.label_names:
            return len(self.label_names)
        return int(self.labels.max()) + 1

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            rows=self.rows[idx].copy(),
            labels=None if self.labels is None else self.labels[idx].copy(),
            feature_meta=self.feature_meta,
            label_names=self.label_names,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Ordered partition proportions plus the shuffle seed."""

    ratios: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        ratios = tuple(float(r) for r in self.ratios)
        object.__setattr__(self, "ratios", ratios)
        if not all(math.isfinite(r) and r >= 0 for r in ratios):
            raise ValueError(f"ratios must be finite and non-negative, got "
                             f"{ratios}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")


def _parse_cell(token: str) -> float | None:
    """Return the float value of a cell, or None if it is not numeric."""
    try:
        return float(token)
    except ValueError:
        return None


def _numeric_column(tokens: list[str], name: str) -> list[float] | None:
    """The values of a column whose every cell parses as a number, else
    None; ParseError at the first cell that parses to NaN or +-inf."""
    values = [_parse_cell(t) for t in tokens]
    if any(v is None for v in values):
        return None
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ParseError(f"non-finite number {tokens[i]!r} at row "
                             f"{i + 2}, column {name!r}", row=i + 2,
                             column=name)
    return values


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load an RFC-4180 CSV file with a header row into a Dataset.

    Columns where every cell parses as a number become continuous features;
    any other column is ordinal-encoded by first appearance. The label
    column, when named, is mapped to 0..C-1 by sorted distinct values
    (numeric sort when all labels are numeric, lexicographic otherwise).

    Raises ParseError (with 1-based row/column) on a blank cell or on a cell
    of a numeric column that parses to NaN or +-inf, ParseError naming the
    file if it is not UTF-8 text or not CSV, EmptyDataset, or
    InconsistentColumnCount.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyDataset(f"{path}: no header row")
            raw_rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as err:
        raise ParseError(f"{path}: not a UTF-8 CSV file: {err}") from err

    if not raw_rows:
        raise EmptyDataset(f"{path}: no data rows")

    n_cols = len(header)
    for i, row in enumerate(raw_rows):
        if len(row) != n_cols:
            raise InconsistentColumnCount(
                f"row {i + 2} has {len(row)} cells, header has {n_cols}"
            )
        for j, cell in enumerate(row):
            if cell.strip() == "":
                raise ParseError(
                    f"blank cell at row {i + 2}, column {header[j]!r}",
                    row=i + 2,
                    column=header[j],
                )

    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise ParseError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)

    feature_cols = [j for j in range(n_cols) if j != label_idx]

    metas: list[FeatureMeta] = []
    columns: list[np.ndarray] = []
    for j in feature_cols:
        tokens = [row[j] for row in raw_rows]
        values = _numeric_column(tokens, header[j])
        if values is not None:
            metas.append(FeatureMeta(name=header[j], kind=CONTINUOUS))
            columns.append(np.array(values, dtype=float))
        else:
            codes: dict[str, int] = {}
            encoded = np.empty(len(tokens), dtype=float)
            for i, tok in enumerate(tokens):
                if tok not in codes:
                    codes[tok] = len(codes)
                encoded[i] = codes[tok]
            metas.append(
                FeatureMeta(
                    name=header[j],
                    kind=CATEGORICAL,
                    categories=tuple(codes.keys()),
                )
            )
            columns.append(encoded)

    rows = np.column_stack(columns) if columns else np.empty((len(raw_rows), 0))

    labels = None
    label_names: tuple[str, ...] = ()
    if label_idx is not None:
        tokens = [row[label_idx] for row in raw_rows]
        numeric = _numeric_column(tokens, label_column)
        if numeric is not None:
            distinct = sorted(set(numeric))
            mapping = {v: c for c, v in enumerate(distinct)}
            labels = np.array([mapping[v] for v in numeric], dtype=np.int64)
            label_names = tuple(str(v) for v in distinct)
        else:
            distinct_s = sorted(set(tokens))
            mapping_s = {t: c for c, t in enumerate(distinct_s)}
            labels = np.array([mapping_s[t] for t in tokens], dtype=np.int64)
            label_names = tuple(distinct_s)

    return Dataset(rows=rows, labels=labels, feature_meta=tuple(metas),
                   label_names=label_names)


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV, decoding categorical codes to tokens."""
    header = [m.name for m in ds.feature_meta]
    if ds.labels is not None:
        header.append(label_column)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_rows):
            row = []
            for j, meta in enumerate(ds.feature_meta):
                v = ds.rows[i, j]
                row.append(meta.decode(v) if meta.kind == CATEGORICAL else repr(float(v)))
            if ds.labels is not None:
                c = int(ds.labels[i])
                row.append(ds.label_names[c] if ds.label_names else str(c))
            writer.writerow(row)


def split_indices(n: int, spec: SplitSpec) -> list[np.ndarray]:
    """Partition range(n) per the split spec; deterministic given the seed.

    Sizes are floor(ratio * n) with the remainder going to the last
    partition. When n >= #partitions, every partition is guaranteed
    non-empty: a deficit is topped up by taking one row from the largest
    partition (deterministic, largest index wins ties last).
    """
    k = len(spec.ratios)
    if n < k:
        raise TooFewRows(f"{n} rows cannot fill {k} partitions")

    rng = np.random.Generator(np.random.Philox(spec.seed))
    order = rng.permutation(n)

    sizes = [int(np.floor(r * n + 1e-9)) for r in spec.ratios[:-1]]
    sizes.append(n - sum(sizes))

    # Floor cuts can zero out a partition for tiny ratios; the contract
    # promises non-empty partitions whenever n >= k.
    while min(sizes) == 0:
        donor = int(np.argmax(sizes))
        taker = sizes.index(0)
        sizes[donor] -= 1
        sizes[taker] += 1

    parts = []
    start = 0
    for s in sizes:
        parts.append(np.sort(order[start:start + s]))
        start += s
    return parts


def split(ds: Dataset, spec: SplitSpec) -> list[Dataset]:
    """Split a Dataset into disjoint partitions covering every row."""
    return [ds.subset(idx) for idx in split_indices(ds.n_rows, spec)]


def write_split_manifest(path, spec: SplitSpec, parts: list[np.ndarray]) -> None:
    """Persist seed, ratios, and per-partition row indices as JSON."""
    payload = {
        "seed": spec.seed,
        "ratios": list(spec.ratios),
        "partitions": [p.tolist() for p in parts],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def read_json(path):
    """The JSON value a UTF-8 file holds; ParseError naming the file if it
    is not UTF-8 text or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ParseError(f"{path}: not a UTF-8 JSON file: {err}") from err


def read_split_manifest(path) -> tuple[SplitSpec, list[np.ndarray]]:
    payload = read_json(path)
    spec = SplitSpec(ratios=tuple(payload["ratios"]), seed=int(payload["seed"]))
    parts = [np.asarray(p, dtype=np.int64) for p in payload["partitions"]]
    return spec, parts
