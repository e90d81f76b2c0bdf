import math

import numpy as np
import pytest

from equiprune.data import (
    Dataset,
    SplitSpec,
    load_csv,
    read_split_manifest,
    split,
    split_indices,
    write_split_manifest,
)
from equiprune.errors import (
    EmptyDataset,
    InconsistentColumnCount,
    ParseError,
    TooFewRows,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_binary_labels_sorted_distinct(tmp_path):
    p = write(tmp_path, "a,b,label\n1.0,2.0,no\n3.0,4.0,yes\n5.0,6.0,no\n")
    ds = load_csv(p, label_column="label")
    assert ds.n_classes == 2
    # sorted distinct: no -> 0, yes -> 1
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.label_names == ("no", "yes")
    assert ds.rows.shape == (3, 2)


def test_load_csv_categorical_first_appearance(tmp_path):
    p = write(tmp_path, "color\nred\nblue\nred\n")
    ds = load_csv(p)
    assert ds.rows[:, 0].tolist() == [0.0, 1.0, 0.0]
    meta = ds.feature_meta[0]
    assert meta.kind == "categorical"
    assert meta.categories == ("red", "blue")
    # round trip codes -> names
    assert [meta.decode(v) for v in ds.rows[:, 0]] == ["red", "blue", "red"]


def test_load_csv_blank_cell_reports_location(tmp_path):
    p = write(tmp_path, "a,b\n1.0,2.0\n3.0,\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.row == 3
    assert err.value.column == "b"


def test_load_csv_empty_and_ragged(tmp_path):
    with pytest.raises(EmptyDataset):
        load_csv(write(tmp_path, "a,b\n", name="empty.csv"))
    with pytest.raises(InconsistentColumnCount):
        load_csv(write(tmp_path, "a,b\n1.0\n", name="ragged.csv"))


def test_load_csv_numeric_labels_sorted(tmp_path):
    p = write(tmp_path, "a,label\n1,10\n2,2\n3,10\n")
    ds = load_csv(p, label_column="label")
    # numeric sort: 2 -> 0, 10 -> 1
    assert ds.labels.tolist() == [1, 0, 1]


@pytest.mark.parametrize("text, label, row, column", [
    # two nan labels were two classes, ('0.0', '1.0', 'nan', 'nan')
    ("a,label\n1,0\n2,nan\n3,1\n4,nan\n", "label", 3, "label"),
    ("a,label\n1,0\n2,1\n3,-inf\n", "label", 4, "label"),
    # a nan feature trained trees with threshold=nan
    ("a,b,label\n1,2,0\n2,nan,1\n", "label", 3, "b"),
    ("a,b,label\n1,2,0\n2,3,1\nInfinity,4,0\n", "label", 4, "a"),
    ("a\n1e999\n", None, 2, "a"),
])
def test_load_csv_non_finite_number_reports_location(tmp_path, text, label,
                                                     row, column):
    with pytest.raises(ParseError, match="non-finite") as err:
        load_csv(write(tmp_path, text), label_column=label)
    assert (err.value.row, err.value.column) == (row, column)


def test_load_csv_nan_token_in_a_categorical_column_is_a_category(tmp_path):
    ds = load_csv(write(tmp_path, "a,label\nx,no\nnan,yes\nx,nan\n"),
                  label_column="label")
    assert ds.feature_meta[0].categories == ("x", "nan")
    assert ds.label_names == ("nan", "no", "yes")


def make_dataset(n, p=2, seed=0):
    rng = np.random.default_rng(seed)
    from equiprune.data import CONTINUOUS, FeatureMeta

    meta = tuple(FeatureMeta(name=f"x{j}", kind=CONTINUOUS) for j in range(p))
    return Dataset(rows=rng.normal(size=(n, p)), labels=None, feature_meta=meta)


def test_split_sizes_floor_remainder():
    # floor cuts 6.4 -> 6, 1.6 -> 1, remainder 3
    parts = split_indices(10, SplitSpec(ratios=(0.64, 0.16, 0.20), seed=0))
    assert [len(p) for p in parts] == [6, 1, 3]


def test_split_single_ratio_identity():
    parts = split_indices(5, SplitSpec(ratios=(1.0,), seed=123))
    assert parts[0].tolist() == [0, 1, 2, 3, 4]


def test_split_deterministic_and_complete():
    ds = make_dataset(37, p=3, seed=5)
    spec = SplitSpec(ratios=(0.5, 0.25, 0.25), seed=42)
    a = split(ds, spec)
    b = split(ds, spec)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.rows, pb.rows)
    stacked = np.vstack([p.rows for p in a])
    # concatenated partitions are a permutation of the input rows
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, ds.rows))
    total = sum(p.n_rows for p in a)
    assert total == ds.n_rows


def test_split_too_few_rows():
    with pytest.raises(TooFewRows):
        split_indices(2, SplitSpec(ratios=(0.4, 0.3, 0.3), seed=0))


def test_split_partitions_nonempty_when_possible():
    parts = split_indices(5, SplitSpec(ratios=(0.9, 0.05, 0.05), seed=1))
    assert all(len(p) >= 1 for p in parts)
    assert sum(len(p) for p in parts) == 5


def test_split_manifest_round_trip(tmp_path):
    spec = SplitSpec(ratios=(0.6, 0.4), seed=9)
    parts = split_indices(20, spec)
    path = tmp_path / "manifest.json"
    write_split_manifest(path, spec, parts)
    spec2, parts2 = read_split_manifest(path)
    assert spec2 == spec
    for p, q in zip(parts, parts2):
        assert np.array_equal(p, q)


def test_ratio_validation():
    with pytest.raises(ValueError):
        SplitSpec(ratios=(0.5, 0.6), seed=0)
    with pytest.raises(ValueError):
        SplitSpec(ratios=(-0.1, 1.1), seed=0)
    # abs(nan - 1) > 1e-9 is False: the sum check alone lets NaN through
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SplitSpec(ratios=(bad, 0.5, 0.5), seed=0)


def test_negative_seed_is_refused():
    # NumPy's Philox refuses it too, with a message that names no seed
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SplitSpec(ratios=(0.5, 0.5), seed=-1)
