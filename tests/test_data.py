import math

import numpy as np
import pytest

from saddle_sa import (
    ClassGroupedDataset,
    DataError,
    ParseError,
    RandomSource,
    parse_libsvm,
    synth_gaussian_classes,
    to_libsvm,
)


class TestParser:
    def test_basic_line(self):
        ds = parse_libsvm("2 1:0.5 7:-3\n")
        assert ds.labels == [2]
        assert ds.classes[2].tolist() == [[0.5, 0.0, 0.0, 0.0, 0.0, 0.0, -3.0]]
        assert ds.feature_dim == 7

    def test_label_only_line(self):
        ds = parse_libsvm("1\n2 3:1.5\n")
        assert ds.classes[1].tolist() == [[0.0, 0.0, 0.0]]
        assert ds.feature_dim == 3

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n\n1 1:2.0  # trailing comment\n")
        assert ds.num_points() == 1
        assert ds.classes[1].tolist() == [[2.0]]

    def test_crlf_accepted(self):
        ds = parse_libsvm("1 1:1\r\n2 2:2\r\n")
        assert ds.num_points() == 2
        assert ds.feature_dim == 2

    def test_nonascending_indices_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:1\n1 3:1 2:1\n")
        assert err.value.line_number == 2

    def test_nonnumeric_label_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("abc 1:1\n")
        assert err.value.line_number == 1

    def test_nonnumeric_value_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:1\n1 2:x\n")
        assert err.value.line_number == 2

    def test_nonnumeric_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 a:1\n")

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 0:1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_value_rejected_with_line(self, value):
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"1 1:1\n2 1:0.5 2:{value}\n")
        assert err.value.line_number == 2
        assert "non-finite value" in str(err.value)

    def test_unallocatable_class_is_data_error(self):
        # 2**62 features of 8 bytes overflow numpy's size check before any
        # memory is touched.
        with pytest.raises(DataError) as err:
            parse_libsvm(f"1 1:1\n2 {2**62}:1\n2 1:1\n")
        assert str(err.value) == (f"class 1 with 1 point(s) and largest feature index {2**62} "
                                  "does not fit in memory as a dense matrix")

    def test_index_beyond_int64_is_data_error(self):
        with pytest.raises(DataError, match=f"line 2: feature index {2**64} does not fit"):
            parse_libsvm(f"1 1:1\n2 {2**64}:1\n")

    def test_matrices_match_per_line_reference(self):
        # Interleaved classes, label-only lines, explicit zeros and a -0.0,
        # against each line written into its own dense row.
        rng = np.random.default_rng(17)
        lines = ["3", "1 2:-0.0 5:0", "2 1:0.0"]
        for _ in range(200):
            row = rng.normal(size=9) * (rng.random(9) < 0.4)
            kept = [(i, v) for i, v in enumerate(row.tolist(), start=1) if v != 0.0 or rng.random() < 0.2]
            lines.append(" ".join([str(int(rng.integers(1, 5)))] + [f"{i}:{v!r}" for i, v in kept]))
        lines.append("4")
        ds = parse_libsvm("\n".join(lines) + "\n")
        reference = {}
        for line in lines:
            label, *tokens = line.split()
            row = np.zeros(9)
            for token in tokens:
                idx, val = token.split(":")
                row[int(idx) - 1] = float(val)
            reference.setdefault(int(label), []).append(row)
        assert ds.labels == list(reference) == [3, 1, 2, 4] and ds.feature_dim == 9
        for label, rows in reference.items():
            expect = np.array(rows)
            assert np.array_equal(ds.classes[label], expect)
            assert np.array_equal(np.signbit(ds.classes[label]), np.signbit(expect))
        assert np.signbit(ds.classes[1][0, 1])

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            parse_libsvm("")
        with pytest.raises(DataError):
            parse_libsvm("# only comments\n\n")

    def test_accepts_file_object(self, tmp_path):
        path = tmp_path / "data.libsvm"
        path.write_text("1 1:1\n2 2:1\n", encoding="utf-8")
        with path.open("r", encoding="utf-8") as fh:
            ds = parse_libsvm(fh)
        assert ds.num_classes == 2


class TestRoundTrip:
    def test_small_round_trip(self):
        text = "2 1:0.5 7:-3\n1\n2 2:1.25\n"
        ds = parse_libsvm(text)
        again = parse_libsvm(to_libsvm(ds))
        assert again == ds

    @pytest.mark.parametrize("text", ["1 2:0.0\n2 1:1\n", "1\n2\n"])
    def test_round_trip_keeps_feature_dim(self, text):
        # An all-zero last column and a label-only file (feature_dim 0).
        ds = parse_libsvm(text)
        again = parse_libsvm(to_libsvm(ds))
        assert again.feature_dim == ds.feature_dim
        assert again == ds

    def test_generated_round_trips(self):
        rng = RandomSource(17).generator()
        for _ in range(100):
            lines = []
            dim = int(rng.integers(1, 12))
            for _ in range(int(rng.integers(1, 20))):
                label = int(rng.integers(1, 4))
                count = int(rng.integers(0, dim + 1))
                idx = np.sort(rng.choice(np.arange(1, dim + 1), size=count, replace=False))
                feats = " ".join(f"{i}:{rng.normal():.6g}" for i in idx)
                lines.append(f"{label} {feats}".strip())
            text = "\n".join(lines) + "\n"
            try:
                ds = parse_libsvm(text)
            except DataError:
                continue  # all-empty corner
            assert parse_libsvm(to_libsvm(ds)) == ds


def sparse_rows(text):
    """Per line (label, values as stored): the file's own tokens, zeros included."""
    rows = []
    for line in text.splitlines():
        tokens = line.split()
        rows.append((int(tokens[0]), [(int(t.split(":")[0]), float(t.split(":")[1])) for t in tokens[1:]]))
    return rows


def sparse_norm(entries):
    # The arithmetic of the sparse form: a sum over stored values only.
    return math.sqrt(sum(v * v for _, v in entries))


def bits(mat):
    return np.ascontiguousarray(mat).view(np.int64).tolist()


class TestDatasetOps:
    def test_normalize_unit_norms(self):
        ds = parse_libsvm("1 1:3 2:4\n2 1:0.0\n").normalize()
        assert np.linalg.norm(ds.classes[1][0]) == pytest.approx(1.0, abs=1e-12)
        assert ds.classes[2].tolist() == [[0.0, 0.0]]  # zero vector left alone

    def test_normalize_and_max_norm_match_sparse_arithmetic_bit_for_bit(self):
        rng = np.random.default_rng(44)
        lines = ["1 1:3 2:0 3:4", "1 2:-0.0 5:1e-3", "2", "2 4:0.0", "3 3:7.5", "3 1:1e-300",
                 "1 5:-2.5", "2 2:-0.0 3:0.0"]
        for _ in range(60):
            idx = np.sort(rng.choice(np.arange(1, 25), size=int(rng.integers(1, 25)), replace=False))
            vals = rng.normal(size=idx.size) * 10.0 ** rng.integers(-2, 3, size=idx.size)
            lines.append(f"{int(rng.integers(1, 4))} " + " ".join(f"{i}:{v!r}" for i, v in zip(idx, vals.tolist())))
        text = "\n".join(lines) + "\n"
        ds = parse_libsvm(text)
        expected = {label: [] for label in ds.labels}
        norms = []
        for label, entries in sparse_rows(text):
            nrm = sparse_norm(entries)
            norms.append(nrm)
            row = np.zeros(ds.feature_dim)
            for i, v in entries:
                row[i - 1] = v * (1.0 / nrm) if nrm > 0.0 else v
            expected[label].append(row)
        normalized = ds.normalize()
        for label in ds.labels:
            assert bits(normalized.classes[label]) == bits(np.array(expected[label]))
        assert ds.max_feature_norm() == max(norms)

    def test_subsample_counts_and_determinism(self):
        rng = np.random.default_rng(0)
        ds = synth_gaussian_classes(rng, 2, 3, 50, 0.5)
        a = ds.subsample(10, RandomSource(5).generator())
        b = ds.subsample(10, RandomSource(5).generator())
        assert a == b
        assert all(a.num_points(lbl) == 10 for lbl in a.labels)

    def test_class_matrix_shape(self):
        rng = np.random.default_rng(0)
        ds = synth_gaussian_classes(rng, 2, 3, 5, 0.0)
        assert ds.classes[1].shape == (5, 3)
        assert ds.classes[1].dtype == np.float64

    def test_matrices_are_read_only(self):
        ds = parse_libsvm("1 1:1\n2 2:1\n")
        for dataset in (ds, ds.normalize(), ds.subsample(1, RandomSource(0).generator())):
            with pytest.raises(ValueError):
                dataset.classes[1][0, 0] = 5.0

    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            ClassGroupedDataset({1: []}, 3)
        with pytest.raises(DataError):
            ClassGroupedDataset({1: np.zeros((0, 3))}, 3)

    def test_wrong_width_rejected(self):
        with pytest.raises(DataError):
            ClassGroupedDataset({1: np.zeros((2, 4)), 2: np.zeros((2, 3))}, 3)
        with pytest.raises(DataError):
            ClassGroupedDataset({1: np.zeros(3)}, 3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_entry_rejected(self, value):
        points = np.ones((2, 3))
        points[1, 2] = value
        with pytest.raises(DataError):
            ClassGroupedDataset({1: np.ones((1, 3)), 2: points}, 3)


class TestSynthetic:
    def test_zero_separation_means_coincide(self):
        rng = np.random.default_rng(0)
        ds = synth_gaussian_classes(rng, 3, 4, 2000, 0.0)
        means = [ds.classes[lbl].mean(axis=0) for lbl in ds.labels]
        for m in means[1:]:
            np.testing.assert_allclose(m, means[0], atol=0.15)

    def test_counting(self):
        rng = np.random.default_rng(0)
        ds = synth_gaussian_classes(rng, 2, 3, 1, 0.0)
        assert ds.num_points() == 2

    def test_seed_determinism(self):
        a = synth_gaussian_classes(RandomSource(9).generator(), 3, 5, 10, 1.0)
        b = synth_gaussian_classes(RandomSource(9).generator(), 3, 5, 10, 1.0)
        assert a == b

    def test_separation_shifts_named_axis(self):
        rng = np.random.default_rng(0)
        ds = synth_gaussian_classes(rng, 2, 5, 4000, 3.0)
        mean1 = ds.classes[1].mean(axis=0)  # class 1 shifted along axis 1 mod 5
        assert mean1[1] == pytest.approx(3.0, abs=0.2)
        assert abs(mean1[0]) < 0.2
