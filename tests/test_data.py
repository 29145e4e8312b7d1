"""Dataset generation, CSV round trips, normalization, stratified splits."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsparse.config import class_test_count
from fedsparse.data import (Dataset, csv_text, gen_synthetic, load_csv, normalize,
                            train_test_split)
from fedsparse.model import ModelSpec, evaluate, init_params
from oracles import gradient


def train_linear(ds, epochs=30, lr=0.1, seed=0):
    """Tiny centralized trainer used as the separability probe."""
    spec = ModelSpec((ds.input_dim, ds.class_count), seed=seed)
    params = init_params(spec)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), 32):
            batch = order[start:start + 32]
            params = params - lr * gradient(spec, params, ds.inputs[batch],
                                            ds.labels[batch])
    return spec, params


class TestDataset:
    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, 1.0], [True, False]],
                             ids=["fractional", "integral_float", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        """A float label is not truncated to a class, nor a bool read as 0/1."""
        with pytest.raises(ValueError, match="^labels must have an integer dtype"):
            Dataset(np.zeros((2, 3)), np.array(labels), 2)

    def test_integer_labels_of_any_width_become_int64(self):
        ds = Dataset(np.zeros((3, 2)), np.array([1, 0, 1], dtype=np.uint8), 2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0, 1]

    def test_empty_dataset_named_before_the_label_dtype(self):
        with pytest.raises(ValueError, match="^dataset must contain at least one sample$"):
            Dataset(np.zeros((0, 3)), [], 2)

    @pytest.mark.parametrize("labels", [np.zeros((2, 1), dtype=int), np.zeros(3, dtype=int)],
                             ids=["column", "too_many"])
    def test_labels_must_be_one_per_row(self, labels):
        with pytest.raises(ValueError, match="^2 input rows but labels of shape"):
            Dataset(np.zeros((2, 3)), labels, 2)


class TestSynthetic:
    def test_shapes_and_determinism(self):
        a = gen_synthetic(3, 50, 6, 2.0, rng_seed=4)
        b = gen_synthetic(3, 50, 6, 2.0, rng_seed=4)
        assert len(a) == 150 and a.input_dim == 6 and a.class_count == 3
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert np.bincount(a.labels).tolist() == [50, 50, 50]

    def test_widely_separated_classes_are_learnable(self):
        ds = gen_synthetic(2, 200, 5, 100.0, rng_seed=1)
        spec, params = train_linear(ds)
        assert evaluate(spec, params, ds) > 0.99

    def test_zero_separation_is_chance_level(self):
        ds = gen_synthetic(2, 5000, 5, 0.0, rng_seed=2)
        spec, params = train_linear(ds, epochs=3)
        assert abs(evaluate(spec, params, ds) - 0.5) < 0.05

    def test_accuracy_grows_with_separation(self):
        """Separability is monotone over {0, 1, 3, 10}, averaged over seeds."""
        means = []
        for sep in (0.0, 1.0, 3.0, 10.0):
            accs = []
            for seed in range(5):
                ds = gen_synthetic(3, 120, 6, sep, rng_seed=seed)
                spec, params = train_linear(ds, epochs=10, seed=seed)
                accs.append(evaluate(spec, params, ds))
            means.append(np.mean(accs))
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestCsv:
    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,2.0,0\n-0.5,3.25,1\n0.0,0.0,2\n")
        ds = load_csv(path, input_dim=2, class_count=3)
        assert len(ds) == 3
        assert np.array_equal(ds.inputs, [[1.0, 2.0], [-0.5, 3.25], [0.0, 0.0]])
        assert ds.labels.tolist() == [0, 1, 2]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, 2, 2)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match=":2:"):
            load_csv(path, 2, 2)
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ValueError, match="expected 3 columns"):
            load_csv(path, 2, 2)

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1.0,2.0,0\n1.0,2.0\xff,1\n1.0,2.0,0\n")
        with pytest.raises(ValueError, match=r"^.*latin\.csv:2: 'utf-8' codec can't "
                                             r"decode byte 0xff in position 7"):
            load_csv(path, 2, 2)

    def test_non_utf8_header_is_skipped_like_any_header(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_bytes(b"f\xe90,f1,label\n1.0,2.0,0\n")
        assert len(load_csv(path, 2, 2, skip_header=True)) == 1
        with pytest.raises(ValueError, match=r"head\.csv:1: "):
            load_csv(path, 2, 2)

    def test_universal_newlines(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"1.0,2.0,0\r-0.5,3.25,1\r\n0.0,0.0,1\n")
        ds = load_csv(path, 2, 2)
        assert ds.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1.0,2.0,0\n1.0,{cell},1\n")
        with pytest.raises(ValueError, match=r"nonfinite\.csv:2: non-finite feature"):
            load_csv(path, 2, 2)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("1.0,2.0,5\n")
        with pytest.raises(ValueError, match=r"label 5 outside \[0, 3\)"):
            load_csv(path, 2, 3)

    def test_skip_header(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n")
        assert len(load_csv(path, 2, 2, skip_header=True)) == 1

    def test_save_load_round_trip(self, tmp_path):
        ds = gen_synthetic(3, 20, 4, 1.5, rng_seed=9)
        path = tmp_path / "round.csv"
        path.write_text(csv_text(ds), encoding="utf-8")
        back = load_csv(path, 4, 3)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)


class TestNormalize:
    def test_moments_after_normalization(self):
        ds = gen_synthetic(2, 100, 5, 2.0, rng_seed=3)
        out, _ = normalize(ds, ds)
        assert np.all(np.abs(out.inputs.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(out.inputs.var(axis=0) - 1.0) < 1e-10)

    def test_constant_feature_goes_to_zero(self):
        inputs = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        ds = Dataset(inputs, np.zeros(10, dtype=int), class_count=2)
        out, _ = normalize(ds, ds)
        assert np.all(out.inputs[:, 0] == 0.0)

    def test_one_training_row_is_rejected(self):
        """Direct callers get a ValueError; a run's config rejects the split
        first (ExperimentConfig.check_split)."""
        ds = gen_synthetic(2, 5, 3, 2.0, rng_seed=3)
        with pytest.raises(ValueError, match="^normalize needs at least two samples$"):
            normalize(ds.subset([0]), ds)

    def test_stats_apply_to_held_out_data(self):
        train = gen_synthetic(2, 50, 3, 2.0, rng_seed=5)
        test = gen_synthetic(2, 10, 3, 2.0, rng_seed=6)
        _, out = normalize(train, test)
        expected = (test.inputs - train.inputs.mean(axis=0)) / train.inputs.std(axis=0)
        assert np.allclose(out.inputs, expected, rtol=1e-12)


class TestSplit:
    def test_exact_divisibility(self):
        ds = gen_synthetic(3, 100, 4, 1.0, rng_seed=7)
        train, test = train_test_split(ds, 0.2, rng_seed=8)
        assert len(test) == 60 and len(train) == 240
        assert np.bincount(test.labels).tolist() == [20, 20, 20]

    def test_disjoint_cover(self):
        ds = gen_synthetic(2, 33, 4, 1.0, rng_seed=9)
        train, test = train_test_split(ds, 0.25, rng_seed=10)
        assert len(train) + len(test) == 66
        # reconstruct original rows to show disjointness
        rows = {tuple(r) for r in ds.inputs}
        split_rows = [tuple(r) for r in np.vstack([train.inputs, test.inputs])]
        assert len(split_rows) == len(set(split_rows)) == len(rows)

    def test_stratification_bound(self):
        ds = gen_synthetic(4, 37, 3, 1.0, rng_seed=11)
        train, test = train_test_split(ds, 0.3, rng_seed=12)
        for cls in range(4):
            target = round(0.3 * 37)
            got = int(np.sum(test.labels == cls))
            assert abs(got - target) <= 1

    def test_deterministic(self):
        ds = gen_synthetic(2, 40, 3, 1.0, rng_seed=13)
        a = train_test_split(ds, 0.2, rng_seed=14)
        b = train_test_split(ds, 0.2, rng_seed=14)
        assert np.array_equal(a[0].inputs, b[0].inputs)
        assert np.array_equal(a[1].inputs, b[1].inputs)

    def test_singleton_class_stays_in_train(self):
        """Silently: a warning would make the outcome depend on the filter."""
        inputs = np.arange(12.0).reshape(6, 2)
        labels = np.array([0, 0, 0, 0, 0, 1])
        ds = Dataset(inputs, labels, class_count=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train, test = train_test_split(ds, 0.4, rng_seed=15)
        assert 1 in train.labels
        assert 1 not in test.labels

    @given(sizes=st.lists(st.integers(0, 12), min_size=1, max_size=4).filter(any),
           fraction=st.floats(1e-3, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_per_class_test_count_is_the_config_rule(self, sizes, fraction):
        """Each nonempty class gives config.class_test_count test rows, the
        count ExperimentConfig.check_split reads; all zero is an error."""
        labels = np.repeat(np.arange(len(sizes)), sizes)
        ds = Dataset(np.zeros((len(labels), 1)), labels, class_count=len(sizes))
        expected = [class_test_count(n, fraction) if n else 0 for n in sizes]
        if sum(expected) == 0:
            with pytest.raises(ValueError, match="empty test split"):
                train_test_split(ds, fraction, rng_seed=0)
            return
        train, test = train_test_split(ds, fraction, rng_seed=0)
        assert np.bincount(test.labels, minlength=len(sizes)).tolist() == expected
        assert len(train) + len(test) == len(ds)

    def test_fraction_bounds(self):
        ds = gen_synthetic(2, 10, 3, 1.0, rng_seed=16)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                train_test_split(ds, bad, rng_seed=0)
