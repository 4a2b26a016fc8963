"""Tests for CSV ingestion, normalization, stratified sampling and batching."""

import re
from fractions import Fraction

import numpy as np
import pytest

from beatformer.config import NORM_MODES
from beatformer.data import (
    CLASS_NAMES,
    STD_FLOOR,
    Dataset,
    NormStats,
    batches,
    class_counts,
    fit_normalizer,
    load_csv,
    load_features,
    normalize,
    stratified_split,
    stratified_subset,
)
from beatformer.errors import ConfigError, DataError

from conftest import synthetic_beats, write_beats_csv


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def make_row(label, fill=0.5):
    return [fill] * 187 + [label]


class TestLoadCsv:
    def test_minimal_two_row_file(self, tmp_path):
        path = tmp_path / "two.csv"
        write_rows(path, [make_row(0.0, fill=0.1), make_row(3.0, fill=0.9)])
        ds = load_csv(str(path))
        assert ds.n == 2
        np.testing.assert_array_equal(ds.labels, [0, 3])
        assert ds.features[0, 0] == 0.1 and ds.features[1, 0] == 0.9

    def test_wrong_field_count_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [make_row(0.0), [1.0] * 50])
        with pytest.raises(DataError, match="row 2"):
            load_csv(str(path))

    def test_non_numeric_field_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = make_row(0.0)
        row[10] = "oops"
        write_rows(path, [row])
        with pytest.raises(DataError, match="row 1"):
            load_csv(str(path))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, [make_row(7.0)])
        with pytest.raises(DataError, match="outside"):
            load_csv(str(path))

    @pytest.mark.parametrize("column, value", [(11, "nan"), (11, "inf"), (188, "nan"),
                                               (1, "-inf")])
    def test_non_finite_field_names_line_and_column(self, tmp_path, column, value):
        path = tmp_path / "bad.csv"
        row = make_row(1.0)
        row[column - 1] = value
        # the blank line makes file line 3 the matrix's second row
        path.write_text(",".join(map(str, make_row(0.0))) + "\n\n" + ",".join(map(str, row))
                        + "\n")
        with pytest.raises(DataError, match=f"row 3 column {column} holds non-finite"):
            load_csv(str(path))

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\f2", "4\v"],
                             ids=["underscore", "arabic-indic-digit", "form-feed", "vertical-tab"])
    def test_field_that_no_csv_writer_writes_is_refused(self, tmp_path, value):
        # Python's float reads these as 10.0, 1.0, 2.0 and 4.0
        path = tmp_path / "odd.csv"
        path.write_text(f"0.5,0.5,0.5,0.5,1\n0.5,{value},0.5,0.5,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2 contains a non-numeric field"):
            load_csv(str(path), input_len=4)

    def test_bad_label_names_the_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n" + ",".join(map(str, make_row(0.0))) + "\n"
                        + ",".join(map(str, make_row(7.0))) + "\n")
        with pytest.raises(DataError, match="row 3 label 7.0 outside"):
            load_csv(str(path))

    def test_width_and_class_count_come_from_the_arguments(self, tmp_path):
        path = tmp_path / "binary.csv"
        write_rows(path, [[0.5] * 100 + [1.0], [0.5] * 100 + [0.0]])
        ds = load_csv(str(path), input_len=100, n_classes=2)
        assert ds.features.shape == (2, 100)
        np.testing.assert_array_equal(ds.labels, [1, 0])
        write_rows(path, [[0.5] * 100 + [1.0], [0.5] * 100 + [2.0]])
        with pytest.raises(DataError, match=r"row 2 label 2.0 outside \{0..1\}"):
            load_csv(str(path), input_len=100, n_classes=2)
        with pytest.raises(DataError, match="row 1 has 101 fields, expected 188"):
            load_csv(str(path))

    def test_label_rounding(self, tmp_path):
        path = tmp_path / "round.csv"
        write_rows(path, [make_row(2.0000001), make_row(3.9999999)])
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.labels, [2, 4])

    @pytest.mark.parametrize("label", [2.5, 0.5, 3.00001, -0.4])
    def test_non_integral_label_names_the_file_line(self, tmp_path, label):
        path = tmp_path / "frac.csv"
        write_rows(path, [make_row(1.0), make_row(2.0000001), make_row(label)])
        with pytest.raises(DataError, match=f"row 3 label {label} is not an integer"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(str(path))

    def test_class_names_fixed(self):
        assert CLASS_NAMES == ("N", "S", "V", "F", "Q")

    def test_plain_file_skips_the_row_parser(self, tmp_path, monkeypatch):
        import beatformer.data as data_mod

        path = tmp_path / "plain.csv"
        write_beats_csv(path, synthetic_beats(30, seed=10))
        expected = load_csv(str(path))

        def row_parser(*args):
            raise AssertionError("the row parser read a plain file")

        monkeypatch.setattr(data_mod, "_parse_lines", row_parser)
        ds = load_csv(str(path))
        assert ds.features.tobytes() == expected.features.tobytes()
        assert ds.labels.tobytes() == expected.labels.tobytes()

    def test_roundtrip_through_writer(self, tmp_path):
        ds = synthetic_beats(50, seed=9)
        path = tmp_path / "rt.csv"
        write_beats_csv(path, ds)
        loaded = load_csv(str(path))
        assert loaded.n == 50
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_allclose(loaded.features, ds.features, atol=1e-6)


class TestLoadFeatures:
    def test_unlabeled_rows(self, tmp_path):
        path = tmp_path / "feat.csv"
        write_rows(path, [[0.5] * 187, [0.25] * 187])
        feats, labels = load_features(str(path))
        assert feats.shape == (2, 187)
        assert labels is None

    def test_labeled_rows_keep_labels(self, tmp_path):
        path = tmp_path / "feat.csv"
        write_rows(path, [make_row(1.0), make_row(4.0)])
        feats, labels = load_features(str(path))
        assert feats.shape == (2, 187)
        np.testing.assert_array_equal(labels, [1, 4])

    @pytest.mark.parametrize("width", [187, 188])
    def test_non_finite_field_rejected(self, tmp_path, width):
        path = tmp_path / "feat.csv"
        row = [0.5] * width
        row[40] = "inf"
        write_rows(path, [[0.5] * width, row])
        with pytest.raises(DataError, match="row 2 column 41 holds non-finite value inf"):
            load_features(str(path))

    @pytest.mark.parametrize("width", [100, 101])
    def test_width_comes_from_input_len(self, tmp_path, width):
        path = tmp_path / "feat.csv"
        # the last field is an integral label when there is one
        write_rows(path, [[0.5] * (width - 1) + [1.0], [0.25] * (width - 1) + [3.0]])
        feats, labels = load_features(str(path), input_len=100)
        assert feats.shape == (2, 100)
        assert (labels is None) == (width == 100)
        with pytest.raises(DataError, match=f"row 1 has {width} fields, expected 187 or 188"):
            load_features(str(path))

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "feat.csv"
        write_rows(path, [[1.0] * 100])
        with pytest.raises(DataError):
            load_features(str(path))

    @pytest.mark.parametrize("label, what", [
        ("2.5", "label 2.5 is not an integer"), ("1e20", "label 1e+20 outside {0..4}"),
        ("-1", "label -1.0 outside {0..4}"), ("2", "label 2.0 outside {0..1}"),
    ])
    def test_trailing_label_checked_as_load_csv_checks_it(self, tmp_path, label, what):
        # a prediction input's label is checked, though predict ignores it
        path = tmp_path / "feat.csv"
        write_rows(path, [make_row(1.0), make_row(label)])
        n_classes = 2 if "{0..1}" in what else 5
        with pytest.raises(DataError, match=re.escape(f"row 2 {what}")):
            load_features(str(path), n_classes=n_classes)
        with pytest.raises(DataError, match="row 2"):
            load_csv(str(path), n_classes=n_classes)


class TestNormalizer:
    def test_constant_column_floored(self):
        feats = np.tile(np.full(187, 5.0), (4, 1))
        ds = Dataset(features=feats, labels=np.zeros(4, dtype=int), source="c")
        stats = fit_normalizer(ds)
        assert stats.mean[0] == 5.0
        assert np.all(stats.std == STD_FLOOR)

    def test_population_std_of_two_points(self):
        feats = np.zeros((2, 187))
        feats[1, :] = 2.0
        ds = Dataset(features=feats, labels=np.array([0, 1]), source="p")
        stats = fit_normalizer(ds)
        np.testing.assert_allclose(stats.mean, 1.0)
        np.testing.assert_allclose(stats.std, 1.0)  # population std of {0, 2}

    def test_stats_shapes(self, synth_train):
        stats = fit_normalizer(synth_train)
        assert stats.mean.shape == (187,) and stats.std.shape == (187,)

    def test_requires_two_samples(self):
        ds = Dataset(features=np.ones((1, 187)), labels=np.zeros(1, dtype=int))
        with pytest.raises(DataError):
            fit_normalizer(ds)

    def test_fit_names_its_mode_and_source(self, synth_train):
        assert fit_normalizer(synth_train).mode == "standard"
        stats = fit_normalizer(synth_train, "per_sample")
        assert (stats.mode, stats.fitted_on) == ("per_sample", synth_train.source)
        np.testing.assert_array_equal(stats.mean, np.zeros(187))
        np.testing.assert_array_equal(stats.std, np.ones(187))
        with pytest.raises(ConfigError, match="normalization must be one of"):
            fit_normalizer(synth_train, "per-sample")

    def test_fitting_set_standardized(self, synth_train):
        stats = fit_normalizer(synth_train)
        normed = normalize(synth_train.features.copy(), stats)
        nonconst = synth_train.features.std(axis=0) > 0
        means = normed.mean(axis=0)
        variances = normed.var(axis=0)
        assert np.all(np.abs(means[nonconst]) <= 1e-9)
        np.testing.assert_allclose(variances[nonconst], 1.0, atol=1e-6)

    def test_identity_stats(self, synth_train):
        stats = NormStats(mean=np.zeros(187), std=np.ones(187), mode="standard", fitted_on="id")
        normed = normalize(synth_train.features.copy(), stats)
        np.testing.assert_array_equal(normed, synth_train.features)

    def test_test_set_uses_train_stats(self):
        train = synthetic_beats(500, seed=1)
        test = Dataset(features=train.features + 3.0, labels=train.labels, source="shifted")
        stats = fit_normalizer(train)
        normed_test = normalize(test.features, stats)
        # a shifted test set keeps its offset: the transform used train stats
        assert abs(normed_test.mean()) > 0.5

    def test_labels_untouched(self):
        # normalize writes the features it is given, in place, and nothing
        # else: the dataset's labels keep every byte
        for mode in NORM_MODES:
            ds = synthetic_beats(40, seed=10)
            before = ds.labels.tobytes()
            stats = fit_normalizer(ds, mode)
            expected = normalize(ds.features.copy(), stats)
            assert normalize(ds.features, stats) is ds.features
            assert ds.features.tobytes() == expected.tobytes()
            assert ds.labels.tobytes() == before

    def test_per_sample_normalization(self):
        ds = synthetic_beats(40, seed=8)
        # the mean and std are ignored in per-sample mode
        stats = NormStats(mean=np.full(187, 9.0), std=np.full(187, 9.0), mode="per_sample",
                          fitted_on="x")
        normed = normalize(ds.features, stats)
        np.testing.assert_allclose(normed.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.std(axis=1), 1.0, atol=1e-6)

    def test_normalize_picks_the_transform_from_the_stats(self, synth_train):
        stats = fit_normalizer(synth_train)
        feats = synth_train.features[:20]
        np.testing.assert_array_equal(normalize(feats.copy(), stats),
                                      (feats - stats.mean) / stats.std)
        per_sample = NormStats(mean=stats.mean, std=stats.std, mode="per_sample",
                               fitted_on=stats.fitted_on)
        # no row of the corpus is constant, so no row's std is floored
        row_wise = ((feats - feats.mean(axis=1, keepdims=True))
                    / feats.std(axis=1, keepdims=True))
        np.testing.assert_array_equal(normalize(feats.copy(), per_sample), row_wise)

    @pytest.mark.parametrize("mode", NORM_MODES)
    def test_in_place_gives_the_same_bits(self, synth_train, mode):
        # rows normalized on their own get the bits they get among all rows
        stats = fit_normalizer(synth_train, mode)
        expected = normalize(synth_train.features.copy(), stats)
        feats = synth_train.features[:500].copy()
        out = normalize(feats, stats)
        assert out is feats
        assert feats.tobytes() == expected[:500].tobytes()

    def test_per_sample_constant_row_floored(self):
        row = np.full((1, 187), 2.5)
        out = normalize(row, NormStats(mean=np.zeros(187), std=np.ones(187),
                                       mode="per_sample", fitted_on="c"))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)


def largest_remainder_oracle(counts, n):
    """Exact-rational reimplementation of proportional allocation."""
    total = sum(counts)
    quotas = [Fraction(n * c, total) for c in counts]
    alloc = [int(q) for q in quotas]
    rem = [q - a for q, a in zip(quotas, alloc)]
    order = sorted(range(len(counts)), key=lambda c: (-rem[c], c))
    for c in order[: n - sum(alloc)]:
        alloc[c] += 1
    for c in range(len(counts)):
        if counts[c] > 0 and alloc[c] == 0:
            donor = max(range(len(counts)), key=lambda d: alloc[d])
            alloc[donor] -= 1
            alloc[c] += 1
    return alloc


class TestStratifiedSubset:
    def test_full_size_returns_everything(self, synth_train):
        sub = stratified_subset(synth_train, synth_train.n, seed=0)
        assert sub.n == synth_train.n
        np.testing.assert_array_equal(
            class_counts(sub), class_counts(synth_train)
        )

    def test_deterministic(self, synth_train):
        a = stratified_subset(synth_train, 500, seed=7)
        b = stratified_subset(synth_train, 500, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_proportions_within_one_sample(self, synth_train):
        n = 2000
        sub = stratified_subset(synth_train, n, seed=3)
        counts = class_counts(synth_train)
        got = class_counts(sub)
        assert got.sum() == n
        for c in range(5):
            exact = n * counts[c] / synth_train.n
            assert abs(got[c] - exact) <= 1.0, f"class {c}: {got[c]} vs {exact}"

    def test_matches_largest_remainder_oracle(self, synth_train):
        counts = class_counts(synth_train)
        for n in (100, 555, 2000, 4321):
            sub = stratified_subset(synth_train, n, seed=n)
            np.testing.assert_array_equal(
                class_counts(sub), largest_remainder_oracle(list(counts), n)
            )

    def test_real_split_proportion_arithmetic(self):
        # allocation for n=2000 over the real training-split class sizes
        counts = [72471, 2223, 5788, 641, 6431]
        alloc = largest_remainder_oracle(counts, 2000)
        assert sum(alloc) == 2000
        assert all(a >= 1 for a in alloc)
        fs = synthetic_beats(200, seed=0)  # smoke: generator emits all classes
        assert class_counts(fs).min() >= 0

    def test_every_present_class_represented(self):
        ds = synthetic_beats(3000, seed=5)
        sub = stratified_subset(ds, 12, seed=1)
        present = class_counts(ds) > 0
        got = class_counts(sub)
        assert np.all(got[present] >= 1)

    def test_out_of_range_rejected(self, synth_train):
        with pytest.raises(DataError):
            stratified_subset(synth_train, 3, seed=0)
        with pytest.raises(DataError):
            stratified_subset(synth_train, synth_train.n + 1, seed=0)

    def test_smallest_subset_is_one_row_per_present_class(self):
        ds = synthetic_beats(40, seed=8, labels=np.arange(40) % 2)
        sub = stratified_subset(ds, 2, seed=0)
        np.testing.assert_array_equal(np.sort(sub.labels), [0, 1])
        with pytest.raises(DataError, match=r"subset size must lie in \[2, 40\], got 1"):
            stratified_subset(ds, 1, seed=0)

    def test_split_is_disjoint_partition(self, synth_train):
        picked, rest = stratified_split(synth_train, 1000, seed=11)
        assert picked.n == 1000
        assert rest.n == synth_train.n - 1000
        combined = np.vstack([picked.features, rest.features])
        assert combined.shape == synth_train.features.shape
        # same multiset of rows: compare sorted views
        a = np.sort(combined.sum(axis=1))
        b = np.sort(synth_train.features.sum(axis=1))
        np.testing.assert_allclose(a, b)


class TestBatches:
    def test_batch_sizes(self):
        ds = synthetic_beats(100, seed=2)
        sizes = [len(labels) for _, labels in batches(ds, 32, seed=0)]
        assert sizes == [32, 32, 32, 4]

    def test_exact_label_cover_when_shuffled(self):
        ds = synthetic_beats(257, seed=4)
        emitted = np.concatenate([labels for _, labels in batches(ds, 32, seed=9)])
        np.testing.assert_array_equal(np.sort(emitted), np.sort(ds.labels))

    def test_shuffle_deterministic_per_seed(self):
        ds = synthetic_beats(100, seed=5)
        a, b, c = (np.vstack([features for features, _ in batches(ds, 16, seed=s)])
                   for s in (1, 1, 2))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_batch_size(self):
        ds = synthetic_beats(10, seed=6)
        with pytest.raises(DataError):
            list(batches(ds, 0, seed=0))

    def test_roundtrip_load_then_batches(self, tmp_path):
        ds = synthetic_beats(40, seed=7)
        path = tmp_path / "rt.csv"
        write_beats_csv(path, ds)
        loaded = load_csv(str(path))
        # the rows come in the order of the seed's permutation
        rebuilt = np.vstack([features for features, _ in batches(loaded, 7, seed=3)])
        order = np.random.default_rng(3).permutation(loaded.n)
        np.testing.assert_array_equal(rebuilt, loaded.features[order])
