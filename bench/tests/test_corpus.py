import importlib.util
import os

import numpy as np
import pytest

from corpus import (
    N_FEATURES,
    REAL_TEST_COUNTS,
    proportions,
    synthetic_beats,
    write_csv,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_same_seed_same_beats_and_other_seed_other_beats():
    a = synthetic_beats(50, seed=[3, 1])
    b = synthetic_beats(50, seed=[3, 1])
    c = synthetic_beats(50, seed=[4, 1])
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_shape_tail_and_test_split_proportions():
    features, labels = synthetic_beats(20000, seed=1, class_proportions=proportions(REAL_TEST_COUNTS))
    assert features.shape == (20000, N_FEATURES)
    assert (features >= 0).all()
    # zero-padded tails of random onset between sample 130 and the end
    assert (features[:, -1] == 0).mean() > 0.95
    assert (features[:, 129] == 0).mean() < 0.05
    share = np.bincount(labels, minlength=5) / labels.size
    assert np.allclose(share, proportions(REAL_TEST_COUNTS), atol=0.01)


def test_explicit_labels_are_kept():
    labels = np.arange(16) % 5
    _, out = synthetic_beats(16, seed=2, labels=labels)
    assert np.array_equal(out, labels)


def test_csv_round_trips_through_the_program_loader(tmp_path):
    from beatformer.data import load_csv, load_features

    features, labels = synthetic_beats(12, seed=7)
    write_csv(str(tmp_path / "l.csv"), features, labels)
    write_csv(str(tmp_path / "u.csv"), features)
    ds = load_csv(str(tmp_path / "l.csv"))
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.features, features, atol=5e-7)
    unlabelled, none = load_features(str(tmp_path / "u.csv"))
    assert none is None and np.array_equal(unlabelled, ds.features)


def test_matches_the_test_suite_fixture():
    path = os.path.join(REPO, "tests", "conftest.py")
    if not os.path.exists(path):
        pytest.skip("the test suite's conftest is not in this checkout")
    spec = importlib.util.spec_from_file_location("suite_conftest", path)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    ds = suite.synthetic_beats(300, seed=1234)
    features, labels = synthetic_beats(300, seed=1234)
    assert np.array_equal(ds.features, features) and np.array_equal(ds.labels, labels)
