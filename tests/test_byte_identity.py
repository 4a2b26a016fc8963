"""Seeded runs stay byte-identical: the SHA-256 of every file that ``train``,
``eval`` and ``predict`` write, at ``tiny_config`` and at the default config,
against the digests committed in ``tests/digests.json``.

float64 rounding depends on numpy, its BLAS and the CPU features numpy
dispatches on, so the digests are keyed by a fingerprint of the three; on a
host with another fingerprint the test skips and names it. To record this
host's digests (after a change that moves bits on purpose), run from the
repository root::

    PYTHONPATH=src:. python tests/test_byte_identity.py

The same runs with numpy's OpenBLAS capped at one thread must give the same
digests, so the bits do not depend on how BLAS splits a product.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from beatformer.cli import main
from beatformer.model import ModelConfig, tiny_config
from beatformer.train import load_checkpoint

from conftest import synthetic_beats, write_beats_csv

DIGESTS = Path(__file__).with_name("digests.json")

# the model fields of tiny_config that differ from the defaults, as config lines
TINY_LINES = "".join(f"{key} = {value}\n" for key, value in (
    ("patch_len", 11), ("d_model", 8), ("d_head", 4), ("heads", 2),
    ("encoder_layers", 2), ("d_ff", 16), ("mlp_units", 16)))
CONFIGS = {"tiny": TINY_LINES, "default": ""}
MODELS = {"tiny": tiny_config(seed=7), "default": ModelConfig(seed=7)}

RUN_FILES = ("config.resolved", "checkpoint.bin", "history.csv",
             "report.txt", "report.csv", "confusion.csv")
EVAL_FILES = ("report.txt", "report.csv", "confusion.csv")


def host_fingerprint() -> dict:
    """numpy's version, its BLAS name and version (read as ``bench/run.py``
    reads them) and the CPU features numpy found and uses."""
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "blas": blas,
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def run_digests(config: str, workdir: Path) -> dict:
    """Train, eval and predict in ``workdir`` with relative paths, so that
    ``config.resolved`` and the checkpoint name no host path; return each
    written file's SHA-256."""
    workdir.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        write_beats_csv("train.csv", synthetic_beats(320, seed=11, proportions=[0.2] * 5))
        write_beats_csv("test.csv", synthetic_beats(160, seed=12, proportions=[0.2] * 5))
        Path("run.cfg").write_text(CONFIGS[config] + "data_train = train.csv\n",
                                   encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--config", "run.cfg", "--seed", "7", "--epochs", "2",
                         "--out", "run"]) == 0
            assert main(["eval", "run/checkpoint.bin", "--data-test", "test.csv",
                         "--out", "eval"]) == 0
            assert main(["predict", "run/checkpoint.bin", "test.csv", "--out", "pred"]) == 0
        assert load_checkpoint("run/checkpoint.bin").config == MODELS[config]
        paths = ([f"run/{name}" for name in RUN_FILES] + [f"eval/{name}" for name in EVAL_FILES]
                 + ["pred/predictions.csv"])
        return {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}
    finally:
        os.chdir(previous)


def known_digests(fingerprint: dict):
    """The committed digests for ``fingerprint``, or None."""
    entries = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else []
    for entry in entries:
        if entry["fingerprint"] == fingerprint:
            return entry["digests"]
    return None


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_seeded_run_files_match_the_committed_digests(tmp_path, config):
    fingerprint = host_fingerprint()
    expected = known_digests(fingerprint)
    if expected is None:
        pytest.skip(f"no digests recorded for this host: {json.dumps(fingerprint)}")
    assert run_digests(config, tmp_path / config) == expected[config]


# the run-time thread setter and getter of the OpenBLAS that numpy wheels bundle
SET_THREADS = "scipy_openblas_set_num_threads64_"
GET_THREADS = "scipy_openblas_get_num_threads64_"


@contextlib.contextmanager
def blas_threads(n: int):
    """Cap numpy's bundled OpenBLAS at ``n`` threads for the block, then
    restore its count; skip, naming the symbol, where the library or the
    symbol is missing."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    lib = ctypes.CDLL(str(libs[0])) if libs else None
    if lib is None or not all(hasattr(lib, name) for name in (SET_THREADS, GET_THREADS)):
        pytest.skip(f"numpy's BLAS does not export {SET_THREADS}")
    set_threads, get_threads = getattr(lib, SET_THREADS), getattr(lib, GET_THREADS)
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    before = get_threads()
    set_threads(n)
    try:
        assert get_threads() == n
        yield
    finally:
        set_threads(before)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_seeded_run_files_match_the_committed_digests_at_one_blas_thread(tmp_path, config):
    fingerprint = host_fingerprint()
    expected = known_digests(fingerprint)
    if expected is None:
        pytest.skip(f"no digests recorded for this host: {json.dumps(fingerprint)}")
    with blas_threads(1):
        assert run_digests(config, tmp_path / config) == expected[config]


def write_digests(root: Path) -> None:
    """Record this host's digests in :data:`DIGESTS`, replacing its old entry."""
    fingerprint = host_fingerprint()
    digests = {config: run_digests(config, root / config) for config in sorted(CONFIGS)}
    entries = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else []
    entries = [e for e in entries if e["fingerprint"] != fingerprint]
    entries.append({"fingerprint": fingerprint, "digests": digests})
    DIGESTS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        write_digests(Path(root))
