"""The compiled WarpLDA chain tier (``repro.kernels.native`` + ``_warp.c``).

The tier is on exactly when a C compiler is found, and it must be
invisible in the results: every run below is made twice — once with the
compiled library and once with :func:`repro.kernels.native.library`
monkeypatched to ``None`` (the NumPy slab body) — and the snapshot bytes,
the MH acceptance counters and the fallback's diagnostics are pinned.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.warplda import WarpLDA
from repro.kernels import native
from repro.kernels.buckets import corpus_buckets
from repro.kernels.warp import document_phase, word_phase

pytestmark = pytest.mark.skipif(
    shutil.which(native.compiler()[0]) is None, reason="no C compiler on PATH"
)

SRC = Path(__file__).resolve().parents[1] / "src"

BRANCHES = {
    "mixture": {},
    "alias": {"word_proposal": "alias"},
    "asymmetric_alpha": {"alpha": np.linspace(0.05, 0.5, 5)},
    "external_counts": {},
}


@pytest.fixture(scope="module", autouse=True)
def private_cache(tmp_path_factory):
    """Build into a fresh cache dir: no dependence on a writable home."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        native._load.cache_clear()
        yield
    native._load.cache_clear()


@pytest.fixture
def fresh_loader():
    """Forget the memoised library before and after the test."""
    native._load.cache_clear()
    yield
    native._load.cache_clear()


def _fallback(monkeypatch):
    monkeypatch.setattr(native, "library", lambda: None)


def _model(corpus, branch, threads):
    model = WarpLDA(
        corpus, num_topics=5, seed=3, threads=threads, **BRANCHES[branch]
    )
    if branch == "external_counts":
        external = np.random.default_rng(1).integers(
            0, 4, size=(corpus.vocabulary_size, 5)
        )
        model.set_external_counts(external, external.sum(axis=0))
    return model


def _snapshot_bytes(corpus, branch, threads, path):
    model = _model(corpus, branch, threads).fit(3)
    return model.export_snapshot().save(path).read_bytes()


class TestByteIdentity:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_snapshot_bytes_match_fallback(
        self, small_corpus, branch, threads, tmp_path, monkeypatch
    ):
        assert native.library() is not None, native.status()
        compiled = _snapshot_bytes(small_corpus, branch, threads, tmp_path / "c.npz")
        _fallback(monkeypatch)
        slab = _snapshot_bytes(small_corpus, branch, threads, tmp_path / "s.npz")
        assert compiled == slab

    def test_chain_stats_match_fallback(self, small_corpus, monkeypatch):
        def stats():
            model = _model(small_corpus, "asymmetric_alpha", 2)
            word = {"proposed": 0, "accepted": 0}
            doc = {"proposed": 0, "accepted": 0}
            for _ in range(3):
                word_phase(
                    model.assignments, model.proposals,
                    corpus_buckets(small_corpus, "word"),
                    model._stale_topic_counts(), model.num_topics,
                    model.num_mh_steps, model.beta, model.beta_sum, model.rng,
                    chain_stats=word, threads=2,
                )
                document_phase(
                    model.assignments, model.proposals,
                    corpus_buckets(small_corpus, "doc"),
                    model._stale_topic_counts(), model.alpha, model.alpha_sum,
                    model.num_topics, model.num_mh_steps, model.beta_sum,
                    model.rng, alpha_alias=model._alpha_alias,
                    chain_stats=doc, threads=2,
                )
            return word, doc, model.assignments.copy()

        assert native.library() is not None, native.status()
        compiled = stats()
        _fallback(monkeypatch)
        slab = stats()
        assert compiled[:2] == slab[:2]
        assert compiled[0]["accepted"] > 0
        np.testing.assert_array_equal(compiled[2], slab[2])


    def test_many_concurrent_chunks_match_fallback(self, small_corpus, monkeypatch):
        # Tiny chunks and more threads than cores, with a short switch
        # interval, so compiled chunk calls genuinely overlap.
        def run(threads):
            model = _model(small_corpus, "asymmetric_alpha", threads)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for _ in range(3):
                    word_phase(
                        model.assignments, model.proposals,
                        corpus_buckets(small_corpus, "word"),
                        model._stale_topic_counts(), model.num_topics,
                        model.num_mh_steps, model.beta, model.beta_sum,
                        model.rng, threads=threads, max_cells=16,
                    )
                    document_phase(
                        model.assignments, model.proposals,
                        corpus_buckets(small_corpus, "doc"),
                        model._stale_topic_counts(), model.alpha,
                        model.alpha_sum, model.num_topics, model.num_mh_steps,
                        model.beta_sum, model.rng,
                        alpha_alias=model._alpha_alias, threads=threads,
                        max_cells=16,
                    )
            finally:
                sys.setswitchinterval(interval)
            return model.assignments.copy(), model.proposals.copy()

        assert native.library() is not None, native.status()
        compiled = run(8)
        _fallback(monkeypatch)
        slab = run(1)
        np.testing.assert_array_equal(compiled[0], slab[0])
        np.testing.assert_array_equal(compiled[1], slab[1])


class TestFallback:
    def test_missing_compiler_falls_back(
        self, small_corpus, tmp_path, monkeypatch, fresh_loader
    ):
        expected = _snapshot_bytes(small_corpus, "mixture", 2, tmp_path / "c.npz")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "compiler", lambda: ["repro-no-such-cc"])
        native._load.cache_clear()
        assert native.library() is None
        assert "no C compiler" in native.status()
        assert "repro-no-such-cc" in native.status()
        got = _snapshot_bytes(small_corpus, "mixture", 2, tmp_path / "s.npz")
        assert got == expected

    def test_compile_error_is_reported(self, tmp_path, monkeypatch, fresh_loader):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "compiler", lambda: ["false"])
        assert native.library() is None
        assert native.status().startswith("off: compile failed")
        assert list((tmp_path / "repro").iterdir()) == []

    def test_shared_cache_dir_is_refused(self, tmp_path, monkeypatch, fresh_loader):
        shared = tmp_path / "repro"
        shared.mkdir()
        shared.chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.library() is None
        assert "writable by another user" in native.status()
        assert list(shared.iterdir()) == []

    def test_cache_dir_is_private(self, tmp_path, monkeypatch, fresh_loader):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.library() is not None, native.status()
        assert (tmp_path / "repro").stat().st_mode & 0o777 == 0o700


def test_concurrent_cold_cache_loads(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
    code = "from repro.kernels import native; print(native.status())"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert out.startswith("loaded "), out
    built = sorted(p.name for p in (tmp_path / "repro").iterdir())
    assert len(built) == 1 and built[0].startswith("warp-"), built


def test_out_of_range_topic_is_an_error(small_corpus):
    assert native.library() is not None, native.status()
    model = WarpLDA(small_corpus, num_topics=5, seed=3)
    model.proposals[0, 0] = 7
    with pytest.raises(ValueError, match="outside"):
        model.fit(1)
