"""Every configuration entry point validates its inputs the same way."""

from __future__ import annotations

import pytest

from repro.api import ModelSpec
from repro.core.warplda import WarpLDA, WarpLDAConfig
from repro.streaming.online import OnlineTrainerConfig
from repro.training.parallel import TrainerConfig


class TestValidationConsistency:
    """Satellite: every entry point raises the same hyperparameter errors."""

    ENTRY_POINTS = (
        lambda **kw: WarpLDAConfig(**kw),
        lambda **kw: TrainerConfig(**kw),
        lambda **kw: OnlineTrainerConfig(**kw),
    )

    @pytest.mark.parametrize("make", ENTRY_POINTS)
    def test_zero_topics_rejected_everywhere(self, make):
        with pytest.raises(ValueError, match="num_topics must be positive"):
            make(num_topics=0)

    @pytest.mark.parametrize("make", ENTRY_POINTS)
    def test_negative_beta_rejected_everywhere(self, make):
        with pytest.raises(ValueError, match="beta must be positive"):
            make(num_topics=5, beta=-0.01)

    @pytest.mark.parametrize("make", ENTRY_POINTS)
    def test_negative_alpha_rejected_everywhere(self, make):
        with pytest.raises(ValueError, match="alpha"):
            make(num_topics=5, alpha=-1.0)

    @pytest.mark.parametrize("make", ENTRY_POINTS + (ModelSpec,))
    def test_jit_kernel_rejected_everywhere(self, make):
        # The compiled "jit" tier is gone; an old spec naming it fails validation
        # instead of silently running another kernel.
        with pytest.raises(ValueError, match="kernel must be 'slab' or 'scalar'"):
            make(num_topics=5, kernel="jit")

    def test_samplers_reject_directly(self, small_corpus):
        from repro.samplers.cgs import CollapsedGibbsSampler

        for build in (
            lambda: CollapsedGibbsSampler(small_corpus, num_topics=0),
            lambda: WarpLDA(small_corpus, num_topics=0),
            lambda: ModelSpec(num_topics=0),
        ):
            with pytest.raises(ValueError, match="num_topics must be positive"):
                build()
        for build in (
            lambda: CollapsedGibbsSampler(small_corpus, num_topics=5, beta=-1.0),
            lambda: WarpLDA(small_corpus, num_topics=5, beta=-1.0),
            lambda: ModelSpec(num_topics=5, beta=-1.0),
        ):
            with pytest.raises(ValueError, match="beta must be positive"):
                build()
