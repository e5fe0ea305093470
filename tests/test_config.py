"""Tests for SliceLineConfig and PruningConfig validation."""

import pytest

from repro.core import PruningConfig, SliceLineConfig
from repro.exceptions import ConfigError


class TestSliceLineConfig:
    def test_defaults_match_paper(self):
        cfg = SliceLineConfig()
        assert cfg.k == 4
        assert cfg.alpha == 0.95
        assert cfg.sigma is None
        assert cfg.max_level is None

    @pytest.mark.parametrize("field,value", [
        ("k", 0),
        ("sigma", 0),
        ("alpha", 0.0),
        ("alpha", 1.5),
        ("max_level", 0),
        ("priority_chunk", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SliceLineConfig(**{field: value})

    def test_alpha_one_allowed(self):
        assert SliceLineConfig(alpha=1.0).alpha == 1.0

    def test_resolve_sigma_default_rule(self):
        cfg = SliceLineConfig()
        # max(32, ceil(n/100))
        assert cfg.resolve_sigma(1000) == 32
        assert cfg.resolve_sigma(10_000) == 100
        assert cfg.resolve_sigma(10_001) == 101

    def test_resolve_sigma_explicit(self):
        assert SliceLineConfig(sigma=7).resolve_sigma(10**6) == 7

    def test_resolve_max_level(self):
        assert SliceLineConfig().resolve_max_level(14) == 14
        assert SliceLineConfig(max_level=3).resolve_max_level(14) == 3
        assert SliceLineConfig(max_level=30).resolve_max_level(14) == 14

    def test_with_overrides(self):
        cfg = SliceLineConfig().with_overrides(k=9, alpha=0.5)
        assert cfg.k == 9 and cfg.alpha == 0.5


class TestPruningConfig:
    def test_all_enabled_default(self):
        cfg = PruningConfig()
        assert cfg.by_size and cfg.by_score
        assert cfg.handle_missing_parents and cfg.deduplicate

    def test_parent_handling_requires_dedup(self):
        with pytest.raises(ConfigError):
            PruningConfig(deduplicate=False)

    def test_none_config(self):
        cfg = PruningConfig.none()
        assert not any([
            cfg.by_size, cfg.by_score, cfg.handle_missing_parents,
            cfg.deduplicate, cfg.filter_input_slices,
        ])

    def test_ablation_arms_shape(self):
        arms = PruningConfig.ablation_arms()
        assert set(arms) == {
            "all", "no-parents", "no-parents-no-score",
            "no-parents-no-score-no-size", "none",
        }
        assert arms["all"].handle_missing_parents
        assert not arms["no-parents"].handle_missing_parents
        assert arms["no-parents"].by_score
        assert not arms["no-parents-no-score"].by_score
        assert not arms["no-parents-no-score-no-size"].by_size
        assert not arms["none"].deduplicate
