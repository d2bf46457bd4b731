"""Tests for the shared experiment settings."""

import pytest

from repro.arch.area import AreaModel
from repro.arch.platform import CLOUD, EDGE
from repro.experiments.settings import (
    DEFAULT_MODELS,
    FIG5_OPTIMIZERS,
    FIXED_HW_STYLES,
    ExperimentSettings,
    make_fixed_hardware,
)
from repro.optim.registry import get_optimizer
from repro.workloads.registry import available_models


class TestConstants:
    def test_default_models_are_the_papers_seven(self):
        assert len(DEFAULT_MODELS) == 7
        assert set(DEFAULT_MODELS) == set(available_models())

    def test_fig5_optimizer_names_resolve(self):
        assert len(FIG5_OPTIMIZERS) == 9
        for name in FIG5_OPTIMIZERS:
            assert get_optimizer(name) is not None

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(sampling_budget=0)
        with pytest.raises(ValueError):
            ExperimentSettings(workers=0)

    def test_reliability_knob_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(retries=-1)
        with pytest.raises(ValueError):
            ExperimentSettings(retry_backoff=-0.1)
        with pytest.raises(ValueError):
            ExperimentSettings(job_timeout=0)
        with pytest.raises(ValueError):
            ExperimentSettings(durability="eventually")

    def test_reliability_knobs_default_to_production_safety(self):
        settings = ExperimentSettings()
        assert settings.retries == 0
        assert settings.job_timeout is None
        assert settings.durability == "flush"
        assert settings.fault_plan is None
        # The reliability knobs are runner concerns: they must not leak
        # into the framework construction kwargs.
        assert "retries" not in settings.framework_options()
        assert "fault_plan" not in settings.framework_options()

    def test_engine_knobs_default_and_forward(self):
        settings = ExperimentSettings()
        assert settings.use_cache is True
        assert settings.workers is None
        assert settings.framework_options() == {
            "use_cache": True,
            "workers": None,
            "cache_dir": None,
        }
        tuned = ExperimentSettings(use_cache=False, workers=2, cache_dir="/tmp/l2")
        assert tuned.framework_options() == {
            "use_cache": False,
            "workers": 2,
            "cache_dir": "/tmp/l2",
        }


class TestMakeFixedHardware:
    def test_styles_cover_the_compute_memory_spectrum(self):
        assert FIXED_HW_STYLES["Buffer-focused"] < FIXED_HW_STYLES["Medium-Buf-Com"]
        assert FIXED_HW_STYLES["Medium-Buf-Com"] < FIXED_HW_STYLES["Compute-focused"]

    @pytest.mark.parametrize("platform", [EDGE, CLOUD])
    @pytest.mark.parametrize("fraction", list(FIXED_HW_STYLES.values()))
    def test_fixed_hw_fits_the_area_budget(self, platform, fraction):
        hardware = make_fixed_hardware(platform, fraction)
        area = AreaModel().total_area(hardware)
        assert area <= platform.area_budget_um2 * 1.02
        assert hardware.num_pes >= 1
        assert hardware.l1_size >= 1
        assert hardware.l2_size >= 1

    def test_compute_focused_has_more_pes_than_buffer_focused(self):
        compute = make_fixed_hardware(EDGE, FIXED_HW_STYLES["Compute-focused"])
        buffer = make_fixed_hardware(EDGE, FIXED_HW_STYLES["Buffer-focused"])
        assert compute.num_pes > buffer.num_pes
        assert compute.l2_size < buffer.l2_size

    def test_cloud_hw_is_bigger_than_edge_hw(self):
        edge_hw = make_fixed_hardware(EDGE, 0.5)
        cloud_hw = make_fixed_hardware(CLOUD, 0.5)
        assert cloud_hw.num_pes > edge_hw.num_pes
        assert cloud_hw.l2_size > edge_hw.l2_size

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            make_fixed_hardware(EDGE, 0.0)
        with pytest.raises(ValueError):
            make_fixed_hardware(EDGE, 1.0)
        with pytest.raises(ValueError):
            make_fixed_hardware(EDGE, 0.5, l1_fraction=1.5)
