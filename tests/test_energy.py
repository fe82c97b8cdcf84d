"""Tests for energy accounting."""

import pytest

from repro.core.metrics import InferenceMetrics
from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework
from repro.hardware.energy import EnergyReport, energy_report
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.estimator import InferenceEstimator
from repro.perf.phases import Deployment


def _metrics(model="LLaMA-3-8B", hw="A100", fw="vLLM"):
    dep = Deployment(get_model(model), get_hardware(hw), get_framework(fw))
    return InferenceEstimator(dep).estimate(GenerationConfig(1024, 1024, 16))


class TestEnergyReport:
    def test_energy_is_power_times_time(self):
        m = _metrics()
        report = energy_report(m)
        assert report.total_energy_j == pytest.approx(
            m.average_power_w * m.end_to_end_latency_s
        )

    def test_tokens_follow_eq2_numerator(self):
        report = energy_report(_metrics())
        assert report.tokens == 16 * 2048

    def test_derived_quantities_consistent(self):
        report = energy_report(_metrics())
        assert report.joules_per_token == pytest.approx(
            report.total_energy_j / report.tokens
        )
        assert report.tokens_per_joule == pytest.approx(
            1.0 / report.joules_per_token
        )

    def test_daily_projection(self):
        report = energy_report(_metrics())
        daily_kwh = report.scaled_to_requests(1_000_000)
        assert daily_kwh == pytest.approx(
            report.joules_per_request * 1e6 / 3.6e6
        )

    def test_rejects_oom_metrics(self):
        with pytest.raises(ValueError, match="OOM"):
            energy_report(InferenceMetrics.out_of_memory(1, 10, 10))

    def test_rejects_missing_power(self):
        m = InferenceMetrics(
            batch_size=1, input_tokens=10, output_tokens=10,
            ttft_s=0.1, end_to_end_latency_s=1.0,
        )
        with pytest.raises(ValueError, match="power"):
            energy_report(m)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyReport(-1.0, 10, 1, 100.0)
        with pytest.raises(ValueError):
            EnergyReport(1.0, 0, 1, 100.0)
        report = EnergyReport(100.0, 10, 2, 50.0)
        with pytest.raises(ValueError):
            report.scaled_to_requests(0)


class TestCrossPlatform:
    def test_h100_cheaper_tokens_than_a100(self):
        """Higher TDP but far higher throughput: fewer joules per token."""
        a100 = energy_report(_metrics(hw="A100"))
        h100 = energy_report(_metrics(hw="H100"))
        assert h100.joules_per_token < a100.joules_per_token

    def test_larger_batch_amortizes_energy(self):
        dep = Deployment(
            get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
        )
        est = InferenceEstimator(dep)
        small = energy_report(est.estimate(GenerationConfig(1024, 1024, 1)))
        large = energy_report(est.estimate(GenerationConfig(1024, 1024, 32)))
        assert large.joules_per_token < small.joules_per_token
