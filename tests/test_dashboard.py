"""Tests for the HTML dashboard generator."""

import json
import re

import pytest

from repro.dashboard import dashboard_html, write_dashboard
from repro.obs.metrics import MetricsSnapshot
from tests import goldens


@pytest.fixture(scope="module")
def results():
    return list(goldens.results())


class TestDashboardHtml:
    def test_is_self_contained_html(self, results):
        page = dashboard_html(results)
        assert page.startswith("<!DOCTYPE html>")
        assert "<script src=" not in page  # no external resources
        assert "http://" not in page and "https://" not in page

    def test_embeds_experiment_data(self, results):
        page = dashboard_html(results)
        assert "tab1" in page
        assert "fig17" in page
        assert "MI250" in page

    def test_embedded_json_parses(self, results):
        page = dashboard_html(results)
        match = re.search(r"const DATA = (\{.*?\});\n", page, re.DOTALL)
        assert match, "DATA blob not found"
        data = json.loads(match.group(1))
        assert set(data) == {"tab1", "fig17"}
        assert data["fig17"]["records"]

    def test_claims_carried_with_paper_values(self, results):
        page = dashboard_html(results)
        match = re.search(r"const DATA = (\{.*?\});\n", page, re.DOTALL)
        data = json.loads(match.group(1))
        claims = data["fig17"]["claims"]
        assert any(c["paper"] is not None for c in claims)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no results"):
            dashboard_html([])


class TestWriteDashboard:
    def test_writes_file(self, results, tmp_path):
        path = write_dashboard(results, tmp_path / "dash.html")
        assert path.exists()
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")


class TestProfileSection:
    @pytest.fixture()
    def profile(self):
        return goldens.profile()

    def test_profile_section_renders(self, profile):
        from repro.dashboard import profile_section_html

        fragment = profile_section_html(profile)
        assert "Cost attribution profile" in fragment
        assert "MFU" in fragment and "MBU" in fragment
        assert "prefill" in fragment and "decode" in fragment
        assert "Most expensive requests" in fragment
        assert "class='bar'" in fragment

    def test_dashboard_embeds_profile(self, results, profile, tmp_path):
        path = write_dashboard(
            results, tmp_path / "dash.html", profile=profile
        )
        text = path.read_text(encoding="utf-8")
        assert "Cost attribution profile" in text

    def test_empty_profile_section_is_safe(self):
        from repro.dashboard import profile_section_html

        fragment = profile_section_html(goldens.empty_profile())
        assert "Cost attribution profile" in fragment
        assert "nan" not in fragment.replace("dominant", "")


class TestExperimentSections:
    @pytest.fixture(scope="class")
    def replications(self):
        return goldens.replications()

    def test_replication_section_renders(self, replications):
        from repro.dashboard import replication_section_html

        report, _ = replications
        fragment = replication_section_html(report)
        assert "ttft_p50_s" in fragment
        assert "dash-a" in fragment

    def test_comparison_section_renders(self, replications):
        from repro.dashboard import comparison_section_html

        _, comparison = replications
        fragment = comparison_section_html(comparison)
        assert "ttft_p50_s" in fragment
        assert "dash-a" in fragment and "dash-b" in fragment

    def test_dashboard_embeds_sections(self, results, replications, tmp_path):
        report, comparison = replications
        path = write_dashboard(
            results, tmp_path / "dash.html",
            replication=report, comparison=comparison,
        )
        text = path.read_text(encoding="utf-8")
        assert "ttft_p50_s" in text
        assert "dash-a" in text


class TestDegenerateSections:
    """Every section builder must survive its emptiest legal input.

    Empty snapshots, NaN-only metrics, single-seed comparisons (NaN
    p-values), zero-config optimizer reports and sample-free telemetry
    hubs all occur in real short runs; none may crash the dashboard or
    leak a bare ``nan`` into the rendered HTML.
    """

    CASES = [
        pytest.param("metrics_section_html", MetricsSnapshot, id="metrics"),
        pytest.param("cluster_section_html", goldens.tiny_cluster, id="cluster"),
        pytest.param(
            "profile_section_html", goldens.empty_profile, id="profile"
        ),
        pytest.param(
            "replication_section_html", goldens.nan_replication,
            id="replication",
        ),
        pytest.param(
            "comparison_section_html", goldens.single_seed_comparison,
            id="comparison",
        ),
        pytest.param("scenarios_section_html", list, id="scenarios"),
        pytest.param(
            "telemetry_section_html", goldens.empty_telemetry, id="telemetry"
        ),
        pytest.param(
            "optimize_section_html", goldens.empty_optimization, id="optimize"
        ),
    ]

    @pytest.mark.parametrize("builder_name,make_input", CASES)
    def test_renders_without_nan(self, builder_name, make_input):
        import repro.dashboard.html as dash

        builder = getattr(dash, builder_name)
        fragment = builder(make_input())
        assert isinstance(fragment, str) and "<h2>" in fragment
        # Word-bounded so "tenants"/"dominant" don't false-positive;
        # a leaked float NaN renders as the standalone token "nan".
        assert not re.search(r"\bnan\b", fragment)


class TestGoldenHtml:
    def test_write_dashboard_matches_committed_html(self, tmp_path):
        path = write_dashboard(
            list(goldens.results()), tmp_path / "dash.html",
            **goldens.all_sections(),
        )
        expected = goldens.DATA_DIR / "dashboard" / "page-all-sections.html"
        assert path.read_bytes() == expected.read_bytes()
