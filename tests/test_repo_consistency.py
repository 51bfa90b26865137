"""Repository-consistency checks: docs, examples and registries agree."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


class TestDocsExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE", "CITATION.cff",
        "docs/MODEL.md", "docs/API.md",
    ])
    def test_file_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert path.stat().st_size > 200, name


class TestReadmeReferences:
    def test_examples_listed_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_all_examples_are_listed(self):
        readme = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, script.name

    def test_readme_mentions_paper_doi(self):
        assert "10.1109/HPCA.2019.00024" in (ROOT / "README.md").read_text()


class TestExperimentIndex:
    def test_design_lists_every_figure_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for fig in ["fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
                    "fig07", "fig09", "fig10", "fig11", "fig12", "fig13",
                    "fig14"]:
            assert fig in design, fig

    def test_benchmark_per_registered_figure(self):
        from repro.experiments.runner import EXPERIMENTS

        bench_sources = " ".join(
            path.read_text() for path in (ROOT / "benchmarks").glob("test_*.py")
        )
        for experiment_id, module in EXPERIMENTS.items():
            if experiment_id == "characterize":
                module_ref = "characterization"
            else:
                module_ref = module.rsplit(".", 1)[1]
            assert module_ref.split("_")[0] in bench_sources or \
                module_ref in bench_sources, experiment_id

    def test_experiments_md_covers_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for artifact in ["Figure 1", "Figure 2", "Figure 3", "Figure 6",
                         "Figure 7", "Figure 9", "Figure 10", "Figure 11",
                         "Figure 12", "Figure 13", "Figure 14",
                         "Table I", "Table II", "Table III"]:
            assert artifact in text, artifact


class TestExamplesHaveDocstrings:
    def test_every_example_documented(self):
        for script in (ROOT / "examples").glob("*.py"):
            text = script.read_text()
            assert text.lstrip().startswith(("#!", '"""')), script.name
            assert '"""' in text, script.name
            assert "Usage" in text, script.name


class TestReleaseVersion:
    def test_versions_agree_with_newest_release(self):
        import repro

        # tomllib is 3.11+; the [project] version line is all this needs.
        version = re.search(r'^version = "([^"]+)"',
                            (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
        assert version, "pyproject.toml has no [project] version"
        headings = re.findall(r"^## (\S+)", (ROOT / "CHANGELOG.md").read_text(),
                              re.MULTILINE)
        released = [h for h in headings if h != "Unreleased"]
        assert released, "CHANGELOG.md has no released version heading"
        assert version.group(1) == repro.__version__, (
            "pyproject.toml and repro.__version__ disagree"
        )
        assert repro.__version__ == released[0], (
            f"repro.__version__ {repro.__version__} is not the newest "
            f"CHANGELOG release {released[0]}"
        )
