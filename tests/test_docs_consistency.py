"""Documentation consistency: paths named in the docs must exist.

Keeps DESIGN.md's system inventory and per-experiment index, and the
README's example table, from silently rotting as the code moves.
"""

import os
import re


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _read(name: str) -> str:
    with open(os.path.join(ROOT, name)) as f:
        return f.read()


class TestDesignMd:
    def test_module_paths_exist(self):
        text = _read("DESIGN.md")
        # Paths like `repro/core/layout.py` inside backticks.
        paths = set(re.findall(r"`(repro/[\w/]+\.py)`", text))
        assert paths, "DESIGN.md inventory should name module paths"
        for p in paths:
            full = os.path.join(ROOT, "src", p)
            assert os.path.exists(full), f"DESIGN.md names missing module {p}"

    def test_bench_targets_exist(self):
        text = _read("DESIGN.md")
        benches = set(re.findall(r"`(benchmarks/[\w]+\.py)`", text))
        assert benches
        for b in benches:
            assert os.path.exists(os.path.join(ROOT, b)), f"missing {b}"

    def test_every_paper_figure_has_a_bench(self):
        """Figures 2 and 6-13 each map to a bench file."""
        have = set(os.listdir(os.path.join(ROOT, "benchmarks")))
        for fig in ("02", "06", "07", "08", "09", "10a", "10b", "11", "12", "13"):
            assert any(
                f.startswith(f"bench_fig{fig}") for f in have
            ), f"no bench for figure {fig}"


class TestReadme:
    def test_example_scripts_exist(self):
        text = _read("README.md")
        scripts = set(re.findall(r"`(\w+\.py)`", text))
        for s in scripts:
            assert os.path.exists(
                os.path.join(ROOT, "examples", s)
            ), f"README names missing example {s}"

    def test_docs_files_exist(self):
        for doc in (
            "architecture.md",
            "performance_model.md",
            "simulator_fidelity.md",
            "usage.md",
            "data_model.md",
            "api.md",
            "static_analysis.md",
            "index_lifecycle.md",
            "testing.md",
        ):
            assert os.path.exists(os.path.join(ROOT, "docs", doc))

    def test_top_level_files(self):
        for f in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                  "CONTRIBUTING.md", "pyproject.toml"):
            assert os.path.exists(os.path.join(ROOT, f))


class TestAdaptiveDocs:
    """The adaptive-probing surface must stay documented end to end."""

    def test_cli_flag_matches_engine_modes(self):
        """docs/usage.md documents --adaptive with the real mode names."""
        from repro.core.params import ADAPTIVE_MODES

        text = _read(os.path.join("docs", "usage.md"))
        assert "--adaptive" in text
        for mode in ADAPTIVE_MODES:
            assert f'"{mode}"' in text or f"`{mode}`" in text, (
                f"usage.md does not document adaptive mode {mode!r}"
            )

    def test_search_params_fields_documented(self):
        text = _read(os.path.join("docs", "usage.md"))
        for field in ("adaptive", "nprobe_min", "adaptive_gap"):
            assert field in text

    def test_performance_model_covers_bound_and_ledger(self):
        text = _read(os.path.join("docs", "performance_model.md"))
        for token in (
            "cluster_radii",
            "BOUND_SLACK",
            "ledger honesty",
            "bench_adaptive",
        ):
            assert token in text, f"performance_model.md missing {token!r}"

    def test_testing_md_covers_conformance_suite(self):
        text = _read(os.path.join("docs", "testing.md"))
        for token in (
            "Ledger honesty",
            "golden_adaptive.json",
            "test_adaptive.py",
        ):
            assert token in text, f"testing.md missing {token!r}"
        # The fixture the doc names must exist.
        assert os.path.exists(
            os.path.join(ROOT, "tests", "fixtures", "golden_adaptive.json")
        )

    def test_cli_parser_exposes_adaptive_choices(self):
        """The actual argparse surface agrees with ADAPTIVE_MODES."""
        from repro.cli import _build_parser
        from repro.core.params import ADAPTIVE_MODES

        parser = _build_parser()
        args = parser.parse_args(
            ["search", "--preset", "sift-like-20k", "--adaptive", "bound"]
        )
        assert args.adaptive == "bound"
        for mode in ADAPTIVE_MODES:
            parser.parse_args(
                ["search", "--preset", "sift-like-20k", "--adaptive", mode]
            )


class TestExperimentsMd:
    def test_every_figure_row_present(self):
        text = _read("EXPERIMENTS.md")
        for token in (
            "Fig. 2", "Fig. 6(a)", "Fig. 6(b)", "Fig. 7", "Fig. 8(a)",
            "Fig. 8(b)", "Fig. 9", "Fig. 10(a)", "Fig. 10(b)",
            "Fig. 11(a)", "Fig. 11(b)", "Fig. 12(a)", "Fig. 12(b)",
            "Fig. 13", "GPU comparison",
        ):
            assert token in text, f"EXPERIMENTS.md missing {token}"

    def test_deviations_documented(self):
        text = _read("EXPERIMENTS.md")
        for d in ("D1", "D2", "D3", "D4", "D5", "D6"):
            assert f"**{d}" in text


class TestConfigKnobDocs:
    def test_named_config_fields_exist(self):
        """Every ``SearchParams.<name>``, ``PimSystemConfig.<name>`` and
        ``EngineConfig.<name>`` written in README.md, DESIGN.md and
        docs/*.md must be a real field or attribute: a deleted knob may
        not live on in the docs."""
        import dataclasses

        from repro.core.config import EngineConfig
        from repro.core.params import SearchParams
        from repro.pim.config import PimSystemConfig

        classes = {
            cls.__name__: cls
            for cls in (SearchParams, PimSystemConfig, EngineConfig)
        }
        docs = ["README.md", "DESIGN.md"] + sorted(
            os.path.join("docs", name)
            for name in os.listdir(os.path.join(ROOT, "docs"))
            if name.endswith(".md")
        )
        stale = []
        for doc in docs:
            for owner, attr in re.findall(
                r"\b(SearchParams|PimSystemConfig|EngineConfig)\.(\w+)",
                _read(doc),
            ):
                cls = classes[owner]
                fields = {f.name for f in dataclasses.fields(cls)}
                if attr not in fields and not hasattr(cls, attr):
                    stale.append(f"{doc}: {owner}.{attr}")
        assert not stale, f"docs name knobs that do not exist: {stale}"
