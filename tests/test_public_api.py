"""Guards on the public API surface and repository artifacts."""

import importlib
import json
import os
import pathlib
import py_compile
import subprocess
import sys
import textwrap

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_everything_in_all_exists(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.graph", "repro.hashing", "repro.generators", "repro.metrics",
            "repro.sequential", "repro.runtime", "repro.parallel",
            "repro.harness", "repro.cli", "repro.loadgen",
        ],
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_headline_entry_points_callable(self):
        assert callable(repro.detect_communities)
        assert callable(repro.parallel_louvain)
        assert callable(repro.sequential_louvain)
        assert callable(repro.modularity)


#: Modules that ``import repro`` and a detection run must not load: detection
#: calls none of them, and each costs cold-start time.
DEFERRED_MODULES = ("scipy", "repro.harness", "repro.service", "repro.bench",
                    "repro.loadgen")

IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    deferred = json.loads(sys.argv[1])

    def loaded():
        return [m for m in deferred if m in sys.modules]

    import repro
    after_import = loaded()
    graph = repro.graph.ring_of_cliques(6, 5)
    repro.detect_communities(graph, backend="vector", num_ranks=2)
    after_detect = loaded()
    resolved = [repro.harness.__name__, repro.service.__name__,
                repro.DetectionService.__name__]
    print(json.dumps([after_import, after_detect, resolved]))
""")


class TestImportWeight:
    def test_cold_path_defers_heavy_modules(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(DEFERRED_MODULES)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        after_import, after_detect, resolved = json.loads(proc.stdout)
        assert after_import == []
        assert after_detect == []
        assert resolved == ["repro.harness", "repro.service", "DetectionService"]


class TestRepositoryArtifacts:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_docs_present_and_substantial(self, doc):
        path = REPO_ROOT / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 2000, doc

    def test_all_examples_compile(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_all_benchmarks_compile(self):
        benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        assert len(benches) >= 13  # 10 paper artifacts + ablations/extensions
        for path in benches:
            py_compile.compile(str(path), doraise=True)

    def test_design_maps_every_figure(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for artifact in (
            "Table I", "Fig. 2", "Fig. 4", "Fig. 5", "Table III",
            "Fig. 6", "Fig. 7", "Fig. 8", "Table IV", "Fig. 9",
        ):
            assert artifact in design, artifact
