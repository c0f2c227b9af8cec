"""Examples stay importable and their entry points exist.

Full example runs take up to a minute each; the suite checks that every
script compiles, imports cleanly, and exposes ``main`` — and executes the
two fastest end-to-end as canaries.
"""

import importlib.util
import pathlib
import py_compile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        names = {p.stem for p in SCRIPTS}
        assert {
            "quickstart",
            "slo_aware_serving",
            "budget_adaptation",
            "feature_selection_workload",
            "custom_server",
            "rack_capping",
        } <= names

    @pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
    def test_imports_and_has_main(self, path):
        module = load(path)
        assert callable(getattr(module, "main", None))

    def test_feature_selection_example_runs(self, capsys):
        module = load(EXAMPLES_DIR / "feature_selection_workload.py")
        module.main()
        out = capsys.readouterr().out
        assert "best subset" in out
        assert "ground-truth drivers recovered" in out

    def test_rack_capping_example_runs(self, capsys):
        module = load(EXAMPLES_DIR / "rack_capping.py")
        trace = module.main().trace
        assert "Curtailment: rack budget -> 2500 W" in capsys.readouterr().out
        # The last round tracks the curtailed budget ...
        assert trace["total_power_w"][-1] == pytest.approx(2500.0, abs=60.0)
        # ... and the lightly loaded srv2 reports the lowest demand.
        demands = [trace[f"demand_srv{i}"][-1] for i in range(3)]
        assert min(demands) == demands[2] < min(demands[:2])
