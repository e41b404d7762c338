"""The golden diff tool (tools/goldens.py) on a 3-run corpus, two runs with
--set flags and one with a config file: the tree against itself matches,
and a tree that reports another version differs in every run."""
import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("goldens", ROOT / "tools" / "goldens.py")
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)

CORPUS = goldens.corpus()
RUNS = CORPUS[:2] + [next(run for run in CORPUS if run[2] is not None)]


def test_tree_against_itself_matches():
    assert [argv[0] for _, argv, _ in RUNS] == ["source", "source", "twoqubit"]
    assert "--config" in RUNS[2][1]
    assert goldens.compare(ROOT / "src", ROOT / "src", RUNS) == []


def test_a_changed_tree_differs_in_every_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    init = tmp_path / "src" / "entangler" / "__init__.py"
    text = init.read_text()
    assert text.count('__version__ = "') == 1
    init.write_text(text.replace('__version__ = "', '__version__ = "0+changed.'))
    diffs = goldens.compare(ROOT / "src", tmp_path / "src", RUNS)
    assert [name for name, _, _ in diffs] == [name for name, _, _ in RUNS]
    report = goldens.report(diffs, len(RUNS))
    assert report.startswith("0 of 3 runs identical, 3 differ\n\n[source]\n")
    assert "\n[twoqubit]\n  twoqubit config file: " in report
