"""What the repo claims to check must actually be checked.

pytest's default ``norecursedirs`` contains ``dist``; for ten PRs that kept
``tests/dist/`` (the slab FFT, the transposes, the out-of-core engine) out of
tier-1 without anyone noticing.  ``pyproject.toml`` now sets the list, and
the first test fails if any ``tests/*/`` directory holding test files
contributes nothing to a whole-suite run.

The second does the same for committed measurements: three of five root
``BENCH_*.json`` files sat beside the gated two for ten PRs with no job
comparing them to anything.  A baseline nothing regenerates and diffs is a
number nobody can trust, so it may not be committed.

The third imports every ``examples/*.py``: no job ran them, so a public name
an example uses could be renamed or removed without anything failing.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent


def test_every_test_directory_is_collected(request):
    targets = {Path(str(arg).split("::")[0]).resolve() for arg in request.config.args}
    if not targets <= {ROOT, ROOT.parent}:
        pytest.skip("only meaningful when the whole suite is collected")
    collected = {
        Path(str(item.path)).relative_to(ROOT).parts[0]
        for item in request.session.items
    }
    suites = sorted(
        d.name for d in ROOT.iterdir()
        if d.is_dir() and any(d.glob("test_*.py"))
    )
    assert "dist" in suites
    assert [name for name in suites if name not in collected] == []


def test_every_committed_bench_file_is_regenerated_and_gated_by_ci():
    repo = ROOT.parent
    steps = (repo / ".github" / "workflows" / "ci.yml").read_text().split("- name:")
    for name in sorted(p.name for p in repo.glob("BENCH_*.json")):
        gates = [s for s in steps
                 if f"git show HEAD:{name}" in s and "repro obs diff" in s]
        writers = [s for s in steps
                   if name in s and "run:" in s and s not in gates]
        assert gates and writers, (
            f"{name}: ci.yml must regenerate it in one step and `repro obs "
            f"diff` it against `git show HEAD:{name}` in another, or the "
            f"file goes"
        )


def test_every_example_imports_and_the_scalar_one_runs(capsys):
    modules = {}
    for path in sorted((ROOT.parent / "examples").glob("*.py")):
        spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
        modules[path.stem] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[path.stem])  # __main__-guarded: no run
    assert len(modules) >= 6
    modules["scalar_mixing"].main(16, 5)
    assert "var(Sc=4)" in capsys.readouterr().out
