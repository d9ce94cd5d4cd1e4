"""Bare ``pytest`` must reach every suite under ``tests/``.

pytest's default ``norecursedirs`` contains ``dist``; for ten PRs that kept
``tests/dist/`` (the slab FFT, the transposes, the out-of-core engine) out of
tier-1 without anyone noticing.  ``pyproject.toml`` now sets the list, and
this test fails if any ``tests/*/`` directory holding test files contributes
nothing to a whole-suite run.
"""

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
