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

The fourth applies the same rule to modules: nine of them (1.1k lines) were
imported by nothing but their own tests.  A module under ``src/repro/`` stays
only if another source file, ``bench/``, an example, the CLI's experiment
table or a CI step consumes it.  The fifth keeps the prose honest: every
``repro.x.y`` name and ``pkg/file.py`` path the three documents mention exists.

The sixth keeps the benchmark runnable: ``bench/trace.py`` rebinds entry
points of ``src/`` by name, this suite cannot edit ``bench/``, and a renamed
attribute would crash every traced run — so it must fail here first.

The seventh ties the ``fft_backend`` vocabulary of the job description to
the transform providers that exist: a name the spec accepts but no
provider serves would parse and then fail only at run time.

The eighth keeps the distributed engines' concurrency in one place: a rank's
work runs on its lanes of a ``repro.exec`` backend, which the sync, fuzz and
replay backends can serialise, perturb and record.  A thread pool or a bare
thread under ``src/repro/dist/`` would escape all three.

The ninth keeps the engine-invariance property whole: every run row of the
job description says whether it may change the answer, and each row that
may not (or only at round-off) is one the property's tier-1 pairs differ
in.  A new row cannot skip its class, nor join a class and go untested.

The tenth guards the knobs of the solvers, the engine, its device and the
process pool: ten constructor arguments that no door, workload or module
ever set (a second convective form, retry budgets, a shared workspace, a
caller's buffer pool, ...) each carried a branch that only tests ran.  A
defaulted parameter stays only if some call under ``src/`` or ``bench/``
passes it, or the allowlist names why it may not.
"""

import ast
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
REPO = ROOT.parent
SRC = REPO / "src"

#: Modules nothing consumes that stay anyway, each with the reason.
ORPHANS_ALLOWED = {
    "repro.experiments.calibration": "ROADMAP item 10 decides",
}

#: Guarded constructors: ``module:Class``, and the calls that reach each
#: (its own name, plus forwarding factories with the positional arguments
#: they consume before forwarding).
KNOB_CONSTRUCTORS = {
    "repro.spectral.solver:NavierStokesSolver": {},
    "repro.spectral.solver:SolverConfig": {},
    "repro.dist.dist_solver:DistributedNavierStokesSolver": {},
    "repro.dist.outofcore:OutOfCoreSlabFFT": {},
    "repro.cuda.arena:DeviceArena": {},
    "repro.cuda.arena:PencilRings": {},
    "repro.mpi.procs:ProcsComm": {"make_comm": 1},
}

#: Defaulted constructor parameters no call under src/ or bench/ passes
#: that stay anyway, each with the reason.
KNOBS_ALLOWED = {
    "ProcsComm.start_method": "deployment setting ($REPRO_PROCS_START)",
    "ProcsComm.heartbeat_interval": "deployment setting: telemetry period",
    "ProcsComm.stall_timeout": "deployment timeout ($REPRO_PROCS_STALL)",
    "OutOfCoreSlabFFT.backend": "the schedule explorer's injection seam; "
                                "it reaches the engine through run(**kw)",
}


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
    steps = (REPO / ".github" / "workflows" / "ci.yml").read_text().split("- name:")
    for name in sorted(p.name for p in REPO.glob("BENCH_*.json")):
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
    for path in sorted((REPO / "examples").glob("*.py")):
        spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
        modules[path.stem] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[path.stem])  # __main__-guarded: no run
    assert len(modules) >= 6
    modules["scalar_mixing"].main(16, 5)
    assert "var(Sc=4)" in capsys.readouterr().out


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.AST):
    """``(module, name | None)`` for every import in a file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "the repo imports by absolute name"
            for alias in node.names:
                yield node.module, alias.name


def test_every_module_is_consumed_by_something_other_than_its_tests():
    files = {_module_name(p): p for p in SRC.rglob("*.py")}
    trees = {m: ast.parse(p.read_text()) for m, p in files.items()}
    packages = {m for m, p in files.items() if p.name == "__init__.py"}
    modules = {m for m, p in files.items()
               if p.name not in ("__init__.py", "__main__.py")}
    reexports = {
        pkg: {name: base for base, name in _imports(trees[pkg])
              if name is not None}
        for pkg in packages
    }

    def resolve(base, name):
        """The module an ``import base`` / ``from base import name`` reads."""
        if name is None or base not in packages:
            return base
        if f"{base}.{name}" in files:
            return f"{base}.{name}"
        origin = reexports[base].get(name, base)
        return resolve(origin, name) if origin != base else base

    readers = list(trees.items())
    readers += [(None, ast.parse(p.read_text()))
                for d in ("bench", "examples") for p in (REPO / d).rglob("*.py")]
    consumed = set()
    for own, tree in readers:
        is_init = own in packages
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for base, name in _imports(tree):
            if is_init and name is not None and name not in used:
                continue  # a bare re-export consumes nothing
            target = resolve(base, name)
            if target != own:
                consumed.add(target)
    # `_cmd_report` imports repro.experiments.<command> by string.
    consumed |= {f"repro.experiments.{n.value}"
                 for n in ast.walk(trees["repro.cli"])
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    consumed |= set(re.findall(r"python -m (repro(?:\.\w+)+)", ci))

    orphans = modules - consumed
    unexpected = sorted(orphans - set(ORPHANS_ALLOWED))
    assert not unexpected, (
        f"{unexpected} are imported only by their own tests: wire each into "
        f"a door, an experiment or another module, or delete it with its tests"
    )
    stale = sorted(set(ORPHANS_ALLOWED) - orphans)
    assert not stale, f"{stale} are consumed now: drop them from the allowlist"


def test_every_name_and_path_the_docs_mention_exists():
    dangling = []
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = (REPO / doc).read_text()
        for name in set(re.findall(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+", text)):
            try:
                pkgutil.resolve_name(name)
            except (ImportError, AttributeError):
                dangling.append(f"{doc}: {name}")
        for path in set(re.findall(r"`((?:[\w.-]+/)+[\w.-]+\.py)\b", text)):
            if not any((base / path).exists()
                       for base in (REPO, SRC, SRC / "repro")):
                dangling.append(f"{doc}: {path}")
    assert not dangling, f"the docs name what does not exist: {sorted(dangling)}"


def test_every_entry_point_the_benchmark_rebinds_exists():
    """Each ``(module, class, attribute)`` row of ``bench/trace.py::LAYERS``
    resolves against ``src/`` the way ``Tracer.install`` resolves it."""
    spec = importlib.util.spec_from_file_location(
        "bench_trace", REPO / "bench" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    rows = [row for layer in trace.LAYERS.values() for row in layer]
    assert len(rows) > 30
    missing = []
    for module, cls, attr, *_ in rows:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []


def test_dist_runs_no_threads_of_its_own():
    """No ``concurrent.futures`` import and no ``threading.Thread`` under
    ``src/repro/dist/`` (a ``threading.Lock`` guards state, and may stay)."""
    found = []
    for path in sorted((SRC / "repro" / "dist").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for base, name in _imports(tree):
            if base.split(".")[0] == "concurrent" or (
                    base == "threading" and name == "Thread"):
                found.append(f"{path.name}: imports {base}.{name or ''}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "Thread"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "threading"):
                found.append(f"{path.name}:{node.lineno}: threading.Thread")
    assert found == [], "run rank work on repro.exec lanes instead"


def test_fft_backend_vocabulary_is_the_provider_registry():
    from dataclasses import fields

    from repro.serve.spec import JobSpec
    from repro.spectral.workspace import FFT_PROVIDERS, resolve_fft

    meta = next(f.metadata for f in fields(JobSpec) if f.name == "fft_backend")
    assert set(meta["choices"]) == {"auto", *FFT_PROVIDERS}
    for name in FFT_PROVIDERS:
        assert resolve_fft(name).name == name


def test_every_run_row_declares_whether_it_may_change_the_answer():
    from dataclasses import fields

    from repro.serve.spec import JobSpec
    from repro.verify.invariance import draw_pair
    from tests.verify.test_invariance import TIER1_SEEDS

    rows = {f.name: f.metadata["answer"] for f in fields(JobSpec)
            if not f.metadata["service"]}
    assert not [name for name, answer in rows.items()
                if answer not in ("never", "roundoff", "physics")]
    varied = set().union(*(draw_pair(seed).differs() for seed in TIER1_SEEDS))
    assert not [name for name, answer in rows.items()
                if answer != "physics" and name not in varied]


def test_every_constructor_knob_is_set_by_some_caller():
    """Every defaulted parameter of the :data:`KNOB_CONSTRUCTORS` is passed,
    by keyword or by position, in some call under ``src/`` or ``bench/``
    (``**kwargs`` passes nothing that can be read), or is allowlisted."""
    import inspect

    classes = {}
    for target, factories in KNOB_CONSTRUCTORS.items():
        module, name = target.split(":")
        cls = getattr(importlib.import_module(module), name)
        params = [p for p in inspect.signature(cls).parameters.values()
                  if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
        for callee, skip in {name: 0, **factories}.items():
            classes[callee] = (name, params, skip)
    passed = {name: set() for name, _, _ in classes.values()}
    for path in [*SRC.rglob("*.py"), *(REPO / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            if callee not in classes:
                continue
            name, params, skip = classes[callee]
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            passed[name] |= {p.name for p in params[:max(len(positional) - skip, 0)]}
            passed[name] |= {k.arg for k in node.keywords if k.arg is not None}
    unset = sorted(
        f"{name}.{p.name}" for name, params, _ in classes.values()
        for p in params if p.default is not p.empty and p.name not in passed[name])
    unexpected = sorted(set(unset) - set(KNOBS_ALLOWED))
    assert not unexpected, (
        f"{unexpected} are never set outside the tests: make each a constant, "
        f"or wire it to a door"
    )
    stale = sorted(set(KNOBS_ALLOWED) - set(unset))
    assert not stale, f"{stale} are set now: drop them from the allowlist"
