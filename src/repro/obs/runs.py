"""Run registry: one manifest + artifact directory per invocation.

Fig. 10-style analysis is only possible when every run leaves artifacts
behind — and ROADMAP item 1's multi-tenant service needs per-job
provenance (what code, what config, what machine) as its admission-time
cost history.  This module gives every ``dns`` / ``verify`` / ``tune`` /
``plan --quote`` invocation a durable identity:

* a **run id** (``dns-20260807-153002-1a2b``) correlating events, flight
  dumps, traces, and metrics;
* a **run directory** ``.repro/runs/<run_id>/`` holding the artifacts
  (``manifest.json``, ``events.jsonl``, flight dumps, metric JSONL, chrome
  traces);
* a **manifest** recording git sha, repro version, python/platform,
  ``cores_available``, the invocation's config and seeds, artifact paths,
  and final status — written at start (status ``running``) and rewritten
  at every mutation, so a crashed run still has a manifest saying what it
  was and that it never finished.

The registry root defaults to ``.repro/runs`` under the working directory;
``$REPRO_RUNS_DIR`` overrides it (CI points this at an upload directory).
``repro obs report`` renders the registry; ``repro obs tail`` follows the
latest run's event stream; ``repro obs diff`` compares two runs' metrics.

:func:`write_bench_json` lives here beside :func:`run_provenance`, so the
bench-shaped artifacts carry the same stamp a manifest does.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

__all__ = [
    "ManifestError",
    "RunHandle",
    "RunManifest",
    "RunRegistry",
    "default_runs_root",
    "git_sha",
    "run_provenance",
    "validate_manifest",
    "write_bench_json",
]

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"


class ManifestError(ValueError):
    """A manifest that exists but cannot be trusted.

    Distinct from FileNotFoundError (no run) so callers can report
    *corruption* — ``repro obs`` exits 2 on it, vs 1 for "no runs yet".
    """


# Field name -> (required, accepted types).  The schema is deliberately a
# flat table, not a validator framework: the registry reads its own writes,
# so the only realistic failures are truncated/hand-edited JSON — exactly
# what a type check over required fields catches.
_MANIFEST_SCHEMA: dict = {
    "run_id": (True, str),
    "kind": (True, str),
    "status": (True, str),
    "created_unix": (True, (int, float)),
    "created_iso": (False, str),
    "finished_unix": (False, (int, float, type(None))),
    "error": (False, (str, type(None))),
    "argv": (False, list),
    "config": (False, dict),
    "seeds": (False, list),
    "artifacts": (False, dict),
    "provenance": (False, dict),
}


def validate_manifest(doc, source: str = "manifest") -> dict:
    """Check a parsed manifest document against the schema.

    Returns ``doc`` on success; raises :class:`ManifestError` naming every
    problem at once (missing required fields, wrong types, non-object
    root) so a corrupted manifest produces one actionable message.
    """
    if not isinstance(doc, dict):
        raise ManifestError(
            f"{source}: manifest root must be a JSON object, "
            f"got {type(doc).__name__}"
        )
    problems = []
    for name, (required, types) in _MANIFEST_SCHEMA.items():
        if name not in doc:
            if required:
                problems.append(f"missing required field {name!r}")
            continue
        if not isinstance(doc[name], types):
            problems.append(
                f"field {name!r} has type {type(doc[name]).__name__}, "
                f"expected {types.__name__ if isinstance(types, type) else '/'.join(t.__name__ for t in types)}"
            )
    if problems:
        raise ManifestError(f"{source}: " + "; ".join(problems))
    return doc


def git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """The current git commit sha, or ``"unknown"`` outside a checkout.

    ``$REPRO_GIT_SHA`` short-circuits the subprocess (CI sets it; tests can
    pin it).
    """
    env = os.environ.get("REPRO_GIT_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_provenance() -> dict:
    """The shared provenance stamp: who/what/where produced an artifact.

    Used by both :class:`RunManifest` and :func:`write_bench_json`, so bench
    artifacts and run manifests answer "which commit, how many cores, when"
    the same way.
    """
    from repro import __version__

    return {
        "git_sha": git_sha(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cores_available": os.cpu_count(),
        "timestamp_unix": time.time(),
        "timestamp_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_bench_json(payload: dict, path: Union[str, Path]) -> str:
    """Write a bench-shaped payload (a ``results`` record list) as JSON.

    The one writer behind ``repro plan --sweep``, ``repro tune --json`` and
    ``python -m repro.benchkit.imbalance``: stamps :func:`run_provenance`
    unless the caller supplied a ``provenance`` key, sorts keys and ends
    with a newline, so every artifact ``repro obs diff`` reads can answer
    "which commit, on what machine?".  Returns ``path``.
    """
    if "provenance" not in payload:
        payload = {**payload, "provenance": run_provenance()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def default_runs_root() -> Path:
    """``$REPRO_RUNS_DIR`` or ``.repro/runs`` under the working directory."""
    env = os.environ.get("REPRO_RUNS_DIR")
    return Path(env) if env else Path(".repro") / "runs"


@dataclass
class RunManifest:
    """Everything needed to interpret (or re-run) one invocation."""

    run_id: str
    kind: str
    status: str = "running"
    created_unix: float = 0.0
    created_iso: str = ""
    finished_unix: Optional[float] = None
    error: Optional[str] = None
    argv: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in doc.items() if k in known})

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.finished_unix is None:
            return None
        return self.finished_unix - self.created_unix


class RunHandle:
    """One live run: its directory, manifest, and mutation helpers."""

    def __init__(self, directory: Path, manifest: RunManifest):
        self.dir = Path(directory)
        self.manifest = manifest

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    @property
    def manifest_path(self) -> Path:
        return self.dir / MANIFEST_NAME

    @property
    def events_path(self) -> Path:
        """Where this run's :class:`~repro.obs.events.EventLog` streams."""
        return self.dir / EVENTS_NAME

    def save(self) -> Path:
        """(Re)write the manifest; atomic via write-then-replace."""
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(self.manifest.to_dict(), indent=2, default=str) + "\n",
            encoding="utf-8",
        )
        tmp.replace(self.manifest_path)
        return self.manifest_path

    def add_artifact(self, name: str, path: Union[str, Path]) -> Path:
        """Record an artifact path in the manifest (relative when inside
        the run dir) and persist."""
        path = Path(path)
        try:
            rel = str(path.resolve().relative_to(self.dir.resolve()))
        except ValueError:
            rel = str(path)
        self.manifest.artifacts[name] = rel
        self.save()
        return path

    def artifact_path(self, name: str) -> Path:
        """Absolute path of a recorded artifact."""
        raw = Path(self.manifest.artifacts[name])
        return raw if raw.is_absolute() else self.dir / raw

    def finish(self, status: str = "ok", error: Optional[str] = None) -> None:
        self.manifest.status = status
        self.manifest.error = error
        self.manifest.finished_unix = time.time()
        self.save()


class RunRegistry:
    """The ``.repro/runs`` directory as an object.

    ``start`` is what the CLI calls on every invocation; ``runs`` /
    ``latest`` are what ``repro obs report`` / ``tail`` read back.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_runs_root()

    def start(
        self,
        kind: str,
        config: Optional[dict] = None,
        seeds: Sequence[int] = (),
        argv: Optional[Sequence[str]] = None,
        run_id: Optional[str] = None,
    ) -> RunHandle:
        """Create the run directory and write the initial manifest."""
        if run_id is None:
            stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
            run_id = f"{kind}-{stamp}-{uuid.uuid4().hex[:6]}"
        now = time.time()
        manifest = RunManifest(
            run_id=run_id,
            kind=kind,
            created_unix=now,
            created_iso=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
            argv=list(argv if argv is not None else sys.argv),
            config=dict(config or {}),
            seeds=[int(s) for s in seeds],
            provenance=run_provenance(),
        )
        handle = RunHandle(self.root / run_id, manifest)
        handle.dir.mkdir(parents=True, exist_ok=True)
        handle.save()
        return handle

    def run_dirs(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.is_dir() and (p / MANIFEST_NAME).is_file()
        )

    def scan(self) -> tuple[list[RunHandle], list[ManifestError]]:
        """Load every run, validating manifests against the schema.

        Returns ``(runs, errors)``: readable runs oldest first, plus one
        :class:`ManifestError` per corrupted manifest (unparseable JSON,
        missing required fields, wrong types).  ``repro obs`` surfaces the
        errors and exits 2; :meth:`runs` keeps the old skip-silently
        contract for callers that only want the good ones.
        """
        out: list[RunHandle] = []
        errors: list[ManifestError] = []
        for p in self.run_dirs():
            source = str(p / MANIFEST_NAME)
            try:
                doc = json.loads((p / MANIFEST_NAME).read_text(encoding="utf-8"))
            except OSError as exc:
                errors.append(ManifestError(f"{source}: unreadable ({exc})"))
                continue
            except ValueError as exc:
                errors.append(ManifestError(f"{source}: invalid JSON ({exc})"))
                continue
            try:
                validate_manifest(doc, source=source)
                out.append(RunHandle(p, RunManifest.from_dict(doc)))
            except ManifestError as exc:
                errors.append(exc)
            except TypeError as exc:
                errors.append(ManifestError(f"{source}: {exc}"))
        out.sort(key=lambda h: h.manifest.created_unix)
        return out, errors

    def runs(self) -> list[RunHandle]:
        """Every readable run, oldest first (unreadable manifests skipped)."""
        return self.scan()[0]

    def latest(self, kind: Optional[str] = None) -> Optional[RunHandle]:
        """The most recently created run (optionally of one kind)."""
        candidates = [
            h for h in self.runs()
            if kind is None or h.manifest.kind == kind
        ]
        return candidates[-1] if candidates else None

    def get(self, run_id: str) -> RunHandle:
        path = self.root / run_id / MANIFEST_NAME
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
        validate_manifest(doc, source=str(path))
        return RunHandle(self.root / run_id, RunManifest.from_dict(doc))
