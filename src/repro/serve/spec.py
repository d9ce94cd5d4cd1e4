"""Job specifications for the multi-tenant DNS service.

A :class:`JobSpec` is the complete, serializable description of one DNS
run (grid, scheme, steps, comm backend, out-of-core engine, copy strategy,
uneven heights / skew / DLB, fuzz profile) plus the *service* dimensions
the scheduler consumes: which tenant submitted it and at what priority.
It is the only job description in the repo: every field is declared once,
with its type, vocabulary, range rule, flag spelling and help text, and
``repro dns``, ``repro serve submit`` (:func:`add_spec_flags` /
:func:`spec_from_args`), the HTTP body (:meth:`JobSpec.from_dict`) and
:meth:`JobSpec.validate` all read that one table.  Specs round-trip
through JSON byte-for-byte (``from_json(to_json(spec)) == spec``), which
is what makes the job store durable and the HTTP API thin.

Validation is deliberately the same set of rules the solver constructors
enforce (partition divisibility, scheme / pipeline / dlb vocabularies), so
a spec that validates here either runs or is rejected *at admission* with
a priced, reasoned quote — never with a traceback mid-run.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence

__all__ = [
    "DNS_DEFAULTS",
    "JobSpec",
    "RUN_FIELDS",
    "add_spec_flags",
    "in_flags",
    "parse_heights",
    "slugify",
    "spec_from_args",
]

#: What ``repro dns`` runs when a flag is not given, where that differs from
#: the :class:`JobSpec` declaration the service doors use.
DNS_DEFAULTS = {
    "n": 32,
    "steps": 20,
    "ic": "random",
    "fft_backend": "auto",
    "copy_strategy": "auto",
    "fuzz_profile": "chaos",
}

_TYPE_MUST = {int: "must be an int", float: "must be a number",
              str: "must be a string"}


def slugify(name: str) -> str:
    """A filesystem-safe slug of a job name (``"TG 24^3!" -> "tg-24-3"``)."""
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return slug[:40] or "job"


def parse_heights(text: str) -> tuple:
    """``"10,6,8"`` -> ``(10, 6, 8)``; raises ValueError on non-integers."""
    try:
        return tuple(int(h) for h in text.split(",") if h.strip() != "")
    except ValueError:
        raise ValueError(
            f"--heights must be a comma-separated list of integers, "
            f"got {text!r}"
        ) from None


def _fuzz_profiles() -> tuple:
    # Imported on use: repro.verify imports repro.serve (scheduler fuzz).
    from repro.verify.fuzz import PROFILES

    return tuple(PROFILES)


def _f(default, type_, help_, *, choices=None, ok=None, must=None,
       flag=None, metavar=None, service=False, answer=None):
    """One row of the job-description table.

    ``type``/``choices``/``ok``+``must`` drive :meth:`JobSpec.validate`;
    ``type``/``choices``/``help``/``flag``/``metavar`` drive
    :func:`add_spec_flags`.  ``choices`` may be a callable returning the
    vocabulary (resolved on use).  ``answer`` says whether changing the
    row may change the run's answer — ``"never"`` (it reorders execution
    only: the state stays bit-identical), ``"roundoff"`` (it may
    reassociate floating point) or ``"physics"`` — and drives the
    engine-invariance property (:mod:`repro.verify.invariance`); service
    rows have none.
    """
    meta = {"type": type_, "help": help_, "choices": choices, "ok": ok,
            "must": must or _TYPE_MUST.get(type_), "flag": flag,
            "metavar": metavar, "service": service, "answer": answer}
    return field(default=default, metadata=meta)


def _positive(v) -> bool:
    # Finite too: an infinite dt or nu steps to NaN.  The comparison, not
    # math.isfinite, so an int too large for a float stays an int.
    return 0 < v < math.inf


@dataclass(frozen=True)
class JobSpec:
    """One DNS job: physics + engine + service parameters.

    The field declarations below are the repo's single job description:
    each carries its type, vocabulary, range rule, flag spelling, help
    text and whether it may change the answer, from which
    :meth:`validate`, ``repro dns``, ``repro serve submit`` and the
    engine-invariance property are all derived.

    Attributes
    ----------
    name, tenant, priority:
        Service identity.  ``priority`` feeds the weighted fair-share
        scheduler (weight ``2**priority``); higher priorities receive a
        proportionally larger share of the virtual timeline, they do
        **not** preempt.
    n, steps, dt, nu, scheme, ic, ic_seed, diagnostics_every:
        The physics problem: grid size, step count, time step (``None``
        means the solver default ``0.25 * dx``), viscosity, RK scheme,
        initial condition (``taylor-green`` or seeded ``random``).
    ranks, comm, npencils, pipeline, inflight, copy_strategy:
        Engine placement: ``ranks=None`` runs the serial solver;
        otherwise the slab-distributed solver over the chosen comm
        backend, through the out-of-core engine's Fig. 4 pipeline with
        ``npencils`` pencils per slab (unset: one) and a strided-copy
        strategy.  Over ``procs`` without ``npencils`` the transforms are
        fused into the workers instead, with no DLB or fuzzing; with
        ``npencils`` the out-of-core engine and its exchanges run in the
        driver, and the workers stay idle.
    heights, skew, dlb:
        Uneven decomposition and DLB lanes (PR 9); ``heights`` and
        ``skew`` are mutually exclusive.
    fuzz_seed, fuzz_profile:
        Optional adversarial execution (PR 4) — results must stay
        bit-identical, so a service job may run fuzzed for free.
    """

    name: str = _f(
        "job", str, "job name", service=True,
        ok=bool, must="must be a non-empty string")
    tenant: str = _f(
        "default", str, "submitting tenant", service=True,
        ok=bool, must="must be a non-empty string")
    priority: int = _f(
        0, int, "fair-share priority; weight doubles per step", service=True,
        ok=lambda v: -8 <= v <= 8, must="must be an int in [-8, 8]")
    n: int = _f(
        24, int, "grid size N (N^3 points)",
        ok=lambda v: v >= 4 and v % 2 == 0, must="must be an even int >= 4",
        answer="physics")
    steps: int = _f(
        2, int, "time steps to run",
        ok=_positive, must="must be a positive int", answer="physics")
    dt: Optional[float] = _f(
        None, float, "fixed time step (unset: 0.25*dx)",
        ok=_positive, must="must be a finite positive number (or null)",
        answer="physics")
    nu: float = _f(
        0.02, float, "kinematic viscosity",
        ok=_positive, must="must be a finite positive number",
        answer="physics")
    scheme: str = _f(
        "rk2", str, "Runge-Kutta scheme", choices=("rk2", "rk4"),
        answer="physics")
    ic: str = _f(
        "taylor-green", str, "initial condition",
        choices=("taylor-green", "random"), answer="physics")
    ic_seed: int = _f(
        0, int, "seed of the random initial condition",
        ok=lambda v: v >= 0, must="must be an int >= 0", answer="physics")
    diagnostics_every: int = _f(
        1, int, "compute energy/dissipation every K steps (0: never)",
        ok=lambda v: v >= 0, must="must be an int >= 0", answer="physics")
    fft_backend: str = _f(
        "numpy", str,
        "transform backend (auto: $REPRO_FFT_BACKEND or numpy)",
        choices=("auto", "numpy", "scipy"), answer="roundoff")
    ranks: Optional[int] = _f(
        None, int,
        "run the slab-distributed solver over this many ranks instead of "
        "the serial one",
        ok=_positive, must="must be a positive int", answer="roundoff")
    comm: str = _f(
        "virtual", str,
        "with --ranks: communicator backend — in-process virtual ranks "
        "(bit-exact reference) or one worker process per rank over shared "
        "memory (the worker-fused transforms, with --npencils unset)",
        choices=("virtual", "procs"), answer="never")
    npencils: Optional[int] = _f(
        None, int,
        "with --ranks: pencils per slab for the out-of-core engine "
        "(unset: the whole slab, one pencil; over procs the worker-fused "
        "transforms).  Set over procs, the engine and its exchanges run in "
        "the driver and the workers stay idle",
        ok=_positive, must="must be a positive int", answer="never")
    pipeline: str = _f(
        "sync", str,
        "out-of-core execution backend: inline reference or worker-thread "
        "streams with Fig. 4 overlap",
        choices=("sync", "threads"), answer="never")
    inflight: int = _f(
        3, int, "bounded in-flight pencil window (threads pipeline)",
        ok=_positive, must="must be an int >= 1", answer="never")
    copy_strategy: str = _f(
        "memcpy2d", str,
        "with --ranks: host<->device strided-copy strategy (Sec. 4.2 / "
        "Fig. 7); auto probes all three on the first pencil of each layout",
        choices=("auto", "per_chunk", "memcpy2d", "zero_copy"),
        answer="never")
    heights: Optional[tuple[int, ...]] = _f(
        None, tuple,
        "with --ranks: explicit per-rank slab heights (uneven "
        "decomposition; must sum to N)",
        metavar="H0,H1,...", answer="never")
    skew: Optional[float] = _f(
        None, float,
        "with --ranks: give rank 0 ~X times the fair slab share "
        "(deterministic uneven partition)",
        ok=lambda v: 1.0 <= v < math.inf, must="must be a finite number >= 1.0",
        metavar="X", answer="never")
    dlb: str = _f(
        "off", str,
        "with --ranks: each rank computes on its own lane; off keeps every "
        "pencil on its owner's lane, lend adds DLB lend/reclaim of "
        "unstarted pencils (bit-identical results either way)",
        choices=("off", "lend"), answer="never")
    fuzz_seed: Optional[int] = _f(
        None, int,
        "with --ranks: run under the fuzzing backend with this "
        "seed (adversarial delays/faults; the result must be bit-identical "
        "regardless)",
        flag="--fuzz", metavar="SEED", answer="never")
    fuzz_profile: str = _f(
        "calm", str, "fuzz profile name for --fuzz", choices=_fuzz_profiles,
        answer="never")

    def __post_init__(self):
        if self.heights is not None:
            object.__setattr__(self, "heights", tuple(int(h) for h in self.heights))

    # -- service currency ---------------------------------------------------

    @property
    def weight(self) -> float:
        """Fair-share weight: ``2**priority`` (priority 0 -> 1.0)."""
        return 2.0 ** self.priority

    @property
    def substeps(self) -> int:
        """RK substages per step (the virtual-cost multiplier)."""
        return 2 if self.scheme == "rk2" else 4

    # -- validation ---------------------------------------------------------

    def validate(self) -> "JobSpec":
        """Raise :class:`ValueError` with every problem found, or return self.

        Per-field type, vocabulary and range checks come from the field
        table; only the rules relating two fields are written out here.
        """
        problems: list[str] = []
        bad: set[str] = set()
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if value is None and f.default is None:
                continue
            choices = _choices(meta)
            if choices is not None:
                ok, must = value in choices, f"not in {choices}"
            else:
                ok = _is_a(value, meta["type"]) and (
                    meta["ok"] is None or meta["ok"](value))
                must = meta["must"]
            if not ok:
                problems.append(f"{f.name}={value!r} {must}")
                bad.add(f.name)
        if self.npencils is not None and not bad & {"npencils", "n"}:
            if self.ranks is None:
                problems.append("npencils requires ranks (the distributed engine)")
            elif self.n % self.npencils != 0:
                problems.append(
                    f"npencils={self.npencils} must divide N={self.n}"
                )
        if self.heights is not None and self.skew is not None:
            problems.append("pass either heights or skew, not both")
        if (self.heights is not None or self.skew is not None) and self.ranks is None:
            problems.append("heights/skew require ranks")
        # Over procs an unset npencils is the worker-fused engine, which
        # has no lanes to lend or fuzz; every other distributed run does.
        fused = self.comm == "procs" and self.npencils is None
        if self.dlb != "off" and (self.ranks is None or fused):
            problems.append("dlb lanes require ranks, and npencils when comm "
                            "is procs (the pencil engine)")
        if self.fuzz_seed is not None and (self.ranks is None or fused):
            problems.append("fuzz_seed requires ranks, and npencils when comm "
                            "is procs (the pencil engine)")
        if problems:
            raise ValueError("; ".join(problems))
        return self

    # -- JSON round-trip ----------------------------------------------------

    def to_dict(self) -> dict:
        doc = asdict(self)
        if doc["heights"] is not None:
            doc["heights"] = list(doc["heights"])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown JobSpec field(s): {sorted(unknown)}")
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("JobSpec JSON must be an object")
        return cls.from_dict(doc)

    def with_(self, **changes) -> "JobSpec":
        """A copy with fields replaced (frozen-dataclass helper)."""
        return replace(self, **changes)


# -- the table's other readers ------------------------------------------------

#: Every field but the ones only a queue has a use for (name, tenant,
#: priority): what ``repro dns`` takes.
RUN_FIELDS = tuple(f.name for f in fields(JobSpec)
                   if not f.metadata["service"])


def _choices(meta) -> Optional[tuple]:
    choices = meta["choices"]
    return choices() if callable(choices) else choices


def _is_a(value, type_) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if type_ is float else type_)


def _flag(f) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def add_spec_flags(parser, defaults: Optional[dict] = None,
                   names: Optional[Sequence[str]] = None) -> None:
    """Add the generated flag of each :class:`JobSpec` field in ``names``
    (default: all of them) to ``parser``.

    ``defaults`` are the command's overrides of the declared defaults.
    """
    defaults = defaults or {}
    for f in fields(JobSpec):
        if names is not None and f.name not in names:
            continue
        meta = f.metadata
        default = defaults.get(f.name, f.default)
        # Vocabularies are checked by JobSpec.validate, as ranges are, so a
        # bad value is the door's one ``error:`` line, not argparse's usage.
        choices = _choices(meta)
        parser.add_argument(
            _flag(f), dest=f.name, default=default,
            # heights stay text until spec_from_args, so a door can answer
            # a malformed list with its own reasoned message
            type=str if meta["type"] is tuple else meta["type"],
            metavar=meta["metavar"] or (
                None if choices is None else "{%s}" % ",".join(choices)),
            help=meta["help"] + ("" if default is None
                                 else f" (default: {default})"),
        )


def spec_from_args(args) -> JobSpec:
    """The :class:`JobSpec` a parsed :func:`add_spec_flags` namespace names."""
    given = {f.name: getattr(args, f.name) for f in fields(JobSpec)
             if hasattr(args, f.name)}
    if given.get("heights") is not None:
        given["heights"] = parse_heights(given["heights"])
    return JobSpec(**given)


def in_flags(message: str) -> str:
    """A :meth:`JobSpec.validate` message with fields spelled as CLI flags."""
    flags = {f.name: _flag(f) for f in fields(JobSpec)}
    return re.sub(r"(?<!-)\b(%s)\b" % "|".join(flags),
                  lambda m: flags[m.group(1)], message)
