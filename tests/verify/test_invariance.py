"""Engine invariance as one generated property (paper Sec. 3.4).

Asynchrony, pencil count and placement reorder *execution*, never *data*.
Each seed draws one physics point and two engine configurations of it
(:func:`repro.verify.invariance.draw_pair`); both run through the runner's
construction path and must agree to the bits, or within the bound, that the
``JobSpec`` rows they differ in declare.  Tier-1 runs :data:`TIER1_SEEDS`,
``-m fuzz`` a wide range, and ``repro verify --seeds S`` replays seed ``S``.
"""

import os
from dataclasses import fields
from multiprocessing import get_all_start_methods

import numpy as np
import pytest

from repro.serve.spec import JobSpec, _choices
from repro.verify.invariance import draw_pair, run_pair

#: A fixed window; ``TestCoverage`` asserts it reaches every corner (move or
#: widen it if a generator change loses one).
TIER1_SEEDS = tuple(range(40, 80))
#: ``-m fuzz``: 200 more seeds, 50 per test to stay under CI's 120 s each.
WIDE_CHUNKS = tuple(range(1000, 1200, 50))


def _failures(outcomes) -> str:
    return "\n".join(o.describe() for o in outcomes if not o.ok)


def _whole_slab_procs(spec) -> bool:
    return (spec.ranks is not None and spec.comm == "procs"
            and spec.npencils is None)


class TestCoverage:
    """Drawing is cheap, so what the tier-1 seeds reach is asserted."""

    PAIRS = [draw_pair(seed) for seed in TIER1_SEEDS]

    def test_every_engine_value_is_drawn(self):
        """Every vocabulary value of every never/roundoff row; an optional
        row both unset and set; any other row more than one value."""
        specs = [s for p in self.PAIRS for s in (p.a, p.b)]
        for f in fields(JobSpec):
            if f.metadata["answer"] not in ("never", "roundoff"):
                continue
            drawn = {getattr(s, f.name) for s in specs
                     if f.name != "fuzz_profile" or s.fuzz_seed is not None}
            vocab = _choices(f.metadata)
            if vocab is not None:
                assert set(vocab) <= drawn, (f.name, set(vocab) - drawn)
            else:
                assert len(drawn) > 1, f.name
                assert f.default is not None or None in drawn, f.name

    def test_the_named_corners_are_drawn(self):
        sides = [(p, s) for p in self.PAIRS for s in (p.a, p.b)
                 if s.ranks is not None]
        corners = {
            "procs x npencils unset": any(
                _whole_slab_procs(s) for _, s in sides),
            "procs x >= 2 pencils": any(
                s.comm == "procs" and (s.npencils or 1) >= 2
                for _, s in sides),
            "rk4 x procs x pencils": any(
                s.scheme == "rk4" and s.comm == "procs" and s.npencils
                for _, s in sides),
            "scalar x lend": any(
                p.scalars and s.dlb == "lend" for p, s in sides),
            "zero_copy x uneven": any(
                s.copy_strategy == "zero_copy" and s.heights is not None
                and len(set(s.heights)) > 1 for _, s in sides),
            "no phase shift x scalar": any(
                not p.phase_shift and p.scalars for p in self.PAIRS),
            "a height-0 rank": any(
                s.heights is not None and 0 in s.heights for _, s in sides),
            "P = 1": any(s.ranks == 1 for _, s in sides),
            "serial vs distributed": any(
                p.b.ranks is None for p in self.PAIRS),
            "fuzz x procs": any(
                s.comm == "procs" and s.fuzz_seed is not None
                for _, s in sides),
        }
        assert not [name for name, hit in corners.items() if not hit]


class TestEngineInvariance:
    def test_tier1_pairs_agree(self):
        outcomes = [run_pair(draw_pair(seed)) for seed in TIER1_SEEDS]
        assert not _failures(outcomes), _failures(outcomes)
        # ...and the hooks engaged: faults were injected and recovered, and
        # some lend pair lent pencils.
        assert any(o.faults_injected and o.faults_recovered
                   for o in outcomes)
        assert any(o.comm_faults for o in outcomes)
        assert any(o.pencils_lent for o in outcomes)

    @pytest.mark.skipif(
        "fork" not in get_all_start_methods()
        or os.environ.get("REPRO_PROCS_START", "fork") != "fork",
        reason="the nudge reaches the workers only through fork")
    def test_a_one_ulp_nudge_in_the_workers_fails_and_names_its_seed(
            self, monkeypatch):
        """One ulp added to the worker-side RK combination, a path only a
        whole slab over procs takes, reaches the state: every tier-1 pair
        that compares such a side bit for bit with another engine fails."""
        from repro.mpi import procs

        real = procs._Worker.run

        def nudged(self, msg, resolve_fft, spans):
            result = real(self, msg, resolve_fft, spans)
            if msg["op"] == "call" and msg["fn"].__name__ == "combine_components":
                for out, _ in self.decode(msg["args"])[2]:
                    if out.size:
                        i = np.unravel_index(np.argmax(np.abs(out)), out.shape)
                        out[i] = complex(np.nextafter(out[i].real, np.inf),
                                         out[i].imag)
            return result

        monkeypatch.setattr(procs._Worker, "run", nudged)
        pairs = [p for p in map(draw_pair, TIER1_SEEDS)
                 if _whole_slab_procs(p.a) != _whole_slab_procs(p.b)
                 and "roundoff" not in p.differs().values()]
        assert pairs
        for outcome in map(run_pair, pairs):
            assert not outcome.ok, outcome.describe()
            assert outcome.describe().startswith(
                f"pair seed={outcome.pair.seed} ")
            assert "not bit-identical" in outcome.error


@pytest.mark.fuzz
@pytest.mark.parametrize("start", WIDE_CHUNKS)
def test_wide_pairs_agree(start):
    outcomes = [run_pair(draw_pair(seed)) for seed in range(start, start + 50)]
    assert not _failures(outcomes), _failures(outcomes)
