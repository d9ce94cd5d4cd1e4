"""JobSpec round-trip and validation tests (tier-1)."""

import pytest

from repro.serve import JobSpec
from repro.serve.spec import slugify


class TestRoundTrip:
    def test_json_round_trip_identity(self):
        spec = JobSpec(name="tg-demo", tenant="alice", priority=2, n=24,
                       steps=3, scheme="rk4", ranks=2, npencils=4,
                       pipeline="threads", inflight=2, skew=0.5,
                       dlb="lend", fuzz_seed=7, fuzz_profile="jittery")
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_heights_survive_as_tuple(self):
        spec = JobSpec(name="h", ranks=2, heights=[10, 14])
        again = JobSpec.from_json(spec.to_json())
        assert again.heights == (10, 14)
        assert again == spec

    def test_defaults_round_trip(self):
        spec = JobSpec()
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown JobSpec field"):
            JobSpec.from_dict({"name": "x", "gpu_count": 6})

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.from_json("[1, 2, 3]")

    def test_with_returns_modified_copy(self):
        spec = JobSpec(name="a")
        other = spec.with_(priority=3)
        assert other.priority == 3 and spec.priority == 0


class TestValidation:
    def test_valid_spec_returns_self(self):
        spec = JobSpec(name="ok", n=16, ranks=2, npencils=4)
        assert spec.validate() is spec

    def test_all_problems_reported_at_once(self):
        spec = JobSpec(name="", n=7, steps=0, scheme="euler", priority=99,
                       dlb="pinned")
        with pytest.raises(ValueError) as exc:
            spec.validate()
        message = str(exc.value)
        for fragment in ("name", "n=7", "steps=0", "scheme='euler'",
                         "priority=99", "dlb='pinned' not in ('off', 'lend')"):
            assert fragment in message

    def test_npencils_requires_ranks(self):
        with pytest.raises(ValueError, match="requires ranks"):
            JobSpec(name="x", npencils=4).validate()

    def test_npencils_must_divide_n(self):
        with pytest.raises(ValueError, match="must divide"):
            JobSpec(name="x", n=24, ranks=2, npencils=5).validate()

    def test_heights_and_skew_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            JobSpec(name="x", ranks=2, heights=(10, 14), skew=0.5).validate()

    def test_dlb_requires_npencils(self):
        """Over procs only: in process an unset npencils is one pencil."""
        with pytest.raises(ValueError, match="dlb lanes require"):
            JobSpec(name="x", ranks=2, comm="procs", dlb="lend").validate()
        with pytest.raises(ValueError, match="dlb lanes require ranks"):
            JobSpec(name="x", dlb="lend").validate()
        JobSpec(name="x", ranks=2, dlb="lend").validate()
        JobSpec(name="x", ranks=2, comm="procs", npencils=2,
                dlb="lend").validate()

    def test_fuzz_requires_npencils(self):
        with pytest.raises(ValueError, match="fuzz_seed requires"):
            JobSpec(name="x", ranks=2, comm="procs", fuzz_seed=1).validate()
        with pytest.raises(ValueError, match="fuzz_seed requires ranks"):
            JobSpec(name="x", fuzz_seed=1).validate()
        JobSpec(name="x", ranks=2, fuzz_seed=1).validate()

    @pytest.mark.parametrize("field, value", [
        ("nu", "0.02"), ("dt", "0.1"), ("inflight", "3"), ("steps", "2"),
        ("n", 16.0), ("n", True), ("ranks", "2"), ("nu", float("nan")),
        ("fft_backend", "cufft"), ("fft_backend", "fftw"),
        ("fuzz_profile", "tornado"),
        ("diagnostics_every", -1), ("ic_seed", -3), ("comm", None),
    ])
    def test_wrong_type_or_vocabulary_is_one_reasoned_message(self, field, value):
        with pytest.raises(ValueError, match=f"{field}="):
            JobSpec(name="x", **{field: value}).validate()

    def test_a_mistyped_field_does_not_hide_the_others(self):
        with pytest.raises(ValueError) as exc:
            JobSpec(name="x", n="16", ranks=2, npencils=4, nu=-1.0).validate()
        assert "n='16'" in str(exc.value) and "nu=-1.0" in str(exc.value)


class TestServiceCurrency:
    def test_weight_doubles_per_priority_step(self):
        assert JobSpec(priority=0).weight == 1.0
        assert JobSpec(priority=1).weight == 2.0
        assert JobSpec(priority=-1).weight == 0.5

    def test_substeps_by_scheme(self):
        assert JobSpec(scheme="rk2").substeps == 2
        assert JobSpec(scheme="rk4").substeps == 4

    def test_slugify(self):
        assert slugify("TG 24^3 demo!") == "tg-24-3-demo"
        assert slugify("***") == "job"
