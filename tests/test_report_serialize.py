"""Property tests: report serialization round-trips and digest stability.

Hypothesis builds randomized-but-valid ``WorkloadDebloatReport`` object
graphs (decisions with consistent retained/reason pairs, normalized
``RangeSet``s, metrics with NumPy used-function arrays) and asserts:

* ``from_payload(to_payload(r))`` reproduces ``r`` exactly, including
  ``RangeSet`` array equality and derived analyses like
  ``removal_reason_shares()``;
* the binary container (``dumps``/``loads``) is lossless too;
* :func:`~repro.core.serialize.stable_digest` is a *function* of the frozen
  identity - equal identities hash equal - and injective in practice: any
  perturbation of any key field or option changes the digest.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serialize
from repro.core.debloat import DebloatOptions
from repro.core.locate import ElementDecision, LocateResult, RemovalReason
from repro.core.report import (
    DebloatTiming,
    LibraryReduction,
    WorkloadDebloatReport,
)
from repro.core.verify import VerificationResult
from repro.experiments.common import PipelineCache
from repro.utils.intervals import RangeSet
from repro.workloads.metrics import RunMetrics
from repro.workloads.spec import TABLE1_WORKLOADS, workload_by_id

from tests.conftest import TEST_SCALE

# -- strategies -------------------------------------------------------------------

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_:0123456789", min_size=1, max_size=24
)
sizes = st.integers(min_value=0, max_value=1 << 40)
finite_floats = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def range_sets(draw) -> RangeSet:
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 30),
                st.integers(min_value=1, max_value=1 << 16),
            ),
            max_size=12,
        )
    )
    return RangeSet((start, start + length) for start, length in pairs)


@st.composite
def decisions(draw, index: int = 0) -> ElementDecision:
    retained = draw(st.booleans())
    return ElementDecision(
        index=index,
        sm_arch=draw(st.sampled_from((70, 75, 80, 86, 89, 90))),
        size=draw(st.integers(min_value=0, max_value=1 << 24)),
        kernel_count=draw(st.integers(min_value=0, max_value=200)),
        retained=retained,
        reason=None if retained else draw(st.sampled_from(RemovalReason)),
        used_entry_kernels=(
            tuple(draw(st.lists(names, max_size=3))) if retained else ()
        ),
    )


@st.composite
def locate_results(draw) -> LocateResult:
    n = draw(st.integers(min_value=0, max_value=6))
    return LocateResult(
        soname=draw(names),
        device_arch=draw(st.sampled_from((70, 75, 80, 90))),
        decisions=[draw(decisions(index=i)) for i in range(n)],
        retain_ranges=draw(range_sets()),
        remove_ranges=draw(range_sets()),
    )


@st.composite
def run_metrics(draw) -> RunMetrics:
    used_functions = {
        soname: np.asarray(sorted(set(idx)), dtype=np.int64)
        for soname, idx in draw(
            st.dictionaries(
                names,
                st.lists(st.integers(min_value=0, max_value=1 << 20)),
                max_size=4,
            )
        ).items()
    }
    return RunMetrics(
        workload_id=draw(names),
        execution_time_s=draw(finite_floats),
        peak_cpu_mem_bytes=draw(sizes),
        peak_gpu_mem_bytes=draw(sizes),
        output_digest=draw(names),
        used_kernels={
            soname: frozenset(kernels)
            for soname, kernels in draw(
                st.dictionaries(names, st.sets(names, max_size=4), max_size=4)
            ).items()
        },
        used_functions=used_functions,
        counters=draw(
            st.dictionaries(names, st.integers(min_value=0, max_value=1 << 40),
                            max_size=5)
        ),
    )


@st.composite
def library_reductions(draw) -> LibraryReduction:
    return LibraryReduction(
        soname=draw(names),
        **{
            f.name: draw(sizes)
            for f in dataclasses.fields(LibraryReduction)
            if f.name != "soname"
        },
    )


@st.composite
def verifications(draw) -> VerificationResult:
    ok = draw(st.booleans())
    return VerificationResult(
        ok=ok,
        original_digest=draw(names),
        debloated_digest=draw(st.none() | names),
        error=None if ok else draw(st.none() | names),
        debloated_metrics=draw(st.none() | run_metrics()),
    )


@st.composite
def reports(draw) -> WorkloadDebloatReport:
    locs = draw(st.lists(locate_results(), max_size=3))
    return WorkloadDebloatReport(
        workload_id=draw(names),
        device_arch=75,
        libraries=draw(st.lists(library_reductions(), max_size=4)),
        locate_results={res.soname: res for res in locs},
        timing=DebloatTiming(
            **{
                f.name: draw(finite_floats)
                for f in dataclasses.fields(DebloatTiming)
            }
        ),
        baseline=draw(run_metrics()),
        detection=draw(st.none() | run_metrics()),
        debloated_run=draw(st.none() | run_metrics()),
        verification=draw(st.none() | verifications()),
    )


# -- round-trip properties --------------------------------------------------------


class TestPayloadRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(report=reports())
    def test_payload_round_trip(self, report):
        back = serialize.from_payload(serialize.to_payload(report))
        assert serialize.reports_equal(report, back)
        # RangeSets round-trip to *equal arrays*, not just equal totals.
        for soname, res in report.locate_results.items():
            got = back.locate_results[soname]
            assert got.retain_ranges == res.retain_ranges
            assert got.remove_ranges == res.remove_ranges
            assert np.array_equal(
                got.retain_ranges.starts, res.retain_ranges.starts
            )
            assert np.array_equal(
                got.retain_ranges.stops, res.retain_ranges.stops
            )
        # Derived analyses survive the trip (enum identity included).
        assert back.removal_reason_shares() == report.removal_reason_shares()

    @settings(max_examples=60, deadline=None)
    @given(report=reports())
    def test_container_round_trip(self, report):
        back = serialize.loads(serialize.dumps(report))
        assert serialize.reports_equal(report, back)

    @settings(max_examples=30, deadline=None)
    @given(report=reports())
    def test_dumps_deterministic(self, report):
        assert serialize.dumps(report) == serialize.dumps(report)

    def test_pipeline_report_round_trip(self):
        """The real thing, not just the strategy's idea of a report."""
        cache = PipelineCache(enabled=False)
        report = cache.get_or_run(
            workload_by_id("pytorch/inference/mobilenetv2"), TEST_SCALE, None
        )
        back = serialize.loads(serialize.dumps(report))
        assert serialize.reports_equal(report, back)
        assert back.removal_reason_shares() == report.removal_reason_shares()
        assert back.verification is not None and back.verification.ok
        for lib, lib2 in zip(report.libraries, back.libraries):
            assert lib == lib2  # frozen dataclass equality

    def test_schema_skew_rejected(self):
        payload = {"schema": serialize.SCHEMA_VERSION + 1}
        from repro.errors import CacheSchemaError

        with pytest.raises(CacheSchemaError):
            serialize.from_payload(payload)


# -- digest properties ------------------------------------------------------------


def default_key(spec=None, scale=TEST_SCALE, options=None):
    spec = spec or workload_by_id("pytorch/inference/mobilenetv2")
    return PipelineCache.key(spec, scale, options)


class TestStableDigest:
    def test_equal_identities_hash_equal(self):
        a = default_key(options=DebloatOptions())
        b = default_key(options=None)  # None means default options
        assert serialize.stable_digest(a) == serialize.stable_digest(b)

    def test_known_value(self):
        """The digest algorithm itself is part of the on-disk contract."""
        assert (
            serialize.stable_digest(("a", 1, 0.5, None, True))
            == "68213db070c20745a444ba59697a1caa9a806f3d"
        )

    def test_every_workload_distinct(self):
        digests = {
            serialize.stable_digest(default_key(spec=s))
            for s in TABLE1_WORKLOADS
        }
        assert len(digests) == len(TABLE1_WORKLOADS)

    def test_locate_workers_is_identity_invariant(self):
        """The fan-out knobs are normalized out: equal digests by design."""
        assert serialize.stable_digest(
            default_key(options=DebloatOptions(locate_workers=8))
        ) == serialize.stable_digest(default_key())

    def test_default_key_known_value(self):
        """The default pipeline-cache key is pinned, so disk entries
        persisted by earlier versions keep their digests."""
        assert (
            serialize.stable_digest(default_key())
            == "ad4a53e5c2cff7e0a2191ba2acb4c2a178196aa8"
        )

    @settings(max_examples=40, deadline=None)
    @given(
        field_name=st.sampled_from(
            [
                f.name
                for f in dataclasses.fields(DebloatOptions)
                # costs is perturbed separately; locate_workers is
                # deliberately NOT part of the identity (deterministic
                # output for any worker count).
                if f.name not in ("costs", "locate_workers")
            ]
        )
    )
    def test_option_perturbation_changes_digest(self, field_name):
        base = DebloatOptions()
        value = getattr(base, field_name)
        if isinstance(value, bool):
            perturbed = dataclasses.replace(base, **{field_name: not value})
        else:
            perturbed = dataclasses.replace(
                base, **{field_name: (value or 0) + 1}
            )
        assert serialize.stable_digest(
            default_key(options=base)
        ) != serialize.stable_digest(default_key(options=perturbed))

    def test_cost_model_perturbation_changes_digest(self):
        from repro.cuda.costs import CostModel

        tweaked = DebloatOptions(
            costs=CostModel(detector_callback=4.6e-2)
        )
        assert serialize.stable_digest(
            default_key(options=tweaked)
        ) != serialize.stable_digest(default_key())

    @settings(max_examples=40, deadline=None)
    @given(index=st.integers(min_value=0, max_value=8))
    def test_positional_perturbation_changes_digest(self, index):
        """Perturbing any non-options component of the key changes it."""
        key = default_key()
        part = key[index]
        if isinstance(part, bool):
            perturbed = not part
        elif isinstance(part, (int, float)):
            perturbed = part + 1
        else:
            perturbed = str(part) + "~"
        mutated = key[:index] + (perturbed,) + key[index + 1 :]
        assert serialize.stable_digest(key) != serialize.stable_digest(mutated)

    def test_type_confusion_resists(self):
        """Tagged hashing: 1 vs "1" vs 1.0 vs True all digest apart."""
        variants = [1, "1", 1.0, True, (1,), b"1", None]
        digests = {serialize.stable_digest(v) for v in variants}
        assert len(digests) == len(variants)

    def test_fingerprint_sensitivity(self):
        from repro.frameworks.catalog import framework_build_fingerprint

        by_framework = {
            framework_build_fingerprint(name, TEST_SCALE)
            for name in ("pytorch", "tensorflow", "vllm", "transformers")
        }
        assert len(by_framework) == 4
        assert framework_build_fingerprint(
            "pytorch", TEST_SCALE
        ) != framework_build_fingerprint("pytorch", TEST_SCALE * 2)
        assert framework_build_fingerprint(
            "pytorch", TEST_SCALE, archs=(70, 75)
        ) != framework_build_fingerprint("pytorch", TEST_SCALE)
