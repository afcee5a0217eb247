from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
import hypothesis.strategies as st

from linecut.errors import InvalidGenSpec
from linecut.formats import render_instance
from linecut.gen import GenKind, GenSpec, SplitMix64, _composition, derive_seed, generate
from linecut.model import MAX_POINTS, compress

# Digest of the canonical rendering of (uniform, n=100, span=10^6, seed=42),
# frozen from the first run; any drift in the PRNG or rendering breaks this.
GOLDEN_UNIFORM_SHA256 = "42602d54d4d4331e5deb8bfa4a0fac7c0c49e3fe23146014823461be99233fe3"


class TestSplitMix64:
    def test_reference_sequence(self):
        # First outputs for seed 0, as published for splitmix64.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_below_range(self):
        rng = SplitMix64(123)
        for bound in (1, 2, 3, 17, 1 << 40):
            for _ in range(50):
                assert 0 <= rng.below(bound) < bound

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


class TestGenSpecValidation:
    def test_bad_n(self):
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 0, 10, 1)
        GenSpec(GenKind.UNIFORM, MAX_POINTS, 10, 1)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, MAX_POINTS + 1, 10, 1)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 10**12, 10, 0)

    def test_bad_span(self):
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 1, 0, 1)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 1, (1 << 40) + 1, 1)

    def test_bad_seed(self):
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 1, 10, -1)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 1, 10, 1 << 64)

    def test_distinct_target_rules(self):
        GenSpec(GenKind.DUPLICATES, 5, 10, 1, distinct_target=5)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.DUPLICATES, 5, 10, 1, distinct_target=6)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.DUPLICATES, 5, 10, 1, distinct_target=0)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 5, 10, 1, distinct_target=2)

    def test_clusters_rules(self):
        GenSpec(GenKind.CLUSTERED, 5, 10**6, 1, clusters=2)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.CLUSTERED, 5, 10**6, 1, clusters=0)
        # More clusters than points stays legal; verify draws such specs.
        GenSpec(GenKind.CLUSTERED, 1, 10, 0, clusters=4)
        GenSpec(GenKind.CLUSTERED, 1, 10, 0, clusters=MAX_POINTS)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.CLUSTERED, 1, 10, 0, clusters=MAX_POINTS + 1)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.CLUSTERED, 1, 10, 0, clusters=10**12)
        with pytest.raises(InvalidGenSpec):
            GenSpec(GenKind.UNIFORM, 5, 10**6, 1, clusters=2)


class TestGenerate:
    def test_golden_digest(self):
        text = render_instance(generate(GenSpec(GenKind.UNIFORM, 100, 10**6, 42)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_UNIFORM_SHA256

    def test_uniform_single_point(self):
        for seed in range(20):
            inst = generate(GenSpec(GenKind.UNIFORM, 1, 1, seed))
            assert inst.n == 1
            assert inst.scaled[0] in (0, 1)

    def test_duplicates_forced_shape(self):
        inst = generate(GenSpec(GenKind.DUPLICATES, 10, 100, 3, distinct_target=1))
        ci = compress(inst)
        assert ci.l == 1
        assert ci.mult == (10,)

    def test_duplicates_support_bounded(self):
        for seed in range(10):
            inst = generate(GenSpec(GenKind.DUPLICATES, 30, 10**6, seed, distinct_target=4))
            assert compress(inst).l <= 4

    def test_clustered_stays_near_centers(self):
        span = 10**6
        inst = generate(GenSpec(GenKind.CLUSTERED, 200, span, 5, clusters=3))
        radius = span // 1000
        assert all(-radius <= x <= span + radius for x in inst.scaled)
        # Tight clusters: few distinct gaps larger than the cluster width.
        ci = compress(inst)
        assert sum(1 for a, b in zip(ci.xs, ci.xs[1:]) if b - a > 2 * radius) < 3

    def test_deterministic(self):
        spec = GenSpec(GenKind.CLUSTERED, 50, 10**6, 11, clusters=2)
        assert generate(spec) == generate(spec)

    def test_seed_matters(self):
        a = generate(GenSpec(GenKind.UNIFORM, 50, 10**9, 1))
        b = generate(GenSpec(GenKind.UNIFORM, 50, 10**9, 2))
        assert a != b

    @given(
        st.sampled_from(sorted(GenKind, key=lambda k: k.value)),
        st.integers(1, 40),
        st.sampled_from((1, 7, 10**3, 10**9)),
        st.integers(0, 2**64 - 1),
    )
    def test_output_always_valid(self, kind, n, span, seed):
        inst = generate(GenSpec(kind, n, span, seed))
        assert inst.n == n
        assert compress(inst).n == n  # Instance invariants enforced on build


class TestComposition:
    @given(st.integers(1, 60), st.data())
    def test_parts_sum_and_positivity(self, total, data):
        parts = data.draw(st.integers(1, total))
        rng = SplitMix64(data.draw(st.integers(0, 2**32)))
        comp = _composition(rng, total, parts)
        assert len(comp) == parts
        assert sum(comp) == total
        assert all(c >= 1 for c in comp)
