import pytest
from hypothesis import given
from hypothesis import strategies as st

from degseq import RandomSource, is_graphical
from degseq.deggen import (
    parse_generator_spec,
    perturbed_regular_sequence,
    powerlaw_sequence,
    regular_sequence,
)


class TestRegular:
    def test_even_case(self):
        gen = regular_sequence(6, 2)
        assert gen.degrees.degrees == (2,) * 6
        assert not gen.even_sum_adjusted

    def test_odd_n_even_d(self):
        gen = regular_sequence(5, 2)
        assert gen.degrees.degrees == (2,) * 5
        assert not gen.even_sum_adjusted

    def test_odd_sum_adjusted(self):
        gen = regular_sequence(5, 3)
        assert gen.degrees.degrees == (3, 3, 3, 3, 2)
        assert gen.even_sum_adjusted

    def test_bounds(self):
        with pytest.raises(ValueError):
            regular_sequence(4, 4)


class TestPowerlaw:
    def test_deterministic_and_bounded(self):
        a = powerlaw_sequence(200, 2.5, 3, 9, RandomSource(42, 0))
        b = powerlaw_sequence(200, 2.5, 3, 9, RandomSource(42, 0))
        assert a.degrees.degrees == b.degrees.degrees
        assert all(2 <= x <= 9 for x in a.degrees.degrees)  # one entry may drop by 1
        assert sum(a.degrees.degrees) % 2 == 0

    def test_heavier_tail_with_smaller_exponent(self):
        light = powerlaw_sequence(2000, 4.0, 3, 20, RandomSource(1, 0))
        heavy = powerlaw_sequence(2000, 1.5, 3, 20, RandomSource(1, 0))
        assert sum(heavy.degrees.degrees) > sum(light.degrees.degrees)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            powerlaw_sequence(100, 1.0, 3, 9, RandomSource(0))
        with pytest.raises(ValueError):
            powerlaw_sequence(100, 2.5, 10, 9, RandomSource(0))
        with pytest.raises(ValueError):
            powerlaw_sequence(10, 2.5, 3, 10, RandomSource(0))
        # NaN passed `exponent <= 1`; inf and 2000 left every weight 0
        for exponent in (float("nan"), float("inf"), 2000.0):
            with pytest.raises(ValueError, match="exponent"):
                powerlaw_sequence(10, exponent, 2, 3, RandomSource(0))

    def test_graphical_at_experiment_scale(self):
        gen = powerlaw_sequence(1000, 2.5, 9, 16, RandomSource(7, 0))
        assert is_graphical(gen.degrees)


class TestPerturbedRegular:
    @given(st.integers(0, 10_000))
    def test_contract_exact_count_below(self, seed):
        n, d, fraction = 6, 3, 0.5
        gen = perturbed_regular_sequence(n, d, fraction, RandomSource(seed, 0))
        below = sum(1 for x in gen.degrees.degrees if x < d)
        assert below == 3
        assert all(x <= d for x in gen.degrees.degrees)
        assert sum(gen.degrees.degrees) % 2 == 0

    def test_zero_fraction(self):
        gen = perturbed_regular_sequence(6, 3, 0.0, RandomSource(0, 0))
        assert gen.degrees.degrees == (3,) * 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            perturbed_regular_sequence(6, 1, 0.5, RandomSource(0, 0))


class TestParseSpec:
    def test_regular(self):
        gen = parse_generator_spec("regular(6,2)", seed=0)
        assert gen.degrees.degrees == (2,) * 6

    def test_powerlaw(self):
        gen = parse_generator_spec("powerlaw(100, 2.5, 3, 9)", seed=5)
        assert len(gen.degrees) == 100

    def test_perturbed_with_pinned_seed(self):
        a = parse_generator_spec("perturbed-regular(6,3,0.5,99)", seed=1)
        b = parse_generator_spec("perturbed-regular(6,3,0.5,99)", seed=2)
        assert a.degrees.degrees == b.degrees.degrees

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_generator_spec("lattice(3,3)", seed=0)
        with pytest.raises(ValueError):
            parse_generator_spec("regular 6 2", seed=0)
