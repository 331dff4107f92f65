"""Breach probability composition and the customer-side power law.

The breach parameters are validated by ``Scenario``; ``test_model.py``
covers the remaining fields.
"""

import dataclasses

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privopt import (
    DomainError,
    ValidationError,
    combined_breach_probability,
    customer_breach_probability,
)
from privopt.cli import load_scenario
from conftest import SCENARIO_DIR

# the breach parameters pi_s = pi_c* = 1e-4, theta = 0.138647, l_n = 10000
TABLE2 = load_scenario(str(SCENARIO_DIR / "table2.json")).scenario

probabilities = st.floats(0.0, 1.0)


def exact_combined(a: float, b: float) -> float:
    """``1 - (1 - a)(1 - b)`` to 50 digits, taken as ``a + b - ab`` so that
    the reference does not cancel either, rounded to a float."""
    with mp.workdps(50):
        a, b = mp.mpf(a), mp.mpf(b)
        return float(a + b - a * b)


class TestBreachProfile:
    """The breach parameters (pi_s, pi_c*, theta, l_n) as a ``Scenario`` holds them."""

    @pytest.mark.parametrize(
        "field,value",
        [("pi_s", 1.0), ("pi_c_star", 0.0), ("theta", 1.0), ("theta", 0.0), ("l_n", 0.0)],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(TABLE2, **{field: value})
        assert exc.value.field == field


class TestCustomerBreachProbability:
    def test_maximum_release(self):
        assert customer_breach_probability(TABLE2, TABLE2.l_n) == pytest.approx(1e-4, rel=1e-12, abs=0.0)

    def test_nothing_disclosed(self):
        assert customer_breach_probability(TABLE2, 0.0) == 0.0

    def test_reference_point(self):
        # 1e-4 * 0.3797**0.138647, frozen from the 50-digit reference
        assert customer_breach_probability(TABLE2, 3797.0) == pytest.approx(
            8.7436084371e-5, abs=1e-9
        )

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            customer_breach_probability(TABLE2, -1.0)
        with pytest.raises(DomainError):
            customer_breach_probability(TABLE2, TABLE2.l_n * 1.001)

    @given(frac=st.floats(0.0, 1.0), growth=st.floats(1.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_loss(self, frac, growth):
        l = frac * TABLE2.l_n
        l_hi = min(TABLE2.l_n, l * growth)
        assert customer_breach_probability(TABLE2, l_hi) >= customer_breach_probability(TABLE2, l)

    @given(frac=st.floats(1e-6, 0.999), d_theta=st.floats(1e-3, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_more_privacy_aware_means_lower_probability(self, frac, d_theta):
        # below the cap, a larger theta postpones the exposure
        l = frac * TABLE2.l_n
        careful = dataclasses.replace(TABLE2, theta=min(0.999, TABLE2.theta + d_theta))
        if careful.theta > TABLE2.theta:
            assert customer_breach_probability(careful, l) <= customer_breach_probability(TABLE2, l)


class TestCombinedBreachProbability:
    def test_secure_provider_passes_through(self):
        for x in (0.0, 1e-17, 0.3, 1.0):
            assert combined_breach_probability(0.0, x) == pytest.approx(x, rel=1e-15, abs=0.0)

    def test_certain_breach_dominates(self):
        for x in (0.0, 0.5, 1.0):
            assert combined_breach_probability(1.0, x) == 1.0
            assert combined_breach_probability(x, 1.0) == 1.0

    @pytest.mark.parametrize("a, b", [(1e-17, 1e-17), (1e-4, 1e-4)])
    def test_small_probabilities_to_full_precision(self, a, b):
        # 1 - (1 - a)(1 - b) cancels here: 0.0 at 1e-17, 3.6e-13 off at 1e-4
        assert combined_breach_probability(a, b) == pytest.approx(exact_combined(a, b), rel=1e-15, abs=0.0)

    def test_reference_value(self):
        assert combined_breach_probability(1e-4, 8.7435e-5) == pytest.approx(
            1.874262565e-4, abs=1e-10
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            combined_breach_probability(-0.1, 0.5)
        with pytest.raises(DomainError):
            combined_breach_probability(0.5, 1.1)

    @given(a=probabilities, b=probabilities)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_product_form(self, a, b):
        left = combined_breach_probability(a, b)
        assert left == combined_breach_probability(b, a)
        assert left == pytest.approx(exact_combined(a, b), rel=1e-15, abs=0.0)
        assert max(a, b) - 1e-15 <= left <= 1.0

    @given(a=probabilities, b=probabilities, bump=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_argument(self, a, b, bump):
        hi = min(1.0, a + bump)
        assert combined_breach_probability(hi, b) >= combined_breach_probability(a, b)
        hi = min(1.0, b + bump)
        assert combined_breach_probability(a, hi) >= combined_breach_probability(a, b)
