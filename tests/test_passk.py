import pytest
from hypothesis import given
from hypothesis import strategies as st

from loadsmith.evalkit.passk import min_k_for, pass_lower_bound


class TestMinKFor:
    # the S/B/A reliability tiers at 95% confidence
    @pytest.mark.parametrize(
        "p,expected", [(0.50, 5), (0.90, 29), (0.99, 299)]
    )
    def test_reference_table(self, p, expected):
        assert min_k_for(p, 0.05) == expected

    def test_boundary_guard(self):
        for p in [x / 100 for x in range(50, 100)]:
            k = min_k_for(p, 0.05)
            assert pass_lower_bound(k, 0.05) >= p
            if k > 1:
                assert pass_lower_bound(k - 1, 0.05) < p

    @pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, bad_p):
        with pytest.raises(ValueError):
            min_k_for(bad_p, 0.05)
        with pytest.raises(ValueError):
            min_k_for(0.5, bad_p)


class TestPassLowerBound:
    def test_single_run(self):
        assert pass_lower_bound(1, 0.05) == 0.05

    def test_ten_runs(self):
        # oracle: evaluate 0.05**0.1 directly
        assert pass_lower_bound(10, 0.05) == pytest.approx(0.05 ** 0.1, abs=0.0)
        assert pass_lower_bound(10, 0.05) == pytest.approx(0.741134, abs=1e-6)

    def test_b_basis_rows(self):
        assert pass_lower_bound(29, 0.05) >= 0.90
        assert pass_lower_bound(28, 0.05) < 0.90

    @given(st.integers(min_value=1, max_value=500))
    def test_strictly_increasing_in_k(self, k):
        assert pass_lower_bound(k + 1, 0.05) > pass_lower_bound(k, 0.05)

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.001, max_value=0.4),
    )
    def test_strictly_increasing_in_alpha(self, k, alpha, delta):
        bigger = min(alpha + delta, 0.95)
        assert pass_lower_bound(k, bigger) > pass_lower_bound(k, alpha)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pass_lower_bound(0, 0.05)
        with pytest.raises(ValueError):
            pass_lower_bound(3, 0.0)


class TestPolicies:
    def test_basis_policies(self):
        # the S/B/A tiers the README quotes for `eval passk`
        assert min_k_for(0.5) == 5
        assert min_k_for(0.9) == 29
        assert min_k_for(0.99) == 299
