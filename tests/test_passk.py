import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loadsmith.evalkit import passk
from loadsmith.evalkit.passk import min_k_for, pass_lower_bound


def nudged_min_k(p, alpha, steps=100_000):
    """The closed-form ceiling nudged one k at a time across the boundary,
    as min_k_for once computed it; fails after ``steps`` nudges."""
    k = max(1, math.ceil(math.log(alpha) / math.log(p)))
    for _ in range(steps):
        if pass_lower_bound(k, alpha) < p:
            k += 1
        elif k > 1 and pass_lower_bound(k - 1, alpha) >= p:
            k -= 1
        else:
            return k
    raise AssertionError(f"the nudge did not end within {steps} steps at p={p!r}, alpha={alpha!r}")


def _grid():
    """(p, alpha) pairs, README's 0.5, 0.9 and 0.99 at 0.05 among them."""
    alphas = [0.001, 0.01, 0.05, 0.1, 0.5, 0.9, math.nextafter(1.0, 0.0)]
    for alpha in alphas:
        ps = [x / 100 for x in range(1, 100)] + [0.999, 0.9999, 1 - 1e-6, 1 - 1e-8]
        for k in (1, 2, 3, 7, 10, 29, 299, 1000):
            bound = alpha ** (1 / k)  # the boundary itself and its float neighbours
            ps += [bound, math.nextafter(bound, 0.0), math.nextafter(bound, 1.0)]
        ps += [math.nextafter(alpha, 1.0), math.nextafter(0.0, 1.0)]
        yield from ((p, alpha) for p in ps if 0.0 < p < 1.0)


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

    def test_nudge_up_past_a_ceiling_that_falls_short(self):
        # ceil(ln 0.05 / ln p) is 1 here, but pass_lower_bound(1) == 0.05 < p
        p = math.nextafter(0.05, 1.0)
        assert math.ceil(math.log(0.05) / math.log(p)) == 1
        assert min_k_for(p, 0.05) == 2

    def test_nudge_down_past_a_ceiling_that_overshoots(self):
        # ceil(ln 0.05 / ln p) is 4 here, but pass_lower_bound(3) already reaches p
        p = 0.05 ** (1 / 3)
        assert math.ceil(math.log(0.05) / math.log(p)) == 4
        assert min_k_for(p, 0.05) == 3

    def test_matches_the_nudged_ceiling(self):
        # The bisection answers as the one-k-at-a-time nudge did on a grid
        # where the nudge ends, boundaries and their float neighbours included.
        for p, alpha in _grid():
            assert min_k_for(p, alpha) == nudged_min_k(p, alpha), (p, alpha)

    @pytest.mark.parametrize("p", [1 - 1e-14, 0.9999999999999999], ids=["1-1e-14", "below-1"])
    def test_near_one_answers_in_few_evaluations(self, monkeypatch, p):
        # Before, the nudge took one evaluation per k across a run of k where
        # the bound rounds to p: more than 10**6 of them, so `eval passk` hung.
        calls = []

        def counted(k, alpha=passk.DEFAULT_ALPHA):
            calls.append(k)
            if len(calls) > 10_000:
                raise AssertionError("more than 10 000 evaluations")
            return pass_lower_bound(k, alpha)

        monkeypatch.setattr(passk, "pass_lower_bound", counted)
        k = min_k_for(p, 0.05)
        assert len(calls) < 200
        assert pass_lower_bound(k, 0.05) >= p > pass_lower_bound(k - 1, 0.05)

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
