"""Failure Monte Carlo: rates, loss-unit semantics, statistics, and
agreement with the CTMC.

Two independent references pin the loss rule:

* with a rebuild window at least as long as the horizon a failed disk
  stays down, so a unit loses data exactly as often as a binomial count
  of its failed members says (``TestDownForeverLimit``);
* at accelerated rates with ``lambda * window <= 0.01`` the loss events
  per year agree with the CTMC and with the closed-form mirror MTTDL to
  first order in ``lambda * window`` (``TestAgreesWithCtmc``).
"""

import math

import pytest

from repro.press.hazard import annual_failure_rate_to_rate
from repro.redundancy import (
    SCHEME_PRESETS,
    GroupScheme,
    assess_scheme,
    mirror_mttdl_closed_form,
    simulate_failures,
)
from repro.redundancy.ctmc import HOURS_PER_YEAR

NONE = SCHEME_PRESETS["none"]
MIRROR2 = SCHEME_PRESETS["mirror2"]


def raid5(n_disks):
    """One single-parity group over the whole array."""
    return GroupScheme(name=f"raid5-{n_disks}", kind="parity", group_size=n_disks,
                       data_shards=n_disks - 1, replicas=1, fault_domains=n_disks)


class TestSimulation:
    def test_expected_failures_match_analytic(self):
        afr = 8.0
        fa = simulate_failures(NONE, [afr] * 10, rebuild_hours=24.0, years=5.0,
                               n_trials=3000, seed=1)
        analytic = 10 * 5.0 * annual_failure_rate_to_rate(afr)
        assert fa.expected_failures == pytest.approx(analytic, rel=0.1)

    def test_no_redundancy_every_failure_loses_data(self):
        fa = simulate_failures(NONE, [10.0] * 4, rebuild_hours=24.0, years=3.0,
                               n_trials=1000, seed=2)
        assert fa.mean_loss_events == pytest.approx(fa.expected_failures)

    def test_parity_much_safer_than_none(self):
        none = simulate_failures(NONE, [8.0] * 10, rebuild_hours=24.0, years=5.0,
                                 n_trials=1500, seed=3)
        parity = simulate_failures(raid5(10), [8.0] * 10, rebuild_hours=24.0,
                                   years=5.0, n_trials=1500, seed=3)
        assert parity.p_data_loss < none.p_data_loss / 5

    def test_parity_loss_grows_with_repair_window(self):
        fast = simulate_failures(raid5(12), [20.0] * 12, rebuild_hours=6.0,
                                 years=5.0, n_trials=1500, seed=4)
        slow = simulate_failures(raid5(12), [20.0] * 12, rebuild_hours=24 * 14,
                                 years=5.0, n_trials=1500, seed=4)
        assert slow.p_data_loss > fast.p_data_loss

    def test_higher_afr_more_loss(self):
        low = simulate_failures(raid5(10), [4.0] * 10, rebuild_hours=24.0,
                                years=5.0, n_trials=1500, seed=5)
        high = simulate_failures(raid5(10), [30.0] * 10, rebuild_hours=24.0,
                                 years=5.0, n_trials=1500, seed=5)
        assert high.p_data_loss > low.p_data_loss
        assert high.expected_failures > low.expected_failures

    def test_disks_must_fill_whole_groups(self):
        with pytest.raises(ValueError):
            simulate_failures(MIRROR2, [5.0] * 3, rebuild_hours=24.0)

    def test_mirror2_safer_than_none(self):
        none = simulate_failures(NONE, [10.0] * 8, rebuild_hours=24.0, years=5.0,
                                 n_trials=1000, seed=6)
        mirror = simulate_failures(MIRROR2, [10.0] * 8, rebuild_hours=24.0,
                                   years=5.0, n_trials=1000, seed=6)
        assert mirror.p_data_loss < none.p_data_loss

    def test_deterministic_with_seed(self):
        a = simulate_failures(MIRROR2, [7.0] * 6, rebuild_hours=24.0, n_trials=500,
                              seed=9)
        b = simulate_failures(MIRROR2, [7.0] * 6, rebuild_hours=24.0, n_trials=500,
                              seed=9)
        assert a == b

    def test_zero_afr_never_fails(self):
        fa = simulate_failures(NONE, [0.0] * 5, rebuild_hours=24.0, n_trials=200,
                               seed=7)
        assert fa.expected_failures == 0.0
        assert fa.p_data_loss == 0.0

    def test_per_disk_afrs_heterogeneous(self):
        fa = simulate_failures(NONE, [1.0, 30.0], rebuild_hours=24.0, years=5.0,
                               n_trials=1000, seed=8)
        assert fa.expected_failures > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_failures(NONE, [], rebuild_hours=24.0)
        with pytest.raises(ValueError):
            simulate_failures(NONE, [5.0], rebuild_hours=24.0, years=0.0)
        with pytest.raises(ValueError):
            simulate_failures(NONE, [5.0], rebuild_hours=24.0, n_trials=0)
        with pytest.raises(ValueError):
            simulate_failures(NONE, [5.0], rebuild_hours=0.0)
        with pytest.raises(ValueError):
            simulate_failures(NONE, [100.0], rebuild_hours=24.0)


class TestDownForeverLimit:
    """A window as long as the horizon: each disk fails at most once and
    stays down, so a unit of ``n`` loses ``max(0, k - tolerance)`` times
    when ``k ~ Binomial(n, p)`` of its members fail."""

    YEARS = 2.0
    TRIALS = 40_000

    @pytest.mark.parametrize("name", ["none", "mirror2", "block4-2"])
    def test_losses_are_a_binomial_excess(self, name):
        scheme = SCHEME_PRESETS[name]
        n, tolerance = scheme.loss_unit_size, scheme.fault_tolerance
        p = 1.0 - math.exp(-annual_failure_rate_to_rate(30.0) * self.YEARS)
        fa = simulate_failures(scheme, [30.0] * n,
                               rebuild_hours=self.YEARS * HOURS_PER_YEAR,
                               years=self.YEARS, n_trials=self.TRIALS, seed=11)
        pmf = [math.comb(n, k) * p**k * (1 - p)**(n - k) for k in range(n + 1)]

        def within_4_sigma(measured, values):
            """``measured`` is a trial mean of ``values[k]`` at ``k`` failed."""
            mean = sum(w * v for w, v in zip(pmf, values))
            var = sum(w * v * v for w, v in zip(pmf, values)) - mean * mean
            return abs(measured - mean) <= 4.0 * math.sqrt(var / self.TRIALS)

        ks = range(n + 1)
        assert within_4_sigma(fa.expected_failures, list(ks))
        assert within_4_sigma(fa.p_data_loss, [float(k > tolerance) for k in ks])
        assert within_4_sigma(fa.mean_loss_events, [max(0, k - tolerance) for k in ks])


class TestAgreesWithCtmc:
    """Certification at an accelerated uniform rate with ``lam * w = 0.01``.

    Deterministic and exponential rebuilds agree to first order in
    ``lam * w``; the band is a 4-sigma Poisson interval on the loss count
    widened by that first-order gap, ``3 * lam * w * tolerance``.
    """

    LAM = 1.0  # per year: AFR 63.2%
    WINDOW_YEARS = 0.01
    YEARS = 5.0
    TRIALS = 20_000
    N_DISKS = 8

    @pytest.mark.parametrize("name", ["mirror2", "block4-2"])
    def test_loss_events_per_year(self, name):
        scheme = SCHEME_PRESETS[name]
        afr = 100.0 * -math.expm1(-self.LAM)
        rebuild_hours = self.WINDOW_YEARS * HOURS_PER_YEAR
        fa = simulate_failures(scheme, [afr] * self.N_DISKS,
                               rebuild_hours=rebuild_hours, years=self.YEARS,
                               n_trials=self.TRIALS, seed=2)
        ctmc = assess_scheme(scheme, [afr] * self.N_DISKS,
                             rebuild_hours=rebuild_hours, mission_years=self.YEARS)
        references = [ctmc.loss_events_per_year]
        if name == "mirror2":
            units = self.N_DISKS // 2
            closed = mirror_mttdl_closed_form(self.LAM, 1.0 / self.WINDOW_YEARS)
            references.append(units / closed)
        measured = fa.mean_loss_events / self.YEARS
        exposure = self.TRIALS * self.YEARS
        gap = 3.0 * self.LAM * self.WINDOW_YEARS * scheme.fault_tolerance
        for reference in references:
            band = 4.0 * math.sqrt(reference * exposure) / exposure + gap * reference
            assert abs(measured - reference) <= band, (measured, reference, band)
