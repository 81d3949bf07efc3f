"""CTMC reliability: closed-form cross-check, degeneracy, and bounds.

The mirror property test is the PR's acceptance criterion made
executable: the birth-death chain with ``unit_size=2, tolerance=1``
must reproduce Gibson's closed-form RAID-1 MTTDL
``(3*lam + mu) / (2*lam^2)`` across the whole physically plausible
(lam, mu) range — agreement here certifies the generator matrix, the
solver, and the rate conventions all at once.  Where the two *models*
diverge (max-AFR vs CTMC) is documented in DESIGN.md section 14 and
pinned by ``test_none_degenerates_to_per_disk_rate``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.press.hazard import annual_failure_rate_to_rate
from repro.redundancy.ctmc import (
    _MAX_RATE_DT,
    _TAIL_EPS,
    HOURS_PER_YEAR,
    _transient_generator,
    assess_scheme,
    loss_probability,
    mirror_mttdl_closed_form,
    mttdl_years,
)
from repro.redundancy.scheme import SCHEME_PRESETS, mirror_scheme

#: Physically plausible ranges: per-disk failure rates from pampered
#: (0.1%/yr) to abusive (~60%/yr AFR), rebuilds from 20 minutes to two
#: weeks.
LAMBDAS = st.floats(min_value=1e-3, max_value=1.0)
MUS = st.floats(min_value=HOURS_PER_YEAR / (14 * 24), max_value=HOURS_PER_YEAR / 0.33)


class TestMirrorClosedForm:
    @given(lam=LAMBDAS, mu=MUS)
    @settings(max_examples=200, deadline=None)
    def test_ctmc_matches_gibson_raid1_formula(self, lam, mu):
        ctmc = mttdl_years(unit_size=2, tolerance=1, lam=lam, mu=mu)
        closed = mirror_mttdl_closed_form(lam, mu)
        # 1e-6 relative: the generator solve loses a few digits when
        # mu/lam is extreme (~1e7 at the range corners), but the models
        # are identical — tighter points are pinned at 1e-9 below
        assert ctmc == pytest.approx(closed, rel=1e-6)

    def test_at_the_papers_operating_point(self):
        # PRESS-style 10.5% AFR, a 10-minute accelerated-run rebuild
        lam = annual_failure_rate_to_rate(10.5)
        mu = HOURS_PER_YEAR / (1.0 / 6.0)
        assert mttdl_years(2, 1, lam, mu) == pytest.approx(
            mirror_mttdl_closed_form(lam, mu), rel=1e-9)

    def test_no_repair_limit(self):
        # mu = 0: MTTDL of the pure-death chain is 1/(2 lam) + 1/lam
        lam = 0.5
        assert mttdl_years(2, 1, lam, 0.0) == pytest.approx(
            1.0 / (2.0 * lam) + 1.0 / lam, rel=1e-12)
        assert mirror_mttdl_closed_form(lam, 0.0) == pytest.approx(
            3.0 / (2.0 * lam), rel=1e-12)


class TestDegeneracy:
    def test_none_degenerates_to_per_disk_rate(self):
        """scheme=none: MTTDL is exactly the per-disk failure time, so
        the CTMC and the legacy per-disk-AFR convention agree by
        construction (the documented point of contact between the two
        loss models)."""
        afr = 10.5
        res = assess_scheme(SCHEME_PRESETS["none"], [afr] * 8,
                            rebuild_hours=12.0)
        lam = annual_failure_rate_to_rate(afr)
        assert res.mttdl_unit_years == pytest.approx(1.0 / lam, rel=1e-12)
        assert res.mttdl_array_years == pytest.approx(1.0 / (8 * lam), rel=1e-12)
        assert res.loss_events_per_year == pytest.approx(8 * lam, rel=1e-12)

    def test_zero_afr_never_loses_data(self):
        res = assess_scheme(SCHEME_PRESETS["block4-2"], [0.0] * 8,
                            rebuild_hours=12.0)
        assert math.isinf(res.mttdl_array_years)
        assert res.p_loss_array == 0.0
        assert res.loss_events_per_year == 0.0


class TestLossProbability:
    @given(lam=LAMBDAS, mu=MUS, years=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_consistency(self, lam, mu, years):
        p = loss_probability(2, 1, lam, mu, years)
        assert 0.0 <= p <= 1.0
        # more time, no less risk
        assert loss_probability(2, 1, lam, mu, 2.0 * years) >= p - 1e-12

    def test_matches_exponential_approximation_when_rare(self):
        # for MTTDL >> mission, P(loss) ~ T / MTTDL
        lam = annual_failure_rate_to_rate(10.5)
        mu = HOURS_PER_YEAR / 12.0
        mttdl = mttdl_years(2, 1, lam, mu)
        p = loss_probability(2, 1, lam, mu, 1.0)
        assert p == pytest.approx(1.0 / mttdl, rel=5e-2)

    def test_zero_horizon_and_zero_rate(self):
        assert loss_probability(2, 1, 0.5, 100.0, 0.0) == 0.0
        assert loss_probability(2, 1, 0.0, 100.0, 5.0) == 0.0

    @pytest.mark.parametrize("unit_size, tolerance", [
        (2, 5),   # tolerance beyond the unit: no loss state reachable
        (2, 2),
        (0, 0),   # an empty unit
        (3, -1),  # a negative tolerance
    ])
    def test_rejects_invalid_unit_shape(self, unit_size, tolerance):
        with pytest.raises(ValueError):
            loss_probability(unit_size, tolerance, 0.5, 100.0, 1.0)

    @pytest.mark.parametrize("years", [math.inf, math.nan, -1.0])
    def test_rejects_non_finite_or_negative_horizon(self, years):
        with pytest.raises(ValueError):
            loss_probability(2, 1, 0.5, 100.0, years)


#: (lam, mu) pairs with one rate infinite: before they were refused,
#: MTTDL came out nan (which ``assess_scheme`` skips, pricing loss at $0)
#: and P(loss) raised numpy's NaN or overflow errors.
_INFINITE_RATES = [(math.inf, 10.0), (0.5, math.inf)]


class TestRejectsInfiniteRates:
    @pytest.mark.parametrize("lam, mu", _INFINITE_RATES)
    def test_mttdl_years(self, lam, mu):
        with pytest.raises(ValueError, match="finite"):
            mttdl_years(2, 1, lam, mu)

    @pytest.mark.parametrize("lam, mu", _INFINITE_RATES)
    def test_loss_probability(self, lam, mu):
        with pytest.raises(ValueError, match="finite"):
            loss_probability(2, 1, lam, mu, 1.0)

    @pytest.mark.parametrize("lam, mu", _INFINITE_RATES)
    def test_mirror_closed_form(self, lam, mu):
        with pytest.raises(ValueError, match="finite"):
            mirror_mttdl_closed_form(lam, mu)


def _term_by_term_loss_probability(unit_size, tolerance, lam, mu, years):
    """Uniformization summed one Poisson term at a time.

    The reference arithmetic ``loss_probability`` must reproduce bit for
    bit: per sub-interval, ``acc = acc + weight * power`` with
    ``power = power @ dtmc`` and the weights recomputed each time.
    """
    if lam <= 0.0 or years <= 0.0:
        return 0.0
    q = _transient_generator(unit_size, tolerance, lam, mu)
    rate = float(np.max(-np.diag(q)))
    dtmc = np.eye(tolerance + 1, dtype=np.float64) + q / rate
    state = np.zeros(tolerance + 1, dtype=np.float64)
    state[0] = 1.0
    n_steps = max(1, math.ceil(rate * years / _MAX_RATE_DT))
    rate_dt = rate * (years / n_steps)
    for _ in range(n_steps):
        weight = math.exp(-rate_dt)
        power = state
        acc = weight * power
        m = 1
        while True:
            power = power @ dtmc
            weight *= rate_dt / m
            acc = acc + weight * power
            if m >= rate_dt and weight < _TAIL_EPS:
                break
            m += 1
        state = acc
    survival = float(np.sum(state))
    return min(1.0, max(0.0, 1.0 - survival))


#: Every unit shape with unit size 1-9 and tolerance 0-3.
UNIT_SHAPES = [(n, t) for n in range(1, 10) for t in range(min(n, 4))]
#: (lam, mu, years): a single sub-interval with rate*dt < 1, a few
#: sub-intervals, and a stiff chain split into dozens of them.
RATE_POINTS = [(0.01, 0.1, 0.5), (0.3, 20.0, 1.5), (2.0, 500.0, 0.7)]


class TestLossProbabilityBits:
    """``loss_probability`` batches its Poisson terms without moving a bit."""

    @pytest.mark.parametrize("lam, mu, years", RATE_POINTS)
    def test_equals_term_by_term_sum(self, lam, mu, years):
        for unit_size, tolerance in UNIT_SHAPES:
            expected = _term_by_term_loss_probability(
                unit_size, tolerance, lam, mu, years)
            assert loss_probability(unit_size, tolerance, lam, mu,
                                    years) == expected, (unit_size, tolerance)

    def test_grid_covers_short_and_split_horizons(self):
        rate_dts = []
        for lam, mu, years in RATE_POINTS:
            for unit_size, tolerance in UNIT_SHAPES:
                q = _transient_generator(unit_size, tolerance, lam, mu)
                rate_dts.append(float(np.max(-np.diag(q))) * years)
        assert min(rate_dts) < 1.0
        assert max(rate_dts) > 10 * _MAX_RATE_DT

    def test_faults_block4_2_operating_point(self):
        # the faults-block4-2 benchmark cell at seed 7: PRESS rate and
        # measured rebuild rate of its worst block4-2 unit, 1-year mission
        assert loss_probability(8, 2, 0.11093311378111341, 52587.66991411792,
                                1.0) == 7.717670946760791e-11


class TestAssessScheme:
    def test_redundancy_beats_bare_disks_by_orders_of_magnitude(self):
        afrs = [10.5] * 8
        bare = assess_scheme(SCHEME_PRESETS["none"], afrs, rebuild_hours=12.0)
        coded = assess_scheme(SCHEME_PRESETS["block4-2"], afrs,
                              rebuild_hours=12.0)
        assert coded.mttdl_array_years > 1e3 * bare.mttdl_array_years
        assert coded.p_loss_array < 1e-3 * bare.p_loss_array

    def test_mirror_units_are_replica_sets(self):
        res = assess_scheme(SCHEME_PRESETS["mirror3dc"], [5.0] * 9,
                            rebuild_hours=6.0)
        assert res.n_units == 3
        assert res.unit_size == 3
        assert res.tolerance == 2

    def test_unit_rate_is_max_of_members(self):
        # PRESS's least-reliable-disk convention applied per unit: the
        # worst member's rate drives its whole unit
        lop = [1.0, 20.0]
        res = assess_scheme(mirror_scheme(2), lop, rebuild_hours=12.0)
        lam = annual_failure_rate_to_rate(20.0)
        mu = HOURS_PER_YEAR / 12.0
        assert res.failure_rate_per_year == pytest.approx(lam, rel=1e-12)
        assert res.mttdl_unit_years == pytest.approx(
            mirror_mttdl_closed_form(lam, mu), rel=1e-9)

    def test_slower_rebuild_is_riskier(self):
        afrs = [10.5] * 8
        fast = assess_scheme(SCHEME_PRESETS["block4-2"], afrs, rebuild_hours=1.0)
        slow = assess_scheme(SCHEME_PRESETS["block4-2"], afrs, rebuild_hours=48.0)
        assert fast.mttdl_array_years > slow.mttdl_array_years
        assert fast.p_loss_array < slow.p_loss_array

    def test_array_mttdl_pools_units(self):
        one = assess_scheme(mirror_scheme(2), [10.0] * 2, rebuild_hours=12.0)
        four = assess_scheme(mirror_scheme(2), [10.0] * 8, rebuild_hours=12.0)
        assert four.n_units == 4
        assert four.mttdl_array_years == pytest.approx(
            one.mttdl_array_years / 4.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            assess_scheme(SCHEME_PRESETS["mirror2"], [5.0] * 2, rebuild_hours=0.0)
        with pytest.raises(ValueError):
            assess_scheme(SCHEME_PRESETS["mirror2"], [], rebuild_hours=1.0)
        with pytest.raises(ValueError):
            # array not a multiple of the group size
            assess_scheme(SCHEME_PRESETS["block4-2"], [5.0] * 6, rebuild_hours=1.0)
