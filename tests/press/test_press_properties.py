"""Property-based PRESS invariants (hypothesis).

The model's load-bearing guarantees, checked over the whole input
domain rather than at hand-picked points:

* AFR is monotone non-decreasing in each ESRRA factor (temperature,
  utilization, transition frequency) within the model's fitted bounds —
  the paper's entire argument ("energy saving stresses disks") rests on
  this direction being right;
* :meth:`PRESSModel.rescore_factors` agrees with scoring the same raw
  factors through a fresh model (re-scoring is a pure function);
* :func:`annual_failure_rate_to_rate` solves ``1 - exp(-rate) == afr``
  exactly (the round-trip the docstring promises).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.press.hazard import annual_failure_rate_to_rate
from repro.press.frequency import EQ3_COEFFICIENTS
from repro.press.model import DiskFactors, PRESSModel

MODEL = PRESSModel()

# Eq. 3's unconstrained quadratic fit dips for f below its vertex
# (~3.6/day, see repro.press.frequency) — the monotone regime starts there
_A, _B, _ = EQ3_COEFFICIENTS
F_VERTEX = -_B / (2.0 * _A)

# the fitted domains: temperature anchors span 25-50 degC, utilization
# buckets span [25, 100] %, frequency (Eq. 3) is fitted on [0, 1600]/day
temps = st.floats(25.0, 50.0, allow_nan=False, allow_subnormal=False)
utils = st.floats(25.0, 100.0, allow_nan=False, allow_subnormal=False)
freqs = st.floats(F_VERTEX, 1600.0, allow_nan=False, allow_subnormal=False)
deltas = st.floats(0.0, 25.0, allow_nan=False, allow_subnormal=False)


class TestMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(t=temps, u=utils, f=freqs, dt=deltas)
    def test_afr_monotone_in_temperature(self, t, u, f, dt):
        hotter = min(t + dt, 50.0)
        assert MODEL.disk_afr(hotter, u, f) >= MODEL.disk_afr(t, u, f)

    @settings(max_examples=200, deadline=None)
    @given(t=temps, u=utils, f=freqs, du=deltas)
    def test_afr_monotone_in_utilization(self, t, u, f, du):
        busier = min(u + du, 100.0)
        assert MODEL.disk_afr(t, busier, f) >= MODEL.disk_afr(t, u, f)

    @settings(max_examples=200, deadline=None)
    @given(t=temps, u=utils, f=freqs,
           df=st.floats(0.0, 400.0, allow_nan=False, allow_subnormal=False))
    def test_afr_monotone_in_frequency(self, t, u, f, df):
        flappier = min(f + df, 1600.0)
        assert MODEL.disk_afr(t, u, flappier) >= MODEL.disk_afr(t, u, f)

    @settings(max_examples=100, deadline=None)
    @given(t=temps, u=utils,
           f=st.floats(0.0, 1600.0, allow_nan=False, allow_subnormal=False))
    def test_afr_bounded_and_finite(self, t, u, f):
        # includes the sub-vertex dip region of Eq. 3, where the
        # negative-adder clamp must keep the combined AFR sane
        afr = MODEL.disk_afr(t, u, f)
        assert 0.0 <= afr < 100.0


class TestRescoreConsistency:
    @settings(max_examples=100, deadline=None)
    @given(raw=st.lists(st.tuples(temps, utils, freqs), min_size=1, max_size=8))
    def test_rescore_matches_fresh_scoring(self, raw):
        factors = [
            DiskFactors(disk_id=i, mean_temperature_c=t,
                        utilization_percent=u, transitions_per_day=f,
                        # deliberately wrong input AFR: rescoring must
                        # recompute it from the raw factors alone
                        afr_percent=0.0)
            for i, (t, u, f) in enumerate(raw)
        ]
        array_afr, rescored = MODEL.rescore_factors(factors)
        fresh = [MODEL.disk_afr(t, u, f) for (t, u, f) in raw]
        assert [r.afr_percent for r in rescored] == fresh
        assert array_afr == max(fresh)
        # raw factor fields pass through untouched
        for before, after in zip(factors, rescored):
            assert after.disk_id == before.disk_id
            assert after.mean_temperature_c == before.mean_temperature_c
            assert after.utilization_percent == before.utilization_percent
            assert after.transitions_per_day == before.transitions_per_day


class TestRateRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(afr=st.floats(0.0, 99.999, allow_nan=False, allow_subnormal=False))
    def test_one_year_failure_probability_recovers_afr(self, afr):
        rate = annual_failure_rate_to_rate(afr)
        assert rate >= 0.0
        back = 1.0 - math.exp(-rate)
        assert math.isclose(back, afr / 100.0, rel_tol=1e-12, abs_tol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.0, 99.0, allow_nan=False, allow_subnormal=False),
           d=st.floats(0.0, 0.999, allow_nan=False, allow_subnormal=False))
    def test_rate_monotone_in_afr(self, a, d):
        assert annual_failure_rate_to_rate(min(a + d, 99.999)) >= (
            annual_failure_rate_to_rate(a))
