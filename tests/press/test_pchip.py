"""The in-repo PCHIP is bit-identical to scipy's ``PchipInterpolator``.

``TemperatureReliability`` clamps its input to the anchor range and
then evaluates its own PCHIP, so the reference is scipy's interpolant
(``extrapolate=False``) on the same clipped inputs.  Results are
compared by bit pattern, not by tolerance.  scipy is imported here
only: the simulation path must not load it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.press.temperature import GOOGLE_3YR_TEMPERATURE_ANCHORS, TemperatureReliability, _Pchip


@st.composite
def anchor_sets(draw):
    """2-9 knots, strictly increasing temperatures, non-decreasing AFRs."""
    n = draw(st.integers(2, 9))
    t0 = draw(st.floats(-50.0, 150.0))
    steps = draw(st.lists(st.floats(1e-3, 40.0), min_size=n - 1, max_size=n - 1))
    a0 = draw(st.floats(0.0, 20.0))
    # flat runs are common: they zero the PCHIP slopes around them
    rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 25.0)),
                          min_size=n - 1, max_size=n - 1))
    temps, afrs = [t0], [a0]
    for step, rise in zip(steps, rises):
        temps.append(temps[-1] + step)
        afrs.append(afrs[-1] + rise)
    return tuple(zip(temps, afrs))


def _points(knots, extra):
    """Knots, their nextafter neighbours, out-of-range and drawn values."""
    lo, hi = knots[0], knots[-1]
    span = hi - lo
    return np.concatenate([
        knots,
        np.nextafter(knots, np.inf),
        np.nextafter(knots, -np.inf),
        [lo - 1.0, lo - span, hi + 1.0, hi + span],
        np.asarray(extra, dtype=np.float64),
    ])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(anchors=anchor_sets(),
       fractions=st.lists(st.floats(-0.25, 1.25), min_size=1, max_size=40))
@example(anchors=GOOGLE_3YR_TEMPERATURE_ANCHORS,
         fractions=np.linspace(-0.2, 1.2, 2001).tolist())
def test_pchip_matches_scipy_bit_for_bit(anchors, fractions):
    from scipy.interpolate import PchipInterpolator

    curve = TemperatureReliability(anchors)
    knots = np.array([a[0] for a in anchors])
    afrs = np.array([a[1] for a in anchors])
    lo, hi = knots[0], knots[-1]
    points = _points(knots, [lo + f * (hi - lo) for f in fractions])
    expected = PchipInterpolator(knots, afrs, extrapolate=False)(np.clip(points, lo, hi))

    got = curve(points)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    np.testing.assert_array_equal(_bits(got), _bits(expected))

    for p, want in zip(points.tolist(), expected.tolist()):
        value = curve(p)
        assert type(value) is float
        assert _bits(value) == _bits(want), (p, value, want)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_interpolant_matches_scipy_on_non_monotone_data(n, data):
    # the curve only admits non-decreasing AFRs; the interpolant itself
    # mirrors scipy's end-slope rules for any data, sign flips included
    from scipy.interpolate import PchipInterpolator

    steps = data.draw(st.lists(st.floats(1e-2, 10.0), min_size=n - 1, max_size=n - 1))
    knots = np.cumsum([0.0, *steps])
    values = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    points = np.clip(_points(knots, np.linspace(knots[0], knots[-1], 37)), knots[0], knots[-1])
    expected = PchipInterpolator(knots, values, extrapolate=False)(points)
    np.testing.assert_array_equal(_bits(_Pchip(knots, values)(points)), _bits(expected))
