"""Property-based drive tests: the accounting invariants hold under any
interleaving of jobs and speed requests."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.drive import Job, TwoSpeedDrive
from repro.disk.parameters import DiskSpeed, cheetah_two_speed
from repro.sim.engine import Simulator

PARAMS = cheetah_two_speed()

# an action script: (kind, value) where kind submits a job, requests a
# speed, or lets time pass
actions = st.lists(
    st.one_of(
        st.tuples(st.just("job"), st.floats(0.1, 50.0)),
        st.tuples(st.just("speed"), st.sampled_from([DiskSpeed.LOW, DiskSpeed.HIGH])),
        st.tuples(st.just("wait"), st.floats(0.1, 100.0)),
    ),
    min_size=1, max_size=30,
)


def run_script(script):
    sim = Simulator()
    drive = TwoSpeedDrive(sim, PARAMS, 0)
    t = 0.0
    jobs = []
    for kind, value in script:
        if kind == "job":
            job = Job.internal_transfer(value)
            jobs.append(job)
            sim.schedule(t, (lambda j=job: drive.submit(j)))
        elif kind == "speed":
            sim.schedule(t, (lambda s=value: drive.request_speed(s)))
        else:
            t += value
    sim.run()
    drive.finalize()
    return sim, drive, jobs


@given(actions)
@settings(max_examples=150, deadline=None)
def test_state_time_partitions_wall_clock(script):
    sim, drive, _jobs = run_script(script)
    assert drive.energy.total_time_s == pytest.approx(sim.now, abs=1e-6)


@given(actions)
@settings(max_examples=150, deadline=None)
def test_all_jobs_complete_exactly_once(script):
    _sim, drive, jobs = run_script(script)
    assert all(j.completion_time >= 0 for j in jobs)
    assert drive.stats.internal_jobs_served == len(jobs)


@given(actions)
@settings(max_examples=150, deadline=None)
def test_service_never_overlaps_and_is_fcfs_per_submit_order(script):
    _sim, drive, jobs = run_script(script)
    spans = sorted((j.service_start, j.completion_time) for j in jobs)
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2 + 1e-9


@given(actions)
@settings(max_examples=150, deadline=None)
def test_energy_bounded_by_extreme_power_states(script):
    sim, drive, _jobs = run_script(script)
    if sim.now == 0.0:
        return
    min_power = PARAMS.low.idle_w
    max_power = max(PARAMS.high.active_w, PARAMS.transition_power_w)
    energy = drive.energy.total_energy_j
    assert min_power * sim.now - 1e-6 <= energy <= max_power * sim.now + 1e-6


@given(actions)
@settings(max_examples=150, deadline=None)
def test_temperature_stays_within_model_bounds(script):
    _sim, drive, _jobs = run_script(script)
    lo = min(28.0, PARAMS.low.steady_temp_c)
    hi = PARAMS.high.steady_temp_c
    assert lo - 1e-9 <= drive.thermal.temperature_c <= hi + 1e-9
    assert lo - 1e-9 <= drive.thermal.mean_temperature_c() <= hi + 1e-9


# the accounting-edge script adds failures and replacements, so the
# failed (powerless, cooling) interval is charged too
edge_actions = st.lists(
    st.one_of(
        st.tuples(st.just("job"), st.floats(0.1, 50.0)),
        st.tuples(st.just("speed"), st.sampled_from([DiskSpeed.LOW, DiskSpeed.HIGH])),
        st.tuples(st.just("wait"), st.floats(0.0, 100.0)),
        st.tuples(st.just("fail"), st.none()),
        st.tuples(st.just("replace"), st.none()),
    ),
    min_size=1, max_size=40,
)


@given(edge_actions)
@settings(max_examples=150, deadline=None)
def test_inline_edges_equal_ledger_replay_bit_for_bit(script):
    """Every dispatch, completion, transition, failure and replacement edge
    charges the accumulators exactly as ``OpenDiskLedger.advance`` does
    over the same intervals."""
    sim = Simulator()
    drive = TwoSpeedDrive(sim, PARAMS, 0)
    # spy on every edge: the open state that ruled the interval, and its end
    edges = []
    account = drive._account

    def spy():
        edges.append((drive.open_ledger(), sim.now))
        account()

    drive._account = spy
    t = 0.0
    for kind, value in script:
        if kind == "job":
            sim.schedule(t, (lambda j=Job.internal_transfer(value): drive.submit(j)))
        elif kind == "speed":
            sim.schedule(t, (lambda s=value: drive.request_speed(s)))
        elif kind == "fail":
            sim.schedule(t, drive.fail)
        elif kind == "replace":
            sim.schedule(t, lambda: drive.is_failed and drive.replace_with_new_spindle())
        else:
            t += value
    sim.run()
    drive.finalize()

    replay = None
    for opened, end in edges:
        if replay is not None:
            # the drive chose the interval's state; the replay keeps its
            # own accumulators
            replay = replace(replay, state_index=opened.state_index,
                             power_w=opened.power_w, steady_c=opened.steady_c)
        else:
            replay = opened
        replay = replay.advance(end)
    assert replay is not None  # finalize is an edge
    assert replay.time_s == tuple(drive.energy.times_s)
    assert replay.energy_j == tuple(drive.energy.energies_j)
    assert replay.temp_c == drive.thermal.temperature_c
    assert replay.integral_c_s == drive.thermal.integral_c_s
    assert replay.elapsed_s == drive.thermal.elapsed_s
