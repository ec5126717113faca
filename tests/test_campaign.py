import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import reference as ref
from rpodsim import (
    CampaignConfig,
    InertialState,
    MU_EARTH,
    RelativeState,
    TargetOrbit,
    chief_state,
    intercept_experiment,
    nmc_initial_state,
    propagate_two_body,
    run_campaign,
    sweep_circumnavigation,
    waypoints_nmc,
)
from rpodsim.campaign import MAX_LEGS, _truth_coast
from rpodsim.dynamics import two_body_coast

ORBIT = TargetOrbit.from_altitude(2000.0)


def unforced(size, count, truth="two_body", **kw):
    return CampaignConfig(
        maneuver_kind="nmc_unforced", chief_altitude=2000.0, size=size,
        impulse_count=count, truth_model=truth, **kw,
    )


def forced(size, count, truth="two_body", **kw):
    return CampaignConfig(
        maneuver_kind="circle_forced", chief_altitude=2000.0, size=size,
        impulse_count=count, truth_model=truth, **kw,
    )


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        CampaignConfig("warp_drive", 2000.0, 10.0, 4)
    with pytest.raises(ValueError):
        unforced(10.0, 4, truth="three_body")
    with pytest.raises(ValueError):
        unforced(-10.0, 4)
    with pytest.raises(ValueError):
        unforced(10.0, 0)
    with pytest.raises(ValueError):
        forced(10.0, 1)
    with pytest.raises(ValueError):
        unforced(10.0, 4, laps=0)
    with pytest.raises(ValueError):
        unforced(10.0, 4, duration=100.0)  # derived for circumnavigation
    with pytest.raises(ValueError):
        CampaignConfig("intercept_forced", 2000.0, 10.0, 4)  # needs duration
    with pytest.raises(ValueError):  # an intercept is one pass down its line
        CampaignConfig("intercept_forced", 2000.0, 10.0, 4, duration=3600.0, laps=3)
    # work per campaign is capped; the cap itself is accepted
    unforced(10.0, MAX_LEGS // 4, laps=4)
    with pytest.raises(ValueError):
        unforced(10.0, MAX_LEGS // 4 + 1, laps=4)


@pytest.mark.parametrize("count", [0, 2, 5])
def test_unforced_intercept_flies_one_burn(count):
    # the unforced arm is one targeting burn and a coast; any other count
    # would be reported but not flown
    with pytest.raises(ValueError):
        CampaignConfig("intercept_unforced", 2000.0, 10.0, count, duration=3600.0)


# ---------------------------------------------------------------------------
# zero-mismatch baselines (CW guidance flown on CW truth)


def test_cw_truth_unforced_needs_no_correction():
    result = run_campaign(unforced(10.0, 16, truth="cw"))
    assert result.total_dv < 1e-9
    assert result.max_waypoint_miss < 1e-9
    assert len(result.impulses) == 16


def test_cw_truth_forced_hits_waypoints():
    result = run_campaign(forced(10.0, 8, truth="cw"))
    assert result.max_waypoint_miss < 1e-9


def test_cw_truth_forced_laps_are_identical():
    result = run_campaign(forced(25.0, 8, truth="cw", laps=2))
    mags = [rec.magnitude for rec in result.impulses]
    assert len(mags) == 16
    lap1, lap2 = sum(mags[:8]), sum(mags[8:])
    assert abs(lap1 - lap2) < 1e-12
    assert lap1 > 1e-4  # the forced circle genuinely costs fuel


def test_zero_mismatch_scales_with_any_size_and_count():
    for size, count in [(1.0, 4), (500.0, 32)]:
        result = run_campaign(unforced(size, count, truth="cw"))
        assert result.total_dv < 1e-9


# ---------------------------------------------------------------------------
# accounting


def test_total_is_sum_of_impulse_magnitudes():
    result = run_campaign(unforced(50.0, 8))
    assert result.total_dv == float(sum(r.magnitude for r in result.impulses))
    assert result.total_dv >= 0.0


def test_insertion_reported_separately():
    base = run_campaign(unforced(10.0, 8))
    n = ORBIT.n
    assert base.insertion_dv == pytest.approx(2 * n * 10.0, rel=1e-12)
    assert len(base.impulses) == 8  # the total's burns: the insertion is not one


def test_deterministic_rerun():
    a = run_campaign(forced(75.0, 8))
    b = run_campaign(forced(75.0, 8))
    assert a.total_dv == b.total_dv
    assert a.max_waypoint_miss == b.max_waypoint_miss
    for ra, rb in zip(a.impulses, b.impulses):
        assert np.array_equal(ra.dv, rb.dv)


def test_impulse_count_per_lap():
    # either circumnavigation flies one chief period a lap
    for config in (unforced(10.0, 4, laps=3), forced(10.0, 4, laps=3)):
        result = run_campaign(config)
        assert len(result.impulses) == 12
        assert result.duration == pytest.approx(3 * ORBIT.period)


# ---------------------------------------------------------------------------
# samples


def test_samples_are_self_consistent():
    # five legs a lap, so the epochs are no quarter turns of the chief
    result = run_campaign(forced(20.0, 5, laps=2))
    tau = ORBIT.period / 5
    # the start plus one (t, rel) pair per arrival, at the burn times k tau
    assert [t for t, _ in result.samples] == [k * tau for k in range(11)]
    _, rel0 = result.samples[0]
    assert rel0.x == 20.0 and rel0.y == 0.0
    assert all(isinstance(rel, RelativeState) for _, rel in result.samples)
    # every arrival is the previous sample, after its burn, lifted by the
    # reference transform at that sample's own epoch, coasted on two-body
    # truth and read back
    for k in range(1, 11):
        t0, before = result.samples[k - 1]
        dv = result.impulses[k - 2].dv if k > 1 else np.zeros(3)
        after = RelativeState(*(np.array(before) + np.concatenate((np.zeros(3), dv))))
        end = propagate_two_body(ref.hill_to_eci(chief_state(ORBIT, t0), after), tau)
        t1, arrived = result.samples[k]
        flown = ref.eci_to_hill(chief_state(ORBIT, t1), end)
        assert np.max(np.abs(np.subtract(flown, arrived))) < 1e-9, k


def test_two_body_leg_matches_dop853():
    # the campaign flies every leg from the chief's state at 0; the same leg
    # lifted by the reference transform at an epoch t, integrated by DOP853
    # and read at t + tau lands within 1e-7 km of it
    rng = np.random.default_rng(11)

    def rhs(_t, y):
        return np.hstack((y[3:], -MU_EARTH / np.linalg.norm(y[:3]) ** 3 * y[:3]))

    for _ in range(24):
        t = rng.uniform(0.0, 1e7)
        tau = rng.uniform(0.05, 3.0) * ORBIT.period
        x, y, z = rng.uniform(-500.0, 500.0, 3)
        vx, vy, vz = rng.uniform(-1e-3, 1e-3, 3)
        # near the drift-free along-track rate, so no leg dips below the surface
        rel = RelativeState(x, y, z, vx, vy - 2.0 * ORBIT.n * x, vz)
        leg = _truth_coast(ORBIT, "two_body", tau)(rel)
        chaser = ref.hill_to_eci(chief_state(ORBIT, t), rel)
        sol = solve_ivp(
            rhs, (0.0, tau), np.hstack((chaser.position, chaser.velocity)),
            method="DOP853", rtol=2.3e-14, atol=1e-14,
        )
        end = InertialState(t + tau, sol.y[:3, -1], sol.y[3:, -1])
        truth = ref.eci_to_hill(chief_state(ORBIT, t + tau), end)
        assert np.linalg.norm(np.subtract(leg[:3], truth[:3])) < 1e-7, (t, tau)


def test_cw_truth_samples_are_self_consistent():
    result = run_campaign(unforced(20.0, 4, truth="cw", laps=2))
    tau = ORBIT.period / 4
    assert [t for t, _ in result.samples] == [k * tau for k in range(9)]
    # CW truth flies the CW plan exactly, so every arrival sits on its waypoint
    plan = waypoints_nmc(20.0, 4)
    for k, (_, rel) in enumerate(result.samples):
        x, y = plan[k % 4]
        assert abs(rel.x - x) < 1e-9
        assert abs(rel.y - y) < 1e-9


def test_targeting_law_is_built_once_per_campaign(monkeypatch):
    # tau is fixed for a whole campaign, so its CW transition matrix is
    # built once for the targeting law (through rpodsim.guidance) and, under
    # CW truth, once for the coast (through rpodsim.dynamics): not once per
    # burn or leg
    import rpodsim.dynamics
    import rpodsim.guidance

    calls = {rpodsim.guidance: [], rpodsim.dynamics: []}
    for module, log in calls.items():
        original = module.cw_stm
        monkeypatch.setattr(module, "cw_stm",
                            lambda *args, f=original, log=log: log.append(args) or f(*args))
    result = run_campaign(unforced(20.0, 8, truth="cw", laps=2))
    assert len(result.impulses) == 16
    assert list(calls.values()) == [[(ORBIT.n, ORBIT.period / 8)]] * 2


@pytest.mark.parametrize(
    "config",
    [
        forced(20.0, 8, truth="cw", laps=2),
        unforced(20.0, 8),
        CampaignConfig("intercept_forced", 2000.0, 10.0, 4, duration=3600.0),
    ],
    ids=lambda config: f"{config.maneuver_kind}-{config.truth_model}",
)
def test_flown_states_and_burns_are_python_floats(config, monkeypatch):
    # the leg loop runs on Python floats; a numpy scalar let in by a plan
    # point or a burn would make every later coast and burn numpy-scalar
    # arithmetic (np.float64 is a float subclass, so the type is compared)
    import rpodsim.dynamics

    triples = []
    core = rpodsim.dynamics._coast

    def coast(r0, v0, duration):  # the Kepler core's inertial input and output
        end = core(r0, v0, duration)
        triples.extend((r0, v0, *end))
        return end

    monkeypatch.setattr(rpodsim.dynamics, "_coast", coast)
    result = run_campaign(config)
    values = [v for _, rel in result.samples for v in rel]
    values += [record.magnitude for record in result.impulses]
    values += [result.total_dv, result.insertion_dv, result.max_waypoint_miss]
    assert len(values) == 6 * len(result.samples) + len(result.impulses) + 3
    assert {type(v) for v in values} == {float}
    if config.truth_model == "cw":  # no leg leaves Hill axes: coast the last arrival
        two_body_coast(ORBIT, ORBIT.period / 8)(result.samples[-1][1])
    else:
        assert len(triples) == 4 * config.laps * config.impulse_count
    assert triples and {len(triple) for triple in triples} == {3}
    assert {type(v) for triple in triples for v in triple} == {float}


@pytest.mark.parametrize(
    "config",
    [
        unforced(20.0, 5, truth="cw", laps=2),
        forced(20.0, 5, truth="cw", laps=2),
        CampaignConfig("intercept_unforced", 2000.0, 10.0, 1, duration=3600.0, truth_model="cw"),
        CampaignConfig("intercept_forced", 2000.0, 10.0, 4, duration=3600.0, truth_model="cw"),
    ],
    ids=lambda config: config.maneuver_kind,
)
def test_burn_schedule(config):
    # every kind flies laps x m legs of tau; a closed plan burns at arrivals
    # 1..L, the line at departures 0..m-1
    result = run_campaign(config)
    m = config.impulse_count
    legs = config.laps * m
    closed = config.maneuver_kind in ("nmc_unforced", "circle_forced")
    tau = (ORBIT.period if closed else config.duration) / m
    assert [t for t, _ in result.samples] == [k * tau for k in range(legs + 1)]
    burns = range(1, legs + 1) if closed else range(m)
    assert len(result.impulses) == len(burns)
    for k, record in zip(burns, result.impulses):
        assert record.t == k * tau, k
    _, start = result.samples[0]
    if closed:
        assert result.insertion_dv == float(np.linalg.norm(start[3:])) > 0.0
    else:
        assert start == RelativeState(10.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert result.insertion_dv == 0.0


def test_cw_truth_never_builds_inertial_states(monkeypatch):
    # under CW truth the campaign stays in the Hill frame: no chief state and
    # no inertial chaser are built
    import rpodsim.campaign

    def refuse(*args, **kwargs):
        raise AssertionError("CW truth built an inertial state")

    monkeypatch.setattr(rpodsim.campaign, "chief_state", refuse)
    monkeypatch.setattr(rpodsim.campaign, "hill_to_eci", refuse)
    assert run_campaign(forced(25.0, 8, truth="cw")).max_waypoint_miss < 1e-9
    for kind, count in (("intercept_unforced", 1), ("intercept_forced", 4)):
        result = run_campaign(
            CampaignConfig(kind, 2000.0, 10.0, count, duration=3600.0, truth_model="cw")
        )
        assert result.max_waypoint_miss < 1e-9


def test_two_body_leg_flies_one_transform_each_way(monkeypatch):
    # the two-body leg is a map built once per campaign: it reads the chief's
    # frame basis once, then lifts each leg's chaser at theta = 0 and reads it
    # back through one float transform each way, with no frame trig per leg,
    # no InertialState, no chief state and none of the library's transforms
    import rpodsim.campaign
    import rpodsim.dynamics
    import rpodsim.frames

    calls, lifts, trig = Counter(), set(), Counter()

    def counted(name):
        original = getattr(rpodsim.dynamics, name)

        def call(*args):
            calls[name] += 1
            if name == "_to_eci":
                lifts.add(args[1:3])
            return original(*args)
        return call

    def refuse(*args, **kwargs):
        raise AssertionError("the two-body leg left its float path")

    class FrameMath:  # the frames module's math, counting its trig
        def __getattr__(self, name):
            trig[name] += name in ("cos", "sin")
            return getattr(math, name)

    for name in ("hill_basis", "_to_eci", "_to_hill"):
        monkeypatch.setattr(rpodsim.dynamics, name, counted(name))
    for name in ("hill_to_eci", "eci_to_hill", "propagate_two_body", "chief_state"):
        monkeypatch.setattr(rpodsim.campaign, name, refuse)
    monkeypatch.setattr(rpodsim.dynamics, "chief_state", refuse)
    monkeypatch.setattr(InertialState, "__post_init__", refuse)
    monkeypatch.setattr(rpodsim.frames, "math", FrameMath())
    assert run_campaign(forced(25.0, 8)).max_waypoint_miss > 0.0
    assert run_campaign(unforced(25.0, 8, laps=2)).total_dv > 0.0
    result = run_campaign(CampaignConfig("intercept_forced", 2000.0, 10.0, 4, duration=3600.0))
    assert len(result.impulses) == 4
    legs = 8 + 16 + 4
    assert calls == {"hill_basis": 3, "_to_eci": legs, "_to_hill": legs}
    assert lifts == {(1.0, 0.0)}
    assert +trig == {"cos": 3, "sin": 3}


# ---------------------------------------------------------------------------
# model-mismatch behavior under the two-body truth


def test_unforced_correction_dv_non_decreasing_in_size():
    totals = [
        run_campaign(unforced(size, 8)).total_dv
        for size in (1.0, 10.0, 100.0, 500.0, 1000.0)
    ]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_two_body_truth_requires_real_corrections():
    result = run_campaign(unforced(100.0, 8))
    assert result.total_dv > 1e-3  # mismatch is macroscopic at 100 km


def test_free_drift_divergence_small_at_small_separation():
    # NMC free drift at 1 km: truth and CW stay within 0.1 % of the
    # trajectory scale (twice the offset) over one period
    x0 = 1.0
    rel0 = nmc_initial_state(x0, ORBIT.n)
    chaser = ref.hill_to_eci(chief_state(ORBIT, 0.0), rel0)
    times = np.linspace(0.0, ORBIT.period, 33)[1:]
    from rpodsim import propagate_cw

    worst = 0.0
    for t in times:
        state = propagate_two_body(chaser, t)
        rel_truth = ref.eci_to_hill(chief_state(ORBIT, t), state)
        rel_cw = propagate_cw(rel0, ORBIT.n, t)
        worst = max(worst, float(np.linalg.norm(np.subtract(rel_truth[:3], rel_cw[:3]))))
    assert worst < 1e-3 * (2 * x0)


# ---------------------------------------------------------------------------
# intercepts


def test_intercept_null_transfer_is_free():
    unforced_arm, forced_arm = intercept_experiment(0.0, 3600.0, [4], 2000.0)
    assert unforced_arm.total_dv == 0.0
    # the legs are closed form; the forced arm's ~1e-14 km/s is the rounding
    # of lifting the chaser at rest at the chief to R + x and reading it back
    assert forced_arm.total_dv < 1e-9


def test_intercept_cw_truth_is_exact():
    unforced_arm, forced_arm = intercept_experiment(
        10.0, 3600.0, [8], 2000.0, truth_model="cw"
    )
    assert unforced_arm.max_waypoint_miss < 1e-9
    assert forced_arm.max_waypoint_miss < 1e-9


def test_intercept_two_body_defaults():
    unforced_arm, forced_arm = intercept_experiment(10.0, 3600.0, [8], 2000.0)
    assert unforced_arm.config.maneuver_kind == "intercept_unforced"
    assert forced_arm.config.maneuver_kind == "intercept_forced"
    assert len(unforced_arm.impulses) == 1
    assert len(forced_arm.impulses) == 8
    assert unforced_arm.total_dv < forced_arm.total_dv
    assert unforced_arm.insertion_dv == 0.0


def test_intercept_experiment_returns_unforced_then_each_count():
    arms = intercept_experiment(10.0, 3600.0, [3, 2, 8], 2000.0, truth_model="cw")
    assert [a.config.maneuver_kind for a in arms] == ["intercept_unforced"] + [
        "intercept_forced"
    ] * 3
    assert [a.config.impulse_count for a in arms] == [1, 3, 2, 8]
    assert [len(a.impulses) for a in arms] == [1, 3, 2, 8]


# ---------------------------------------------------------------------------
# sweep plumbing


def test_sweep_row_count_and_order():
    results = sweep_circumnavigation([5.0, 10.0], [4, 8], 2000.0, truth_model="cw")
    assert len(results) == 8
    kinds = [r.config.maneuver_kind for r in results]
    assert kinds[:2] == ["circle_forced", "nmc_unforced"]
    sizes = [r.config.size for r in results]
    assert sizes == [5.0] * 4 + [10.0] * 4


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_circumnavigation([], [4], 2000.0)
