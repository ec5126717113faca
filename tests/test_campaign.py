import copy
import gc
import itertools
import math
import pickle
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import reference as ref
from pins import _REPLAY_CASES, fly_replay_row
from reference import chief_state, propagate_cw, propagate_two_body
from rpodsim import (
    CampaignConfig,
    InertialState,
    MU_EARTH,
    RelativeState,
    TargetOrbit,
    eci_to_hill,
    hill_to_eci,
    intercept_experiment,
    nmc_initial_state,
    run_campaign,
    sweep_circumnavigation,
    waypoints_circle,
    waypoints_nmc,
)
from rpodsim.campaign import MAX_LEGS, _truth_coast
from rpodsim.dynamics import two_body_coast
from rpodsim.guidance import ImpulseRecord, Vector3

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


def test_config_counts_are_integers():
    # a float count would pass every comparison and fail only in the leg
    # loop's range(); numpy integers are read as ints
    for bad in (dict(impulse_count=4.0), dict(impulse_count=4, laps=2.0),
                dict(impulse_count="4"), dict(impulse_count=4, laps=None)):
        with pytest.raises(ValueError, match="must be an integer"):
            CampaignConfig("nmc_unforced", 2000.0, 10.0, **bad)
    # the fan-outs once cast with int(): a 4.7 count flew 4 burns
    with pytest.raises(ValueError, match="impulse_count must be an integer, got 4.7"):
        sweep_circumnavigation([10.0], [4.7], 2000.0)
    with pytest.raises(ValueError, match="impulse_count must be an integer, got 2.9"):
        intercept_experiment(10.0, 3600.0, [2.9], 2000.0)
    config = unforced(10.0, np.int64(4), laps=np.int32(2))
    assert (config.impulse_count, config.laps) == (4, 2)
    assert type(config.impulse_count) is type(config.laps) is int
    assert len(run_campaign(config).impulses) == 8


def test_config_copies_and_changes_are_checked():
    # _make, _replace, pickle and copy all build through the constructor, so
    # none of them can make a config that skipped its checks
    config = unforced(10.0, 4)
    for twin in (CampaignConfig._make(config), config._replace(), copy.copy(config),
                 copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
        assert type(twin) is CampaignConfig and twin == config
    assert config._replace(size=20.0, laps=np.int64(3)) == unforced(20.0, 4, laps=3)
    for changes in (dict(size=-1.0), dict(laps=0), dict(impulse_count=4.0),
                    dict(duration=60.0), dict(chief_altitude=math.inf)):
        with pytest.raises(ValueError):
            config._replace(**changes)
    with pytest.raises(ValueError):
        CampaignConfig._make(("nmc_unforced", 2000.0, -1.0, 4, None, "two_body", 1))
    unchecked = tuple.__new__(CampaignConfig, (*config[:2], -1.0, *config[3:]))
    for rebuild in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        with pytest.raises(ValueError, match="size must be positive, got -1"):
            rebuild(unchecked)


def test_config_reads_its_floats_once():
    # a size beyond double range, or no altitude, once raised a bare
    # OverflowError or TypeError; the fan-outs cast with float()
    for bad, message in ((dict(size=10**400), "size must be finite, got an int beyond"),
                         (dict(chief_altitude=None), "chief_altitude must be a real number"),
                         (dict(size="10"), "size must be a real number, got '10'"),
                         (dict(duration=math.nan), "duration must be finite, got nan")):
        with pytest.raises(ValueError, match=message):
            unforced(10.0, 4)._replace(**bad)
    # any real type is stored, and flown, as a float
    config = CampaignConfig("intercept_forced", 2000, 10, 4, duration=np.float32(3600.0))
    assert {type(config.chief_altitude), type(config.size), type(config.duration)} == {float}
    assert run_campaign(config) == intercept_experiment(10.0, 3600.0, [4], 2000.0)[1]


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


def _in_burn_order(magnitudes):
    """The magnitudes added one at a time, first to last, as the leg loop adds its burns."""
    total = 0.0
    for magnitude in magnitudes:
        total += magnitude
    return total


def test_total_is_sum_of_impulse_magnitudes():
    result = run_campaign(unforced(50.0, 8))
    assert result.total_dv == _in_burn_order(r.magnitude for r in result.impulses)
    assert result.total_dv >= 0.0


def test_total_adds_the_burns_in_order():
    # sum() of floats compensates its rounding from Python 3.12 on, so the
    # total is added in burn order to read the same on every Python; on this
    # cell the two roundings differ in the last digit (...042e-06 against
    # ...041e-06 correctly rounded)
    result = run_campaign(unforced(1.0, 8))
    magnitudes = [r.magnitude for r in result.impulses]
    assert result.total_dv == _in_burn_order(magnitudes)
    assert result.total_dv != math.fsum(magnitudes)


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


@pytest.mark.parametrize(
    "config",
    [
        forced(20.0, 8, truth="cw", laps=2),
        CampaignConfig("intercept_unforced", 2000.0, 10.0, 1, duration=3600.0, truth_model="cw"),
        CampaignConfig("intercept_forced", 2000.0, 10.0, 4, duration=3600.0, truth_model="cw"),
        pytest.param(forced(20.0, 8, truth="cw", laps=10), id="circle_forced_replayed"),
    ],
    ids=lambda config: config.maneuver_kind,
)
def test_every_burn_flies_the_record_of_the_guidance_seam(config, monkeypatch):
    # each burn calls rpodsim.campaign.cw_target_impulse once and flies the
    # dv and magnitude of the record it returns; the benchmark's oracle check
    # perturbs guidance through that one binding, as this test does
    import rpodsim.campaign
    from rpodsim.guidance import ImpulseRecord

    clean = run_campaign(config)
    original = rpodsim.campaign.cw_target_impulse
    asked, flown = [], []

    def off_by_a_thousandth(*args):
        record, v_plus = original(*args)
        asked.append(record)
        flown.append(ImpulseRecord(record.t, record.dv * 1.001))
        return flown[-1], v_plus

    monkeypatch.setattr(rpodsim.campaign, "cw_target_impulse", off_by_a_thousandth)
    result = run_campaign(config)
    if config.maneuver_kind == "circle_forced":  # its insertion targets through the seam too
        assert result.insertion_dv == flown.pop(0).magnitude
        assert result.insertion_dv == pytest.approx(1.001 * clean.insertion_dv, rel=1e-14)
        asked.pop(0)
    m = config.impulse_count
    if config.laps < 10:
        assert len(flown) == len(clean.impulses) == config.laps * m
        assert result.replayed_from is None
    else:  # the loop flies until a post-burn state has the bits of the one m legs
        # before it, then copies the last m legs over and over
        legs = len(flown)
        assert legs == result.replayed_from < len(result.impulses) == len(clean.impulses)
        assert result.impulses[:legs] == tuple(flown)
        tail = len(result.impulses) - legs
        copies = (flown[-m:] * config.laps)[:tail]
        assert [r.dv for r in result.impulses[legs:]] == [r.dv for r in copies]
        flown, asked = list(result.impulses), asked + (asked[-m:] * config.laps)[:tail]
    assert result.impulses == tuple(flown)
    assert result.total_dv == _in_burn_order(record.magnitude for record in flown)
    assert result.total_dv == pytest.approx(1.001 * sum(r.magnitude for r in asked), rel=1e-14)
    if config.maneuver_kind == "intercept_unforced":  # one burn: nothing corrects it
        assert result.total_dv == pytest.approx(1.001 * clean.total_dv, rel=1e-14)
    # each arrival is the truth coast of the sample before it plus the dv
    # flown there (the circle's start sample is already past its insertion)
    coast = _truth_coast(ORBIT, "cw", result.duration / (len(result.samples) - 1))
    burns = {record.t: record.dv for record in flown}
    for (t, rel), (_, arrival) in zip(result.samples, result.samples[1:]):
        dx, dy, dz = burns.get(t, (0.0, 0.0, 0.0))
        assert coast((*rel[:3], rel.vx + dx, rel.vy + dy, rel.vz + dz)) == arrival


def _hex(values):
    return [value.hex() for value in values]


@pytest.mark.parametrize("truth", ["cw", "two_body"])
@pytest.mark.parametrize("kind", ["circle_forced", "nmc_unforced"])
def test_leg_loop_is_the_flight_of_every_leg_bit_for_bit(kind, truth):
    # the loop stops flying once a lap starts from the last lap's bits and
    # copies that lap for the rest; the flight must still be, to the last
    # bit, the one that coasts and targets every leg
    for m, laps, size in itertools.product((3, 4, 8, 64), (2, 3, 10), (1.0, 50.0, 1000.0)):
        config = CampaignConfig(kind, 2000.0, size, m, truth_model=truth, laps=laps)
        result = run_campaign(config)
        arrivals, burns, total_dv, max_miss = ref.fly_every_leg(config)
        assert _hex(result.arrivals) == _hex(arrivals), config
        assert _hex(result.burns) == _hex(burns), config
        assert result.total_dv.hex() == total_dv.hex(), config
        assert result.max_waypoint_miss.hex() == max_miss.hex(), config


@pytest.mark.parametrize("size, count, repeats_at", [(50.0, 8, 11), (1.0, 4, 5), (50.0, 4, None)],
                         ids=["replays", "replays_mid_lap", "period_2"])
def test_leg_loop_coasts_until_a_lap_repeats_bit_for_bit(size, count, repeats_at):
    # the first burn whose post-burn state has the bits of the one m legs
    # before it is the last flown; at 50 km x 4 the CW lap map alternates
    # between two states and never repeats one lap to the next, so every leg
    # flies.  At 1 km x 4 it repeats at leg 5, and the tail of 35 legs is 8
    # laps and 3 legs
    config = forced(size, count, truth="cw", laps=10)
    arrivals, burns, _, _ = ref.fly_every_leg(config)

    def start(k):  # the post-burn state at k tau (the first sample is past its insertion)
        state = list(arrivals[6 * k:6 * k + 6])
        if k:
            for i in range(3):
                state[3 + i] += burns[3 * (k - 1) + i]
        return _hex(state)

    legs = config.laps * count
    assert next((k for k in range(count, legs) if start(k) == start(k - count)), None) == repeats_at
    result = run_campaign(config)
    assert result.replayed_from == repeats_at
    assert len(result.arrivals) == 6 * (legs + 1)


def test_leg_loop_packs_a_state_only_where_a_later_leg_can_repeat_it(monkeypatch):
    # a one-lap plan has no leg m legs after another, so it packs nothing; a
    # multi-lap plan that never repeats packs each post-burn state that a
    # later leg follows, the insertion's included: 40 of its 41
    import rpodsim.campaign

    packed = []

    def counted_bits(*state):
        packed.append(state)
        return original(*state)

    original = rpodsim.campaign._bits
    monkeypatch.setattr(rpodsim.campaign, "_bits", counted_bits)
    for config in (forced(50.0, 4, truth="cw"), unforced(10.0, 8),
                   CampaignConfig("intercept_forced", 2000.0, 10.0, 4, duration=3600.0)):
        assert run_campaign(config).replayed_from is None
    assert packed == []
    assert run_campaign(forced(50.0, 4, truth="cw", laps=10)).replayed_from is None
    assert len(packed) == 40


@pytest.mark.parametrize("name", list(_REPLAY_CASES))
def test_replay_row(name):
    # the replay table that python tests/pins.py flies: each campaign's
    # flight is, as float.hex, that of every leg, and repeats where pinned
    flown, pinned = fly_replay_row(name)
    assert flown == pinned


@pytest.mark.parametrize("m", [3, 4, 8])
@pytest.mark.parametrize("kind", ["circle_forced", "nmc_unforced"])
def test_burn_0_packs_the_post_insertion_state_into_slot_0(kind, m, monkeypatch):
    # no real campaign repeats the state just past its insertion, so a stub
    # truth coasts every leg onto the next waypoint, at rest.  Every later
    # burn then leaves from rest at a waypoint, as the circle's insertion
    # does, so the circle repeats at burn m, against slot 0; the NMC, whose
    # insertion sets the NMC velocity, repeats one burn later
    import rpodsim.campaign

    config = CampaignConfig(kind, 2000.0, 10.0, m, truth_model="cw", laps=4)
    plan = (waypoints_circle if kind == "circle_forced" else waypoints_nmc)(10.0, m)

    def onto_the_next_waypoint(orbit, model, tau):
        def coast(rel):
            return (*plan[(plan.index(tuple(rel[:2])) + 1) % m], 0.0, 0.0, 0.0, 0.0)
        return coast

    monkeypatch.setattr(rpodsim.campaign, "_truth_coast", onto_the_next_waypoint)
    result = run_campaign(config)
    assert result.replayed_from == m + (kind == "nmc_unforced")
    legs = config.laps * m
    assert len(result.arrivals) == 6 * (legs + 1) and len(result.burns) == 3 * legs
    assert result.burns == result.burns[:3 * m] * config.laps
    assert result.total_dv == _in_burn_order(record.magnitude for record in result.impulses)
    assert result.max_waypoint_miss == 0.0


def test_a_state_repeats_only_with_the_same_signed_zeros(monkeypatch):
    # == takes 0.0 for -0.0, so the loop compares a state's bytes.  A stub
    # truth coasts onto the next waypoint at rest and flips the sign of z's
    # zero; with 3 burns a lap, burn k's state differs from burn k - 3's only
    # in that sign, so no state repeats, every leg flies, and the sign
    # alternates on every arrival as the stub flew it
    import rpodsim.campaign

    config = forced(10.0, 3, truth="cw", laps=4)
    plan = waypoints_circle(10.0, 3)

    def onto_the_next_waypoint_flipping_z(orbit, model, tau):
        def coast(rel):
            return (*plan[(plan.index(tuple(rel[:2])) + 1) % 3], -rel[2], 0.0, 0.0, 0.0)
        return coast

    monkeypatch.setattr(rpodsim.campaign, "_truth_coast", onto_the_next_waypoint_flipping_z)
    result = run_campaign(config)
    assert result.replayed_from is None
    signs = [math.copysign(1.0, rel.z) for _, rel in result.samples]
    assert signs == [(-1.0) ** k for k in range(config.laps * 3 + 1)]


@pytest.mark.parametrize("model", ["cw", "two_body"])
def test_truth_coasts_return_six_plain_floats(model):
    # the coast a campaign flies returns a plain tuple of six floats, so no
    # leg builds a RelativeState; the library's coasts, which fly the same
    # operations, still return one, and every bit agrees, signed zeros too
    tau = ORBIT.period / 7
    coast = _truth_coast(ORBIT, model, tau)
    states = [
        RelativeState(10.0, -0.0, 0.0, 1e-3, -0.0, 2e-4),
        RelativeState(-0.0, 3.0, -1.0, -0.0, 1e-3, -0.0),
        nmc_initial_state(25.0, ORBIT.n),
    ]
    for rel in states:
        if model == "cw":
            library = propagate_cw(rel, ORBIT.n, tau)
        else:
            library = eci_to_hill(ORBIT, propagate_two_body(hill_to_eci(ORBIT, 0.0, rel), tau))
        assert type(library) is RelativeState
        for state in (rel, tuple(rel)):
            leg = coast(state)
            assert type(leg) is tuple and [type(v) for v in leg] == [float] * 6
            assert [v.hex() for v in leg] == [v.hex() for v in library], (model, state)


def test_campaigns_fly_without_relative_states(monkeypatch):
    # from insertion to output the flown state is six plain floats: with the
    # name RelativeState gone from every module a leg runs through, both
    # truths fly every kind, to the same result, until a view is built
    import rpodsim.campaign
    import rpodsim.frames

    configs = [
        config
        for truth in ("cw", "two_body")
        for config in (
            forced(20.0, 5, truth=truth, laps=2),
            unforced(20.0, 5, truth=truth, laps=2),
            CampaignConfig("intercept_unforced", 2000.0, 10.0, 1, duration=3600.0,
                           truth_model=truth),
            CampaignConfig("intercept_forced", 2000.0, 10.0, 4, duration=3600.0,
                           truth_model=truth),
        )
    ]
    for module in (rpodsim.frames, rpodsim.campaign):
        monkeypatch.setattr(module, "RelativeState", None)
    results = [run_campaign(config) for config in configs]
    monkeypatch.undo()
    for config, result in zip(configs, results):
        assert not {"samples", "impulses"} & vars(result).keys()
        assert result == run_campaign(config)
        assert {type(rel) for _, rel in result.samples} == {RelativeState}


def _tracked_below(root):
    """Objects the garbage collector tracks among those reachable from root,
    classes left out, since every instance reaches its class."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


def test_a_result_keeps_no_tracked_object_per_leg():
    # every collection rescans each tracked object that survives it; a result
    # keeps its flight as tuples of floats, which the first collection
    # untracks, so ten laps leave the collector no more to scan than one
    results = [run_campaign(unforced(10.0, 8, truth="cw", laps=laps)) for laps in (1, 10)]
    gc.collect()
    one_lap, ten_laps = map(_tracked_below, results)
    assert one_lap == ten_laps
    assert not any({"samples", "impulses"} & vars(result).keys() for result in results)


# float.hex of (t, x, y, z, vx, vy, vz) for each sample and of
# (t, dvx, dvy, dvz, magnitude) for each impulse, as the views read before
# the flight was kept in flat logs
_VIEW_BITS = {
    "nmc_unforced": (
        [
            "0x0.0p+0 0x1.0000000000000p+0 -0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.afa2ce44febc4p-10"
            " 0x0.0p+0",
            "0x1.3dfed6bd7d16cp+11 -0x1.0023317fed8ccp-1 -0x1.bb5e59caecab2p+0 0x0.0p+0"
            " -0x1.75cec4b24939ep-11 0x1.afc079db5ed17p-11 -0x0.0p+0",
            "0x1.3dfed6bd7d16cp+12 -0x1.ff96661707d98p-2 0x1.bb4ea517e1906p+0 0x0.0p+0"
            " 0x1.75d489e144269p-11 0x1.af3a23af7cab0p-11 -0x0.0p+0",
            "0x1.dcfe421c3ba22p+12 0x1.002bff9b0916ap+0 -0x1.1af20ef1b1a00p-10 0x0.0p+0"
            " 0x1.008ca1022da29p-21 -0x1.afd12d928b5a7p-10 -0x0.0p+0",
        ],
        [
            "0x1.3dfed6bd7d16cp+11 0x1.2898203b1d000p-22 0x1.c0a2b47f24000p-24 0x0.0p+0"
            " 0x1.3d17b935864bbp-22",
            "0x1.3dfed6bd7d16cp+12 -0x1.17a16b8601c00p-21 0x1.4c9a6eb3d9000p-22 0x0.0p+0"
            " 0x1.45585c72220ccp-21",
            "0x1.dcfe421c3ba22p+12 -0x1.82d1928947d14p-20 -0x1.7c6015b9c8000p-25 0x0.0p+0"
            " 0x1.830050f8991f4p-20",
        ],
    ),
    "intercept_forced": (
        [
            "0x0.0p+0 0x1.4000000000000p+3 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x1.c200000000000p+10 0x1.4000000000000p+2 -0x1.8000000000000p-48 0x0.0p+0"
            " 0x1.a9683a6778374p-8 -0x1.820887cf8bc00p-12 0x0.0p+0",
            "0x1.c200000000000p+11 0x0.0p+0 -0x1.8000000000000p-49 0x0.0p+0"
            " 0x1.5c0e95ed50ce0p-11 0x1.579ca63b83ca4p-9 0x0.0p+0",
        ],
        [
            "0x0.0p+0 -0x1.68257e4af9112p-7 -0x1.19d605299b93ep-7 0x0.0p+0 0x1.c950a40107467p-7",
            "0x1.c200000000000p+10 -0x1.7de667a9ce1dep-7 -0x1.579ca63b83ca4p-8 0x0.0p+0"
            " 0x1.a2c41489cf927p-7",
        ],
    ),
}


@pytest.mark.parametrize(
    "config",
    [
        unforced(1.0, 3),
        CampaignConfig("intercept_forced", 2000.0, 10.0, 2, duration=3600.0, truth_model="cw"),
        pytest.param(forced(20.0, 8, truth="cw", laps=10), id="circle_forced-cw-replayed"),
    ],
    ids=lambda config: f"{config.maneuver_kind}-{config.truth_model}",
)
def test_samples_and_impulses_are_cached_views_of_the_flight(config):
    # a result stores only the legs it flew; arrivals and burns, and the
    # views on them, are built on first access, bit for bit and type for
    # type as a result held them when it kept every leg and one object per
    # leg.  Building them changes neither the hash nor equality, copies or
    # pickles
    result = run_campaign(config)
    assert not {"arrivals", "burns", "samples", "impulses"} & vars(result).keys()
    bare = (run_campaign(config), pickle.loads(pickle.dumps(result)), copy.deepcopy(result))
    arrivals, burns = result.arrivals, result.burns
    assert result.arrivals is arrivals and result.burns is burns
    if result.replayed_from is None:  # nothing was copied: the views are the stored logs
        assert arrivals is result.flown_arrivals and burns is result.flown_burns
    else:
        every_arrival, every_burn, _, _ = ref.fly_every_leg(config)
        assert _hex(arrivals) == _hex(every_arrival) and _hex(burns) == _hex(every_burn)
        assert len(result.flown_burns) == 3 * result.replayed_from < len(burns)
    samples, impulses = result.samples, result.impulses
    assert result.samples is samples and result.impulses is impulses
    assert type(samples) is tuple and type(impulses) is tuple
    assert {type(pair) for pair in samples} == {tuple}
    assert {(type(t), type(rel)) for t, rel in samples} == {(float, RelativeState)}
    assert {(type(record), type(record.dv)) for record in impulses} == {(ImpulseRecord, Vector3)}
    if result.replayed_from is None:
        sample_bits, impulse_bits = _VIEW_BITS[config.maneuver_kind]
        assert [" ".join(v.hex() for v in (t, *rel)) for t, rel in samples] == sample_bits
        assert [" ".join(v.hex() for v in (r.t, *r.dv, r.magnitude))
                for r in impulses] == impulse_bits
    for twin in (*bare, pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert twin == result and hash(twin) == hash(result)
        assert twin.arrivals == arrivals and twin.burns == burns
        assert twin.samples == samples and twin.impulses == impulses
    assert run_campaign(unforced(1.0, 4)) != result


def test_a_replayed_sweep_stores_only_the_legs_it_flew():
    # the benchmark's sweep_cw_laps grid at seed 0 flies 2,340 of its 19,840
    # legs; its results store those alone and build the rest when read
    results = sweep_circumnavigation((1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 750.0, 1000.0),
                                     (4, 8, 16, 32, 64), 2000.0, truth_model="cw", laps=10)
    assert sum(len(result.flown_burns) for result in results) == 3 * 2340
    assert sum(len(result.burns) for result in results) == 3 * 19840


def test_cw_truth_never_builds_inertial_states(monkeypatch):
    # under CW truth the campaign stays in the Hill frame: no chaser is lifted
    # to inertial floats, no Kepler coast is solved and no InertialState is
    # built.  These are the names the two-body leg flies, so a CW campaign
    # routed through it fails here
    import rpodsim.dynamics

    def refuse(*args, **kwargs):
        raise AssertionError("CW truth built an inertial state")

    monkeypatch.setattr(rpodsim.dynamics, "_to_eci", refuse)
    monkeypatch.setattr(rpodsim.dynamics, "_coast", refuse)
    monkeypatch.setattr(InertialState, "__new__", refuse)
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
    monkeypatch.setattr(InertialState, "__new__", refuse)
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
    # a transfer from the chief to the chief is no comparison of arms: a zero
    # offset, -0.0 too, is refused under either truth
    for offset, truth in ((0.0, "two_body"), (0.0, "cw"), (-0.0, "cw")):
        with pytest.raises(ValueError, match="size must be positive"):
            intercept_experiment(offset, 3600.0, [4], 2000.0, truth_model=truth)


@pytest.mark.parametrize("altitude", [300.0, 2000.0, 35786.0])
def test_cw_floor_scales_every_arm_exactly(altitude):
    # CW truth is linear in the size: from the smallest size it accepts up,
    # every arm costs size x its 1 km cost, where a subnormal 1e-310 km once
    # flew 3.6e-10 off; the unforced NMC's total is rounding at every size,
    # so its insertion carries its cost
    floor = sys.float_info.min / TargetOrbit.from_altitude(altitude).n ** 2
    with pytest.raises(ValueError, match="which CW truth cannot resolve"):
        intercept_experiment(math.nextafter(floor, 0.0), 3600.0, [2], altitude, truth_model="cw")

    def arms(size):
        configs = [CampaignConfig(kind, altitude, size, m, truth_model="cw")
                   for m in (3, 4, 64) for kind in ("circle_forced", "nmc_unforced")]
        return [run_campaign(config) for config in configs] + intercept_experiment(
            size, 3600.0, [2, 3, 4, 8, 16], altitude, truth_model="cw")

    for size in (floor, 10.0 * floor):
        for arm, one_km in zip(arms(size), arms(1.0)):
            assert arm.max_waypoint_miss < 1e-13 * size
            costs = [(arm.insertion_dv, one_km.insertion_dv)]
            if arm.config.maneuver_kind == "nmc_unforced":
                assert arm.total_dv < 1e-12 * arm.insertion_dv
            else:
                costs.append((arm.total_dv, one_km.total_dv))
            for cost, cost_at_1_km in costs:
                assert abs(cost - size * cost_at_1_km) <= 1e-14 * size * cost_at_1_km


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
