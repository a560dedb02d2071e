"""Workload inputs come from the seed alone."""

import json
from itertools import islice

import numpy as np

from perfbench import schedule
from perfbench.common import load_config

CFG = load_config()


def _sweeps(seed, length=64):
    return list(islice(schedule.sweep_schedule(seed, CFG["sweeps"]["mix"]), length))


def _model(seed, stream=0, count=200):
    return schedule.model_requests(seed, stream, count, CFG["model"]["mix"])


def test_sweep_schedules_are_byte_identical_for_one_seed_and_differ_across_seeds():
    assert _sweeps(7) == _sweeps(7)
    assert [op.body for op in _sweeps(7)] != [op.body for op in _sweeps(8)]
    # The stream has no end, and a longer take only extends a shorter one.
    assert _sweeps(7, length=500)[:64] == _sweeps(7)


def test_sweep_mix_is_exact_per_block_and_hits_repeat_earlier_misses():
    mix = CFG["sweeps"]["mix"]
    block = len(mix["block"])
    ops = _sweeps(3, length=block * 10)
    for start in range(0, len(ops), block):
        kinds = sorted(
            "hit" if op.hit_of is not None
            else op.kind + (":cluster" if b'"execution":"cluster"' in op.body else "")
            for op in ops[start:start + block]
        )
        assert kinds == sorted(mix["block"])
    seeds = set()
    for i, op in enumerate(ops):
        if op.hit_of is None:
            body = json.loads(op.body)
            assert body["params"] == mix["grids"][op.kind]
            seeds.add(body["seed"])
        else:
            assert op.hit_of < i and ops[op.hit_of].hit_of is None
            assert op.body == ops[op.hit_of].body
    assert len(seeds) == sum(op.hit_of is None for op in ops)


def test_model_requests_and_arrivals_are_seeded():
    one, two = _model(11), _model(11)
    assert [(r.target, r.body) for r in one] == [(r.target, r.body) for r in two]
    assert [(r.target, r.body) for r in one] != [(r.target, r.body) for r in _model(12)]
    assert [(r.target, r.body) for r in one] != [(r.target, r.body) for r in _model(11, 1)]
    a = schedule.open_loop_arrivals(5, 300.0, 2.0)
    assert np.array_equal(a, schedule.open_loop_arrivals(5, 300.0, 2.0))
    assert not np.array_equal(a[:100], schedule.open_loop_arrivals(6, 300.0, 2.0)[:100])
    assert np.all(np.diff(a) > 0) and a[-1] < 2.0


def test_model_mix_is_exact_per_block_and_sizes_are_stratified():
    mix = CFG["model"]["mix"]
    units = sum(mix["modes"].values())
    block = units * (1 + mix["scalars_per_batch"])
    reqs = _model(2, count=block * mix["size_strata"])
    batches = [r for r in reqs if r.method == "POST"]
    assert len(batches) == units * mix["size_strata"]
    assert all(1 <= r.points <= mix["batch_max"] for r in batches)
    for start in range(0, len(reqs), block):
        chunk = reqs[start:start + block]
        assert sum(r.method == "POST" for r in chunk) == units
        assert sum(r.endpoint == "birthday" for r in chunk) == (
            (mix["modes"]["birthday-people"] + mix["modes"]["birthday-target"])
            * (1 + mix["scalars_per_batch"])
        )
    log_max = np.log(mix["batch_max"] + 1)
    midpoints = sorted(
        int(np.exp((k + 0.5) / mix["size_strata"] * log_max))
        for k in range(mix["size_strata"])
    )
    for mode in ("target", "people"):
        sizes = sorted(r.points for r in batches if mode in r.params)
        assert sizes == midpoints


def test_saturation_pool_is_batches_only_within_its_size_range():
    model = CFG["model"]
    mix = {**model["mix"], **model["saturation_mix"]}
    units = sum(mix["modes"].values())
    reqs = schedule.model_requests(4, 1, units * mix["size_strata"], mix)
    assert all(r.method == "POST" for r in reqs)
    assert all(mix["batch_min"] <= r.points <= mix["batch_max"] for r in reqs)
    lo, hi = np.log(mix["batch_min"]), np.log(mix["batch_max"] + 1)
    midpoints = sorted(
        int(np.exp(lo + (k + 0.5) / mix["size_strata"] * (hi - lo)))
        for k in range(mix["size_strata"])
    )
    for mode in ("target", "people"):
        assert sorted(r.points for r in reqs if mode in r.params) == midpoints
