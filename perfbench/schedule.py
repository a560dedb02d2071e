"""Seeded request schedules: the only place workload inputs come from.

The workload seed is an argument of the benchmark; the program sees
only what these functions generate from it.  The same seed gives
byte-identical schedules and bodies, a different seed different ones.
Everything the mix depends on is fixed in ``config.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence
from urllib.parse import urlencode

import numpy as np

__all__ = [
    "ModelRequest",
    "SweepOp",
    "model_requests",
    "open_loop_arrivals",
    "sweep_schedule",
]


def _dumps(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class SweepOp:
    """One sweep submission: a fresh body (miss) or a repeat (hit)."""

    body: bytes
    kind: str
    hit_of: Optional[int]  # index in the same stream of the miss it repeats


def sweep_schedule(seed: int, mix: Mapping[str, Any]) -> Iterator[SweepOp]:
    """The closed-loop client's submissions, without end.

    The client takes ops until its deadline, so the run is as long as
    asked however fast the server is; the first ``k`` ops depend only on
    the seed.  The stream is cut into blocks of
    ``mix["block"]`` kinds, shuffled per block so every run has exactly
    the same kind proportions.  ``hit`` slots repeat an earlier miss of
    the same stream (so the repeat is always already computed), a kind
    written ``kind:cluster`` is sent with ``"execution": "cluster"``, and
    every miss carries a fresh sweep seed, which makes it a cache miss.
    """
    rng = np.random.default_rng([seed, 0x5EE9])
    block = list(mix["block"])
    grids = mix["grids"]
    misses: list[tuple[int, SweepOp]] = []  # (stream index, op)
    used_seeds: set[int] = set()
    index = 0
    while True:
        order = [block[i] for i in rng.permutation(len(block))]
        if not misses and order[0] == "hit":
            # A stream cannot open with a repeat: rotate the first miss forward.
            first = next(i for i, k in enumerate(order) if k != "hit")
            order.insert(0, order.pop(first))
        for entry in order:
            kind, _, execution = entry.partition(":")
            if kind == "hit":
                target, miss = misses[int(rng.integers(len(misses)))]
                op = SweepOp(miss.body, miss.kind, target)
            else:
                sweep_seed = int(rng.integers(1, 2**31))
                while sweep_seed in used_seeds:
                    sweep_seed = int(rng.integers(1, 2**31))
                used_seeds.add(sweep_seed)
                body: dict[str, Any] = {
                    "kind": kind, "params": grids[kind], "seed": sweep_seed,
                }
                if execution:
                    body["execution"] = execution
                op = SweepOp(_dumps(body), kind, None)
                misses.append((index, op))
            yield op
            index += 1


@dataclass(frozen=True)
class ModelRequest:
    """One model-endpoint request and how many points it asks for."""

    endpoint: str
    method: str
    target: str
    body: Optional[bytes]
    points: int
    params: dict  # the query (GET) or body (POST) values, decoded


def _pick(rng: np.random.Generator, values: Sequence[Any]) -> Any:
    return values[int(rng.integers(len(values)))]


def _path(mode: str) -> str:
    return "/v1/birthday" if mode.startswith("birthday") else f"/v1/model/{mode}"


def _scalar(rng: np.random.Generator, mode: str,
            space: Mapping[str, Sequence[Any]]) -> ModelRequest:
    c = int(_pick(rng, space["c"]))
    alpha = float(_pick(rng, space["alpha"]))
    if mode == "conflict":
        w = float(_pick(rng, space["w"]))
        n = int(_pick(rng, space["n"]))
        query: dict[str, Any] = {"w": w, "n": n, "c": c, "alpha": alpha}
    elif mode in ("sizing", "capacity"):
        w = int(_pick(rng, space["w"]))
        commit = float(_pick(rng, space["commit"]))
        query = {"w": w, "commit": commit, "c": c, "alpha": alpha}
    elif mode == "birthday-people":
        people = int(_pick(rng, space["people"]))
        query = {"people": people, "days": int(_pick(rng, space["days"]))}
    else:
        target = float(_pick(rng, space["target"]))
        query = {"target": target, "days": int(_pick(rng, space["days"]))}
    endpoint = mode.split("-")[0]
    return ModelRequest(endpoint, "GET", f"{_path(mode)}?{urlencode(query)}",
                        None, 1, query)


def _batch(rng: np.random.Generator, mode: str, size: int,
           space: Mapping[str, Sequence[Any]]) -> ModelRequest:
    def column(name: str, cast: type) -> list[Any]:
        values = space[name]
        return [cast(values[i]) for i in rng.integers(len(values), size=size)]

    if mode == "conflict":
        body = {"w": column("w", float), "n": column("n", int), "c": column("c", int),
                "alpha": column("alpha", float)}
    elif mode in ("sizing", "capacity"):
        body = {"w": column("w", int), "commit": column("commit", float),
                "c": column("c", int), "alpha": column("alpha", float)}
    elif mode == "birthday-people":
        body = {"people": column("people", int), "days": column("days", int)}
    else:
        body = {"target": column("target", float), "days": column("days", int)}
    endpoint = mode.split("-")[0]
    return ModelRequest(endpoint, "POST", _path(mode), _dumps(body), size, body)


def model_requests(seed: int, stream: int, count: int,
                   mix: Mapping[str, Any]) -> list[ModelRequest]:
    """``count`` model requests from the fixed mix, stratified.

    Requests come in shuffled blocks with exact proportions: every unit
    of ``mix["modes"]`` weight contributes one batch POST and
    ``mix["scalars_per_batch"]`` scalar GETs of that mode.  Batch sizes
    follow a log-uniform law from ``mix["batch_min"]`` (1 when absent) to
    ``mix["batch_max"]`` points,
    stratified per mode: each run of ``mix["size_strata"]`` batches of a
    mode takes the midpoint of every stratum once, in seeded order.  A
    seed thus changes values and order but not the workload's make-up,
    which keeps the cost of a run, dominated by the largest batches,
    comparable from seed to seed.
    Parameter values are drawn from ``mix["space"]``.
    """
    rng = np.random.default_rng([seed, stream, 0x30DE1])
    space = mix["space"]
    strata = mix["size_strata"]
    log_min = np.log(mix.get("batch_min", 1))
    log_max = np.log(mix["batch_max"] + 1)
    block = [
        (mode, batch)
        for mode, weight in mix["modes"].items()
        for _ in range(weight)
        for batch in [True] + [False] * mix["scalars_per_batch"]
    ]
    pending: dict[str, list[int]] = {mode: [] for mode in mix["modes"]}
    out: list[ModelRequest] = []
    while len(out) < count:
        for i in rng.permutation(len(block)):
            if len(out) >= count:
                break
            mode, batch = block[i]
            if not batch:
                out.append(_scalar(rng, mode, space))
                continue
            if not pending[mode]:
                pending[mode] = [int(k) for k in rng.permutation(strata)]
            stratum = pending[mode].pop()
            size = int(np.exp(log_min + (stratum + 0.5) / strata * (log_max - log_min)))
            out.append(_batch(rng, mode, min(max(1, size), mix["batch_max"]), space))
    return out


def open_loop_arrivals(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrival offsets (seconds from phase start) over ``seconds``."""
    rng = np.random.default_rng([seed, 0xA441])
    expected = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    return offsets[offsets < seconds]
