"""Expected model-endpoint response bytes, computed in process.

Each function builds the JSON body the server must send for one request
straight from the ``repro.core`` forms, so a response can be checked
byte for byte before any latency it carries is trusted.  Scalar GETs
use the batch forms on one point, because the server micro-batches
them and the batch-identity contract makes every element equal to the
point evaluated alone.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

import numpy as np

from repro.core.birthday import (
    birthday_collision_probability,
    birthday_collision_probability_batch,
    people_for_collision_probability,
    people_for_collision_probability_batch,
)
from repro.core.model import (
    ModelParams,
    conflict_likelihood,
    conflict_likelihood_batch,
    conflict_likelihood_product_form_batch,
)
from repro.core.sizing import (
    pow2_table_entries_for_commit_probability,
    pow2_table_entries_for_commit_probability_batch,
    table_entries_for_commit_probability,
    table_entries_for_commit_probability_batch,
)

__all__ = ["expected_body", "expected_digest"]


def _ints(values: Any) -> list[int]:
    return [int(v) for v in values]


def _floats(values: Any) -> list[float]:
    return [float(v) for v in values]


def _scalar_payload(endpoint: str, q: Mapping[str, Any]) -> dict[str, Any]:
    if endpoint == "conflict":
        w, n, c, alpha = float(q["w"]), int(q["n"]), int(q["c"]), float(q["alpha"])
        raw = conflict_likelihood_batch((w,), (n,), (c,), (alpha,)).tolist()[0]
        prob = conflict_likelihood_product_form_batch((w,), (n,), (c,), (alpha,)).tolist()[0]
        return {"w": w, "n": n, "c": c, "alpha": alpha, "raw": raw,
                "conflict_probability": prob, "commit_probability": 1.0 - prob}
    if endpoint in ("sizing", "capacity"):
        w, commit = int(q["w"]), float(q["commit"])
        c, alpha = int(q["c"]), float(q["alpha"])
        entries = table_entries_for_commit_probability(
            w, commit, concurrency=c, alpha=alpha
        )
        if endpoint == "sizing":
            return {"w": w, "commit": commit, "c": c, "alpha": alpha,
                    "entries": entries, "mib_at_8_bytes": entries * 8 / (1 << 20)}
        pow2 = pow2_table_entries_for_commit_probability(
            w, commit, concurrency=c, alpha=alpha
        )
        raw = float(conflict_likelihood(
            float(w), ModelParams(n_entries=pow2, concurrency=c, alpha=alpha)
        ))
        return {"w": w, "commit": commit, "c": c, "alpha": alpha,
                "entries": entries, "entries_pow2": pow2,
                "log2_entries_pow2": pow2.bit_length() - 1,
                "mib_at_8_bytes": pow2 * 8 / (1 << 20),
                "achieved_commit_probability": 1.0 - raw}
    days = int(q["days"])
    if "people" in q:
        people = int(q["people"])
        return {"people": people, "days": days,
                "collision_probability": birthday_collision_probability(people, days=days)}
    target = float(q["target"])
    people = people_for_collision_probability(target, days=days)
    return {"target": target, "days": days, "people": people,
            "collision_probability": birthday_collision_probability(people, days=days),
            "occupancy_at_threshold": people / days}


def _batch_payload(endpoint: str, b: Mapping[str, Any]) -> dict[str, Any]:
    if endpoint == "conflict":
        raw = conflict_likelihood_batch(b["w"], b["n"], b["c"], b["alpha"])
        prob = conflict_likelihood_product_form_batch(b["w"], b["n"], b["c"], b["alpha"])
        return {"count": len(b["w"]), "w": _floats(b["w"]), "n": _ints(b["n"]),
                "c": _ints(b["c"]), "alpha": _floats(b["alpha"]),
                "raw": raw.tolist(), "conflict_probability": prob.tolist(),
                "commit_probability": (1.0 - prob).tolist()}
    if endpoint in ("sizing", "capacity"):
        entries = table_entries_for_commit_probability_batch(
            b["w"], b["commit"], concurrency=b["c"], alpha=b["alpha"]
        )
        head = {"count": len(b["w"]), "w": _ints(b["w"]),
                "commit": _floats(b["commit"]), "c": _ints(b["c"]),
                "alpha": _floats(b["alpha"]), "entries": entries.tolist()}
        if endpoint == "sizing":
            head["mib_at_8_bytes"] = (entries.astype(np.float64) * 8 / (1 << 20)).tolist()
            return head
        pow2 = pow2_table_entries_for_commit_probability_batch(
            b["w"], b["commit"], concurrency=b["c"], alpha=b["alpha"]
        )
        raw = conflict_likelihood_batch(b["w"], pow2, b["c"], b["alpha"])
        head["entries_pow2"] = pow2.tolist()
        head["log2_entries_pow2"] = (
            np.log2(pow2.astype(np.float64)).astype(np.int64).tolist()
        )
        head["mib_at_8_bytes"] = (pow2.astype(np.float64) * 8 / (1 << 20)).tolist()
        head["achieved_commit_probability"] = (1.0 - raw).tolist()
        return head
    if "people" in b:
        prob = birthday_collision_probability_batch(b["people"], b["days"])
        return {"count": len(b["people"]), "people": _ints(b["people"]),
                "days": _ints(b["days"]), "collision_probability": prob.tolist()}
    people = people_for_collision_probability_batch(b["target"], b["days"])
    days = np.asarray(b["days"], dtype=np.int64)
    prob = birthday_collision_probability_batch(people, days)
    return {"count": len(b["target"]), "target": _floats(b["target"]),
            "days": _ints(b["days"]), "people": people.tolist(),
            "collision_probability": prob.tolist(),
            "occupancy_at_threshold": (people / days).tolist()}


def expected_body(endpoint: str, method: str, params: Mapping[str, Any]) -> bytes:
    """The exact response body the server sends for one model request."""
    payload = (_batch_payload if method == "POST" else _scalar_payload)(endpoint, params)
    return (json.dumps(payload, allow_nan=False) + "\n").encode("utf-8")


def expected_digest(endpoint: str, method: str, params: Mapping[str, Any]) -> bytes:
    """SHA-256 of :func:`expected_body` (batch answers run to megabytes)."""
    return hashlib.sha256(expected_body(endpoint, method, params)).digest()
