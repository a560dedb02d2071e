"""Engine registry and selection, keyed by simulation kind.

Each *kind* of simulation ships interchangeable engines:

* ``kind="closed"`` — the §4 closed-system protocol (Figures 5–6):
  ``"reference"`` is :func:`repro.sim.closed_system.simulate_closed_system`,
  the straightforward transcription of the paper's protocol; ``"fast"``
  is :func:`repro.sim.closed_fast.simulate_closed_system_fast`.
* ``kind="trace"`` — the §2.2 trace-driven aliasing study (Figure 2):
  ``"reference"`` is
  :func:`repro.sim.trace_driven.simulate_trace_aliasing`; ``"fast"`` is
  :func:`repro.sim.trace_fast.simulate_trace_aliasing_fast`.
* ``kind="overflow"`` — the §2.3 HTM overflow characterization
  (Figure 3): ``"reference"`` is
  :func:`repro.sim.overflow.simulate_htm_overflow`, a per-access replay
  through :class:`repro.htm.htm.HTMContext`; ``"fast"`` is
  :func:`repro.sim.overflow_fast.simulate_htm_overflow_fast`.
* ``kind="open"`` — the §4 open-system set (Figures 4/6): the reference
  :func:`repro.sim.open_system.simulate_open_system` is already fully
  vectorized, so the ``"fast"`` entry aliases it — the kind exists so
  every figure's sweep resolves through one registry.

Every fast engine consumes the same RNG stream in the same order as its
reference and returns **byte-identical** result fields; the differential
suites (``tests/sim/test_closed_fast.py``, ``tests/sim/test_trace_fast.py``,
``tests/sim/test_overflow_fast.py`` — all built on
``tests/sim/engine_contract.py``) enforce exact equality on every PR,
and the speedup benchmarks enforce the perf bar.  The per-kind default
is therefore ``"fast"`` — callers cannot observe which engine ran,
except on the clock.

Every surface that runs points (CLI subcommands, the sweep-kind table in
:mod:`repro.sim.catalog`, and — since the engine name is a JSON-safe
string riding in point kwargs — the cluster wire format) threads an
``engine`` parameter down to :func:`get_engine`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.closed_fast import simulate_closed_system_fast
from repro.sim.closed_system import simulate_closed_system
from repro.sim.open_system import simulate_open_system
from repro.sim.overflow import simulate_htm_overflow
from repro.sim.overflow_fast import simulate_htm_overflow_fast
from repro.sim.trace_driven import simulate_trace_aliasing
from repro.sim.trace_fast import simulate_trace_aliasing_fast

__all__ = [
    "DEFAULT_ENGINES",
    "ENGINES",
    "available_engines",
    "get_engine",
]

#: Kind -> engine name -> simulator callable.  The open-system reference
#: is already vectorized, so its "fast" entry aliases it: selection
#: costs nothing and every kind exposes the same two names.
ENGINES: dict[str, dict[str, Callable]] = {
    "closed": {
        "reference": simulate_closed_system,
        "fast": simulate_closed_system_fast,
    },
    "open": {
        "reference": simulate_open_system,
        "fast": simulate_open_system,
    },
    "overflow": {
        "reference": simulate_htm_overflow,
        "fast": simulate_htm_overflow_fast,
    },
    "trace": {
        "reference": simulate_trace_aliasing,
        "fast": simulate_trace_aliasing_fast,
    },
}

#: Human-readable kind names, used in help/error text.
_KIND_DISPLAY = {
    "closed": "closed-system",
    "open": "open-system",
    "overflow": "overflow",
    "trace": "trace-driven",
}

#: Per-kind engine used when callers do not ask for one.  "fast" is safe
#: as the default because the differential suites prove byte-identity.
DEFAULT_ENGINES: dict[str, str] = {
    "closed": "fast",
    "open": "fast",
    "overflow": "fast",
    "trace": "fast",
}


def _check_kind(kind: str) -> None:
    if kind not in ENGINES:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(f"unknown engine kind {kind!r}; expected one of: {known}")


def available_engines(kind: str) -> tuple[str, ...]:
    """The selectable engine names of a kind, sorted for stable text."""
    _check_kind(kind)
    return tuple(sorted(ENGINES[kind]))


def get_engine(kind: str, name: Optional[str] = None) -> Callable:
    """Resolve an engine name (``None`` means the kind's default).

    Raises :class:`ValueError` for unknown kinds or names, listing the
    known ones — CLI and service surfaces forward that message verbatim.
    """
    _check_kind(kind)
    if name is None:
        name = DEFAULT_ENGINES[kind]
    try:
        return ENGINES[kind][name]
    except KeyError:
        known = ", ".join(available_engines(kind))
        raise ValueError(
            f"unknown {_KIND_DISPLAY[kind]} engine {name!r}; expected one of: {known}"
        ) from None

