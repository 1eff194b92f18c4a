"""The per-quantum reference engine for the coalesced slice scheduler.

:class:`~repro.mpos.scheduler.CoreScheduler` coalesces quantum slices
into window events whenever :meth:`CoreScheduler._begin_coalesced`
opens a window, and falls back to one kernel event per quantum
(``_begin_single_slice``) when it returns False.  Forcing that return
value runs the per-quantum engine the coalesced one must match bit for
bit; the differential tests and ``benchmarks/test_event_path.py``
reach the oracle only through the two helpers below.

A forced scheduler never opens a window, so its ``slices_coalesced``
stays 0 — callers assert that, which catches an oracle that silently
stopped forcing anything.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.mpos.scheduler import CoreScheduler


def _no_window(*_args) -> bool:
    return False


def force_per_quantum(*schedulers: CoreScheduler) -> None:
    """Make these scheduler instances run one kernel event per quantum.

    Per instance, so a differential test can run both engines side by
    side in one process.
    """
    for scheduler in schedulers:
        scheduler._begin_coalesced = _no_window


@contextlib.contextmanager
def per_quantum_everywhere():
    """Every scheduler runs per quantum inside the ``with`` block.

    Class-wide, for whole runs and campaigns whose schedulers are built
    out of reach; pool workers forked inside the block inherit it.
    """
    with mock.patch.object(CoreScheduler, "_begin_coalesced", _no_window):
        yield
