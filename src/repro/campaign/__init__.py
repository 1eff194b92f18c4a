"""Campaign subsystem: registries, backends, engine, store, goldens.

Registry entry points owned by this package:
:data:`~repro.campaign.spec.campaign_registry`
(``@register_campaign`` — named campaign factories, ``repro campaign
--list-campaigns``) and
:data:`~repro.campaign.backends.backend_registry`
(``@register_backend`` — execution strategies, ``--backend``).

Turns the one-shot experiment runner into a scalable experiment
service, split into separable layers:

* **Scenario registries** (``repro.policies.registry``,
  ``repro.streaming.registry``, ``repro.platform.registry``,
  ``repro.thermal.registry``) — decorator-based name -> component maps
  behind every ``ExperimentConfig`` field, so new scenarios plug in
  without touching the runner.  :class:`SystemBuilder` composes the
  resolved components into a runnable system.
* **Execution backends** (:mod:`repro.campaign.backends`) — pluggable
  strategies for *how* a batch of simulations runs: ``serial``
  (warm-up groups, in-process or sliced over a worker pool),
  ``vectorized`` (lockstep groups, one batched thermal advance per
  sensor epoch) and ``distributed`` (the fabric below).  All
  backends are byte-identical in their results; they only trade
  wall-clock time.
* **Result store** (:mod:`repro.campaign.store`) — a queryable SQLite
  table of completed runs (one flat row per run, keyed by config hash
  and campaign name) that doubles as the cross-session cache and the
  CSV export surface; remotely produced rows import through the
  idempotent :meth:`ResultStore.merge_from`.
* **Campaign fabric** (:mod:`repro.campaign.fabric`) — a durable
  SQLite work queue plus coordinator/worker loops behind the
  ``distributed`` backend: campaigns journal their configs, fan out
  over supervised worker processes, survive worker loss (lease
  timeouts, bounded retries) and resume after a kill byte-identically
  to a serial pass (``repro worker``, ``repro queue``).
* **Golden baselines** (:mod:`repro.campaign.golden`) — committed,
  tolerance-gated snapshots of a campaign's metric rows
  (``repro baseline record/check/promote``); the regression gate CI
  runs against every solver/backend combination.

:class:`CampaignRunner` ties the layers together: dedup by config
hash, serve cached rows from the store, execute the rest through the
chosen backend, persist fresh rows back.  :func:`sweep` / named
campaigns describe the configurations; ``repro campaign``, ``repro
sweep`` and ``repro results`` are the CLI entry points, and the
figure/ablation/scaling layers read through :func:`shared_runner` so
``--cache-dir`` regenerates analyses from stored rows, simulating only
what is missing.

Adding a scenario end-to-end::

    from repro.campaign import CampaignRunner, sweep
    from repro.policies.registry import register_policy

    @register_policy("my-policy")
    def _factory(config):
        return MyPolicy(threshold_c=config.threshold_c)

    result = CampaignRunner(workers=8).run(
        sweep(policy="my-policy", threshold_c=(1.0, 2.0, 3.0, 4.0),
              package=("mobile", "highperf")))
    print(result.to_text())
"""

from repro.campaign.backends import (
    ExecutionBackend,
    ExecutionContext,
    backend_registry,
    make_backend,
    register_backend,
)
from repro.campaign.fabric import (
    CampaignQueue,
    Coordinator,
    FabricError,
    QueueError,
    QueueStatus,
    run_worker,
)
from repro.campaign.builder import SystemBuilder, SystemUnderTest
from repro.campaign.golden import (
    GoldenBaseline,
    GoldenError,
    RegressionReport,
    ToleranceSpec,
)
from repro.campaign.engine import (
    CampaignResult,
    CampaignRun,
    CampaignRunner,
    clear_shared_runners,
    shared_runner,
)
from repro.campaign.spec import (
    SWEEP_POLICIES,
    campaign_registry,
    expand_campaign,
    register_campaign,
    sweep,
)
from repro.campaign.store import (
    BufferedWriter,
    DiffRow,
    ResultStore,
    StoreDiff,
    StoreError,
    StoredRun,
)

__all__ = [
    "BufferedWriter",
    "CampaignQueue",
    "CampaignResult",
    "CampaignRun",
    "CampaignRunner",
    "Coordinator",
    "DiffRow",
    "ExecutionBackend",
    "ExecutionContext",
    "FabricError",
    "QueueError",
    "QueueStatus",
    "GoldenBaseline",
    "GoldenError",
    "RegressionReport",
    "ResultStore",
    "SWEEP_POLICIES",
    "StoreDiff",
    "StoreError",
    "StoredRun",
    "ToleranceSpec",
    "SystemBuilder",
    "SystemUnderTest",
    "backend_registry",
    "campaign_registry",
    "clear_shared_runners",
    "expand_campaign",
    "make_backend",
    "register_backend",
    "register_campaign",
    "run_worker",
    "shared_runner",
    "sweep",
]
