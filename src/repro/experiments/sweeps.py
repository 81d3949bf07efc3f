"""Ablation sweeps over the design choices DESIGN.md calls out.

Each sweep isolates one resolved ambiguity or one READ mechanism and
reports how the headline metrics move:

* integrator combination strategy (DESIGN.md inconsistency 4);
* READ's adaptive idleness threshold on/off (Fig. 6 line 22);
* READ's transition cap S;
* READ's FRD migration on/off (``max_migrations_per_epoch=0``);
* the idleness threshold H itself, for every idling policy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import RunSpec, run_cell
from repro.experiments.runner import ExperimentConfig, make_policy
from repro.policies.base import SpeedControlConfig
from repro.press.integrator import CombinationStrategy
from repro.press.model import PRESSModel
from repro.util.validation import require

__all__ = [
    "sweep_integrator_strategies",
    "sweep_read_transition_cap",
    "sweep_read_adaptive_threshold",
    "sweep_read_migration",
    "sweep_idle_threshold",
]


def _run_one(cfg: ExperimentConfig, policy_name: str, n_disks: int,
             **policy_kwargs) -> SimulationResult:
    spec = RunSpec(policy=policy_name, n_disks=n_disks,
                   workload=cfg.workload, policy_kwargs=policy_kwargs,
                   disk_params=cfg.disk_params)
    return run_cell(spec)


def sweep_integrator_strategies(cfg: ExperimentConfig, *, n_disks: int = 10,
                                policy: str = "read",
                                ) -> dict[str, SimulationResult]:
    """Same run scored under every integrator combination strategy.

    The simulation itself is strategy-independent (the strategy only
    affects scoring), so the trace is replayed exactly once and the
    frozen per-disk factors are re-scored under each strategy via
    :meth:`~repro.press.model.PRESSModel.rescore_factors`.
    """
    base = _run_one(cfg, policy, n_disks)
    out: dict[str, SimulationResult] = {}
    for strategy in CombinationStrategy:
        press = PRESSModel.with_strategy(strategy)
        afr, factors = press.rescore_factors(base.per_disk)
        out[strategy.value] = replace(base, array_afr_percent=afr,
                                      per_disk=tuple(factors))
    return out


def sweep_read_transition_cap(cfg: ExperimentConfig, caps: Sequence[int] = (4, 10, 40, 200), *,
                              n_disks: int = 10,
                              ) -> dict[int, SimulationResult]:
    """READ's S: how hard does capping transitions trade energy for AFR?"""
    require(len(caps) >= 1, "need at least one cap value")
    return {cap: _run_one(cfg, "read", n_disks, max_transitions_per_day=cap)
            for cap in caps}


def sweep_read_adaptive_threshold(cfg: ExperimentConfig, *,
                                  n_disks: int = 10,
                                  ) -> dict[str, SimulationResult]:
    """Fig. 6 line 22 on vs off (H doubling at half budget)."""
    return {
        "adaptive": _run_one(cfg, "read", n_disks, adaptive_threshold=True),
        "fixed": _run_one(cfg, "read", n_disks, adaptive_threshold=False),
    }


def sweep_read_migration(cfg: ExperimentConfig, *,
                         n_disks: int = 10,
                         ) -> dict[str, SimulationResult]:
    """FRD on vs off: what does epoch redistribution buy?"""
    return {
        "frd_on": _run_one(cfg, "read", n_disks),
        "frd_off": _run_one(cfg, "read", n_disks, max_migrations_per_epoch=0),
    }


def sweep_idle_threshold(cfg: ExperimentConfig, thresholds_s: Sequence[float] = (5.0, 30.0, 120.0),
                         *, policy: str = "pdc", n_disks: int = 10,
                         ) -> dict[float, SimulationResult]:
    """H for the idling policies: small H = eager spin-downs = transitions.

    Only H varies; each policy keeps its characteristic spin-up rule
    (MAID/PDC wake on any arrival, READ on sustained backlog) so the
    sweep isolates one knob.
    """
    require(policy in ("pdc", "maid", "read"), "idle-threshold sweep needs an idling policy")
    base = make_policy(policy).config.speed
    out: dict[float, SimulationResult] = {}
    for h in thresholds_s:
        speed = SpeedControlConfig(idle_threshold_s=h,
                                   spin_up_queue_len=base.spin_up_queue_len,
                                   spin_up_wait_s=base.spin_up_wait_s)
        out[h] = _run_one(cfg, policy, n_disks, speed=speed)
    return out
