"""The four benchmark workloads: seeded configurations and one timed pass.

* ``hybrid_steps``: the fig3 preset (K = 10) to t_end 100, 2001 CSV rows
  from 7550 DP45 steps; DP45 stepping and the right-hand side dominate.
* ``hybrid_samples``: the fig2 preset with dt_out 0.01, 10001 JSON rows
  from 2685 steps; dense-output sampling, correlators and JSON writing
  dominate, so steps made cheaper by making samples dearer show here.
* ``k_sweep``: ``runner.sweep`` over fig2 with 16 log-spaced K in [0.1, 10]
  to t_end 20, 16 x 401 CSV rows; 16 runs of unequal length, each paying
  the per-run fixed costs.
* ``quantum_thermal``: the fig8 preset (n = 10..1e4, T = 100) to t_end 400,
  4 x 1906 CSV rows; the closed-form quantum channel only, it never enters
  the integrator, so integrator changes should leave it unchanged.

Seed 0 gives the canonical inputs.  Any other seed jitters the inputs the
program's work depends on, without changing the amount of output:

* the initial displacement x1 of every hybrid workload, within +-10%;
* the 16 K values of ``k_sweep``, each within its own log-spaced bin;
* the photon numbers of ``quantum_thermal``, each within its decade bin.
  ``dt_out`` is pinned to the seed-0 value (0.21) so that every seed writes
  the same 4 x 1906 rows.

The program only ever receives the generated ``ScenarioConfig`` objects,
through its public ``runner`` calls.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from dataclasses import dataclass

import numpy as np
from spinchannel import preset_config, runner

WORKLOADS = ("hybrid_steps", "hybrid_samples", "k_sweep", "quantum_thermal")

N_K = 16
K_RANGE = (0.1, 10.0)
QUANTUM_DT_OUT = 0.21   # 0.01 / Omega_n at n = 10, the fig8 default resolution


@dataclass(frozen=True)
class Plan:
    """What one pass runs: a validated base config, and the swept K values
    when the workload is a sweep."""

    workload: str
    config: object
    sweep_values: tuple[float, ...] | None = None

    @property
    def n_runs(self) -> int:
        return 1 if self.sweep_values is None else len(self.sweep_values)

    def run_configs(self) -> list:
        """The configuration of each run, in output order."""
        if self.sweep_values is None:
            return [self.config]
        return [dataclasses.replace(self.config, K=k, D=None) for k in self.sweep_values]


def _jitter_x1(rng: random.Random, seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + rng.uniform(-0.1, 0.1)


def _k_grid(rng: random.Random, seed: int) -> tuple[float, ...]:
    lo, hi = (math.log10(v) for v in K_RANGE)
    exponents = np.linspace(lo, hi, N_K)
    if seed != 0:
        half_bin = 0.5 * (hi - lo) / (N_K - 1)
        exponents = np.clip(exponents + [rng.uniform(-half_bin, half_bin) for _ in exponents],
                            lo, hi)
    return tuple(float(k) for k in 10.0 ** exponents)


def _n_grid(rng: random.Random, seed: int) -> tuple[float, ...]:
    decades = (1, 2, 3, 4)
    if seed == 0:
        return tuple(10.0 ** d for d in decades)
    return tuple(10.0 ** (d + rng.uniform(-0.5, 0.5)) for d in decades)


def build_plan(workload: str, seed: int) -> Plan:
    """Generate and validate the configs of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    replace = dataclasses.replace
    if workload == "hybrid_steps":
        plan = Plan(workload, replace(preset_config("fig3"), x1=_jitter_x1(rng, seed),
                                      out_format="csv"))
    elif workload == "hybrid_samples":
        plan = Plan(workload, replace(preset_config("fig2"), x1=_jitter_x1(rng, seed),
                                      dt_out=0.01, out_format="json"))
    elif workload == "k_sweep":
        base = replace(preset_config("fig2"), x1=_jitter_x1(rng, seed), t_end=20.0,
                       out_format="csv")
        plan = Plan(workload, base, _k_grid(rng, seed))
    else:
        plan = Plan(workload, replace(preset_config("fig8"), n_values=_n_grid(rng, seed),
                                      t_end=400.0, dt_out=QUANTUM_DT_OUT, out_format="csv"))
    for cfg in plan.run_configs():
        cfg.validate()
    return plan


def output_paths(plan: Plan, out_dir: str) -> list[str]:
    ext = plan.config.out_format
    return [os.path.join(out_dir, f"{plan.workload}_{i:02d}.{ext}") for i in range(plan.n_runs)]


def run_pass(plan: Plan, out_dir: str) -> list:
    """One pass of the workload: run every config and write every output file.

    Calls go through the ``runner`` module attributes so that a tracer
    installed on them sees the calls.
    """
    if plan.sweep_values is None:
        results = [runner.run_scenario(plan.config)]
    else:
        results = runner.sweep(plan.config, "K", list(plan.sweep_values))
    for result, path in zip(results, output_paths(plan, out_dir)):
        runner.write_output(result, plan.config.out_format, path)
    return results
