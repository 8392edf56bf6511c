"""Experiment harness: one module per table/figure of the paper.

===================  =============================================
Paper artifact       Module
===================  =============================================
Table II             :mod:`repro.experiments.table2`
§IV-C link sweep     :mod:`repro.experiments.conn_sweep`
Trial grid           :mod:`repro.experiments.grid`
Figure 2 (hops)      :mod:`repro.experiments.fig2_hops`
Figure 3 (relays)    :mod:`repro.experiments.fig3_relays`
Figure 4 (load)      :mod:`repro.experiments.fig4_load`
Figure 5 (iters)     :mod:`repro.experiments.fig5_iterations`
Figure 6 (churn)     :mod:`repro.experiments.fig6_churn`
Figure 7 (latency)   :mod:`repro.experiments.fig7_latency`
Figure 8 (ids)       :mod:`repro.experiments.fig8_ids`
§V geography (ours)  :mod:`repro.experiments.geo`
Ablation (ours)      :mod:`repro.experiments.ablation`
Fault sweep (ours)   :mod:`repro.experiments.faults`
Self-healing (ours)  :mod:`repro.experiments.stabilize`
Warm start (ours)    :mod:`repro.experiments.warmstart`
Doctor audit (ours)  :mod:`repro.experiments.doctor`
===================  =============================================

Every experiment module exposes ``run(config) -> list[dict]`` (raw rows)
and ``report(config, rows) -> str`` (the formatted table the paper's
artifact corresponds to). Figures 2–8, geo, faults, stabilize and doctor
are each a ``sample`` and a ``row`` over one trial grid,
:mod:`~repro.experiments.grid`: it builds each overlay once, read-only
samples share it and samples that write restore its snapshot. The link
sweep, the ablation and warm start build their own. ``repro.experiments.cli``
wires them to a command line: ``select-repro fig3 --preset quick``.
"""

from repro.experiments.common import ExperimentConfig

__all__ = ["ExperimentConfig"]
