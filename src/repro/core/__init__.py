"""The paper's primary contribution: CEP plan generation via JQPG.

Subpackage layout:

- :mod:`repro.core.pattern` — CEP pattern model (§2.1 of the paper).
- :mod:`repro.core.stats` — per-pattern statistics (rates, selectivities).
- :mod:`repro.core.cost_model` — the memoized subset-PM kernel, Cost_ord /
  Cost_tree / Cost_LDJ / Cost_BJ, latency and skip-till-next variants,
  hybrid objective (§4, §6).
- :mod:`repro.core.plans` — order-based and tree-based plan structures.
- :mod:`repro.core.order_algorithms` — TRIVIAL, EFREQ, GREEDY, II-*, DP-LD.
- :mod:`repro.core.tree_algorithms` — ZSTREAM, ZSTREAM-ORD, DP-B.
- :mod:`repro.core.transformations` — SEQ→AND, Kleene, negation, DNF (§5).
- :mod:`repro.core.planner` — top-level dispatch used by engines/benchmarks.
"""
