"""What the benchmark measures: workloads, metrics, and the layer table.

This module is the single source of the names in BENCHMARK.json; running it
rewrites that file (`python3 perfbench/spec.py`), and a test checks that the
committed file matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 18

WORKLOADS = {
    "discrete-logs": (
        "big log, trivial class: generate/train/evaluate/sweep with the argmin oracle, "
        "where JSONL I/O and validation dominate"
    ),
    "wide-class": (
        "small log, 4096-member class: the same flow with the enumeration oracle and "
        "class statistics"
    ),
    "continuous-sweep": (
        "bandwidth sweep on boxcar-smoothed continuous actions, driven by the "
        "per-record closed-form integrals"
    ),
    "verify-small": (
        "the verify suite: thousands of estimator, simulator and oracle calls on "
        "n=500 data, so per-call overhead dominates"
    ),
}

# Metrics every workload reports from an untraced run (the gated set).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "flow_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

COMMANDS = ("generate", "train", "evaluate", "sweep", "verify")


@dataclass(frozen=True)
class LayerRow:
    """One row of the layer table in README.md: traced functions with their
    measures, and the workloads on which each must record a span."""

    functions: dict[str, tuple[str, ...]]
    on: tuple[str, ...]


VERIFY_CHECKS = (
    "check_dataset_validation",
    "check_discrete_reduction",
    "check_continuous_reduction",
    "check_variance_domination",
    "check_pl_band_coverage",
    "check_confidence_coverage",
    "check_ucb_coverage",
    "check_pessimism_path",
    "check_smoothing_bounds",
    "check_unbiasedness",
    "check_oracle_call_count",
)

# The traced run fails if a function records no span on a workload of its
# row's `on`, so a rename cannot drop a layer silently. The cli row's
# expectations come from FLOW_COMMANDS.
LAYERS = [
    LayerRow(
        {"model.load_dataset_jsonl": ("self_ms", "bytes"), "model.validate_dataset": ("self_ms", "records")},
        ("discrete-logs",),
    ),
    LayerRow(
        {"model.save_dataset_jsonl": ("self_ms", "bytes"), "simulator.generate_logs": ("self_ms", "records")},
        ("discrete-logs",),
    ),
    LayerRow(
        {
            "csc.EnumerationOracle.solve": ("self_ms", "members"),
            "model.class_stats": ("self_ms",),
            "model.deterministic_class": ("self_ms", "members"),
        },
        ("wide-class",),
    ),
    LayerRow(
        {
            "csc.build_modified_costs": ("self_ms", "cells"),
            "csc.PointwiseArgminOracle.solve": ("self_ms",),
            "csc.train_ipw_pl": (),
        },
        ("discrete-logs",),
    ),
    LayerRow(
        {
            "estimators.ipw_risk": ("self_ms", "calls"),
            "estimators.pseudo_loss": ("self_ms", "calls"),
            "estimators.penalized_objective": ("self_ms", "calls"),
        },
        ("verify-small", "discrete-logs"),
    ),
    LayerRow(
        {"estimators.ucb_risk": ("self_ms", "calls"), "estimators.confidence_slack": ("self_ms",)},
        ("verify-small",),
    ),
    LayerRow(
        {
            "continuous.build_modified_costs_continuous": ("self_ms", "cells"),
            "continuous.continuous_pseudo_loss": ("self_ms", "calls", "recompute_ratio"),
            "continuous.continuous_ipw_risk": ("self_ms", "calls"),
            "continuous.load_continuous_dataset_jsonl": ("self_ms", "bytes"),
            "continuous.save_continuous_dataset_jsonl": ("self_ms", "bytes"),
        },
        ("continuous-sweep",),
    ),
    LayerRow(
        {
            "simulator.exact_risk": ("self_ms", "calls"),
            "simulator.exact_risk_smoothed": ("self_ms", "calls"),
            "simulator.load_environment": ("self_ms", "calls"),
            **{f"verify.{check}": ("self_ms",) for check in VERIFY_CHECKS},
        },
        ("verify-small",),
    ),
    LayerRow(
        {f"cli.cmd_{cmd}": ("self_ms",) for cmd in COMMANDS},
        (),
    ),
]

# The commands each workload runs, in flow order.
FLOW_COMMANDS = {
    "discrete-logs": ("generate", "train", "evaluate", "sweep"),
    "wide-class": ("generate", "train", "evaluate", "sweep"),
    "continuous-sweep": ("generate", "sweep"),
    "verify-small": ("verify",),
}

# Layers predicted to dominate each workload's self time.
DOMINANT = {
    "discrete-logs": (
        "model I/O + validate",
        ("model.load_dataset_jsonl", "model.validate_dataset", "model.save_dataset_jsonl"),
    ),
    "wide-class": ("enumeration oracle", ("csc.EnumerationOracle.solve",)),
    "continuous-sweep": (
        "continuous integrals",
        (
            "continuous.build_modified_costs_continuous",
            "continuous.continuous_pseudo_loss",
            "continuous.continuous_ipw_risk",
        ),
    ),
    "verify-small": (
        "many-call estimators and simulator",
        (
            "estimators.ipw_risk",
            "estimators.pseudo_loss",
            "estimators.penalized_objective",
            "estimators.ucb_risk",
            "estimators.confidence_slack",
            "simulator.generate_logs",
            "simulator.exact_risk",
            "simulator.exact_risk_smoothed",
        ),
    ),
}

_UNITS = {
    "self_ms": "ms",
    "calls": "count",
    "bytes": "bytes",
    "records": "count",
    "cells": "count",
    "members": "count",
    "recompute_ratio": "ratio",
}

DERIVED_LAYER_METRICS = {
    "csc.oracle_calls_per_train": "ratio",
    "verify.statistical_misses": "count",
    "trace.overhead_pct": "%",
}


def traced_functions() -> dict[str, tuple[str, ...]]:
    """Every traced function and its measures, in table order."""
    out: dict[str, tuple[str, ...]] = {}
    for row in LAYERS:
        out.update(row.functions)
    return out


def expected_on(workload: str) -> list[str]:
    """Traced functions that must record at least one span on this workload."""
    names = [fn for row in LAYERS if workload in row.on for fn in row.functions]
    names += [f"cli.cmd_{cmd}" for cmd in FLOW_COMMANDS[workload]]
    return names


def per_layer_metrics() -> list[dict]:
    """Per-layer metric names with units; every traced run reports all of them."""
    out = [
        {"name": f"{fn}.{measure}", "unit": _UNITS[measure], "better": "lower"}
        for fn, measures in traced_functions().items()
        for measure in measures
    ]
    out += [{"name": name, "unit": unit, "better": "lower"} for name, unit in DERIVED_LAYER_METRICS.items()]
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_metrics(),
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render_benchmark_json())
