"""Online death-time estimation over a recorded dead-count trajectory.

The program behind the ``online-watch`` workload. sleepwatch has no CLI
command for ``detect.online_estimate`` yet, so this script plays that
role: it reads a scenario config and a ``tick,dead`` CSV, builds the
analytic baseline from the config, runs ``online_estimate`` and writes
one verdict object per window, canonically serialized, to
``<out>/watch.json`` and to stdout. It exits 0.

    python3 perfbench/watch.py --config cfg.json --trajectory traj.csv \\
        --out outdir --window 200 --stride 10

Library functions are looked up on their modules at call time, so the
traced run sees the same calls an untraced run makes.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

import numpy as np

import sleepwatch.cli  # noqa: F401  (importing the CLI is part of set-up, as for the other workloads)

# The package re-exports a function named ``detect``, which shadows the
# submodule attribute; import_module returns the module itself.
config = importlib.import_module("sleepwatch.config")
detect = importlib.import_module("sleepwatch.detect")
serialize = importlib.import_module("sleepwatch.serialize")


def load_inputs(config_path: str, trajectory_path: str):
    """Parse the scenario config and the dead-count trajectory."""
    parsed = config.load_config(config_path)
    table = np.loadtxt(trajectory_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    if table.shape[1] != 2 or not np.array_equal(table[:, 0], np.arange(len(table))):
        raise SystemExit(f"error: {trajectory_path}: expected tick,dead rows for ticks 0..T")
    return parsed, table[:, 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--trajectory", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--window", type=int, required=True)
    parser.add_argument("--stride", type=int, required=True)
    args = parser.parse_args(argv)

    parsed, view = load_inputs(args.config, args.trajectory)
    det = parsed.detector
    baseline = detect.compute_baseline(parsed.params, ticks_per_chain_step=det.ticks_per_chain_step)
    verdicts = detect.online_estimate(view, parsed.params, baseline, det.theta,
                                      window=args.window, stride=args.stride)
    doc = [
        {
            "decision": v.decision.value,
            "observed": v.observed_death_ticks,
            "baseline": v.baseline_ticks,
            "theta": v.threshold_factor,
            "source": baseline.source.value,
            "detail": v.detail,
        }
        for v in verdicts
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out / "watch.json", doc)
    print(serialize.dumps_canonical(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
