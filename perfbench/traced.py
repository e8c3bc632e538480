"""Run one sleepwatch invocation with its layer functions timed from outside.

    python3 perfbench/traced.py TRACE_JSON cli <sleepwatch CLI arguments>
    python3 perfbench/traced.py TRACE_JSON watch <watch.py arguments>

The program runs exactly as untraced, except that the public functions
named in ``TARGETS`` are replaced, in every ``sleepwatch`` module that
holds a reference to them, by wrappers that count calls and accumulate
inclusive and self time. Self time is inclusive time minus the time of
wrapped calls made inside. Functions marked hot are called up to ~10^6
times per run (``expected_visits_closed``), so they get a count and a
total only; every other call is also kept as a span (name, start, end,
parent span). After the program returns, the per-function totals, the
exact work counters and the spans are written to TRACE_JSON and the
process exits with the program's own exit code. No sleepwatch source
is modified.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, function, hot)
TARGETS = (
    ("sleepwatch.config", "load_config", False),
    ("sleepwatch.simulate", "run_one", False),
    ("sleepwatch.simulate", "run_many", False),
    ("sleepwatch.detect", "compute_baseline", False),
    ("sleepwatch.detect", "detect", False),
    ("sleepwatch.detect", "online_estimate", False),
    ("sleepwatch.detect", "estimate_step_rate", True),
    ("sleepwatch.network", "death_probability", True),
    ("sleepwatch.network", "expected_death_time", True),
    ("sleepwatch.network", "expected_visits_closed", True),
    ("sleepwatch.network", "build_matrix", False),
    ("sleepwatch.chain", "validate", False),
    ("sleepwatch.chain", "analyze", False),
    ("sleepwatch.lifecycle", "expected_node_lifetime", False),
    ("sleepwatch.serialize", "dumps_canonical", False),
    ("sleepwatch.serialize", "write_trace_csv", False),
    ("sleepwatch.attack", "affected_set", False),
    ("sleepwatch.attack", "transform_policy", False),
    ("sleepwatch.rng", "substream", False),
)

# dumps_canonical calls itself through its module global; only the
# outermost call is timed, so that global is pointed back at the
# original function for the duration of that call.
OUTERMOST_ONLY = {"dumps_canonical"}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.results: dict[str, list] = {"run_one": [], "run_many": [], "analyze": []}
        self.json_chars = 0
        self.csv_bytes = 0
        self._stack: list[list] = []  # [span id, time spent in wrapped callees]

    def wrap(self, module, name: str, fn, hot: bool):
        key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        stat = self.stats[key] = {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0}
        stack, spans = self._stack, self.spans
        keep = self.results.get(name)
        perf = time.perf_counter
        outermost_only = name in OUTERMOST_ONLY

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = len(spans) if not hot else None
            if span_id is not None:
                spans.append(None)  # reserve the id; filled in on return
            frame = [span_id, 0.0]
            stack.append(frame)
            if outermost_only:
                setattr(module, name, fn)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat["raised"] += 1
                raise
            finally:
                t1 = perf()
                if outermost_only:
                    setattr(module, name, wrapper)
                stack.pop()
                elapsed = t1 - t0
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span_id is not None:
                    spans[span_id] = (key, t0, t1, parent)
            if keep is not None:
                keep.append(result)
            elif name == "dumps_canonical":
                self.json_chars += len(result)
            elif name == "write_trace_csv":
                self.csv_bytes += os.path.getsize(args[0])
            return result

        return wrapper

    def install(self) -> None:
        """Replace every module-level reference to each target in sleepwatch."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sleepwatch" or n.startswith("sleepwatch.")]
        for module_name, name, hot in TARGETS:
            home = sys.modules[module_name]
            original = getattr(home, name)
            wrapper = self.wrap(home, name, original, hot)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def counters(self) -> dict[str, int]:
        """Exact work counts, derived from the values the wrapped calls returned."""
        ticks = node_steps = uncensored = 0
        for trace in self.results["run_one"]:
            dead = [rec.dead for rec in trace.per_tick]
            ticks += len(dead) - 1
            # Live nodes at the start of tick t are those not dead after tick t-1.
            node_steps += trace.n_deployed * (len(dead) - 1) - sum(dead[:-1])
            uncensored += trace.network_death_tick is not None
        calls = {key: stat["calls"] for key, stat in self.stats.items()}
        return {
            "simulate.run_one_calls": calls["simulate.run_one"],
            "simulate.ticks": ticks,
            "simulate.node_steps": node_steps,
            "simulate.uncensored_runs": uncensored,
            "simulate.trace_records": sum(len(t.per_tick) for s in self.results["run_many"]
                                          for t in s.traces),
            "detect.detect_calls": calls["detect.detect"],
            "detect.windows": calls["detect.estimate_step_rate"],
            "detect.windows_inconclusive": self.stats["detect.estimate_step_rate"]["raised"],
            "network.closed_form_calls": (calls["network.death_probability"]
                                          + calls["network.expected_death_time"]
                                          + calls["network.expected_visits_closed"]),
            "chain.transient_states": sum(len(a.transient_order) for a in self.results["analyze"]),
            "serialize.json_bytes": self.json_chars,  # canonical JSON is ASCII
            "serialize.csv_bytes": self.csv_bytes,
            "rng.substreams": calls["rng.substream"],
        }


def main() -> int:
    trace_path, program, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import sleepwatch.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    if program == "cli":
        code = sleepwatch.cli.main(args)
    elif program == "watch":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import watch
        code = watch.main(args)
    else:
        raise SystemExit(f"error: unknown program {program!r}; expected cli or watch")

    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "functions": tracer.stats,
                   "counters": tracer.counters(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
