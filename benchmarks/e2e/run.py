"""End-to-end benchmark: paper-scale training, the Table-I campaign,
open-loop /predict and fleet churn, with a traced per-layer run.

Every workload runs in a process of its own (``workloads.py``), from the
repository root, with no installation step::

    python3 benchmarks/e2e/run.py --seed 0
        every workload: end-to-end metrics from an untraced run, then
        per-layer metrics from a traced run; a human-readable report
    python3 benchmarks/e2e/run.py --workload fleet-churn --seed 3 --seconds 10 --trace 0
        one workload; the last stdout line is one JSON object with
        ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
        metrics with ``--trace 0``, per-layer metrics with ``--trace 1``)
    python3 benchmarks/e2e/run.py --seed 0 --repeat 10
        ten untraced runs per workload on seeds 0-9: median, quartiles
        and spread of every end-to-end metric against its bound

Exit status: 0 when every correctness check passed, 1 when one failed
(the result is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from metrics import END_TO_END, NAMED, PER_LAYER, UNITS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

WORKLOADS = tuple(UNITS)

#: Every run, traced pass included, must end within the contract's 180 s.
BUDGET_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark could not produce a result (no JSON is printed)."""


def _child(name: str, seed: int, seconds: float, workdir: pathlib.Path, traced: bool,
           deadline: float, trace_out: Optional[pathlib.Path] = None) -> dict:
    """Run one workload pass in a fresh process and return its record."""
    cmd = [sys.executable, str(HERE / "workloads.py"), name, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(workdir)]
    if traced:
        cmd.append("--trace")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir)
    # The telemetry manifest asks git for a SHA; stop it at the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise HarnessError(f"{name}: no result within the time budget") from None
    finally:
        # Pool workers share the child's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or not lines:
        raise HarnessError(f"{name}: workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: pathlib.Path,
            deadline: float, trace_out: Optional[pathlib.Path] = None) -> dict:
    """One workload: the untraced pass, and with ``trace`` the traced one too.

    Where a workload's numerics are deterministic (it sets a digest), the
    traced pass must reproduce the untraced pass's; its per-layer metrics
    gain ``telemetry.overhead``, the slowdown of the traced pass over the
    untraced one.
    """
    plain = _child(name, seed, seconds, workdir, False, deadline)
    result = {"workload": name, "seed": seed, "plain": plain, "traced": None,
              "correct": plain["correct"]}
    if trace:
        out = trace_out / f"{name}.spans.json" if trace_out is not None else None
        traced = _child(name, seed, seconds, workdir, True, deadline, out)
        traced["layers"]["telemetry.overhead"] = (
            plain["metrics"]["throughput"] / traced["metrics"]["throughput"] - 1.0)
        if plain["digest"] is not None:
            traced["checks"]["matches_untraced"] = traced["digest"] == plain["digest"]
        result["traced"] = traced
        result["correct"] = plain["correct"] and all(traced["checks"].values())
    return result


def _load_contract() -> Dict[str, dict]:
    """Metric name -> BENCHMARK.json entry (empty if the file is absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    contract = json.loads(path.read_text())
    return {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}


def driver_line(result: dict, trace: bool) -> str:
    """The one-line JSON result: end-to-end or per-layer metrics."""
    record = result["traced"] if trace else result["plain"]
    values = record["layers"] if trace else record["metrics"]
    units = PER_LAYER if trace else END_TO_END
    passes = [r for r in (result["plain"], result["traced"]) if r is not None]
    return json.dumps({
        "correct": result["correct"],
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def report(result: dict) -> str:
    """Human-readable block for one workload."""
    plain, traced = result["plain"], result["traced"]
    lines = [f"== {result['workload']}  (seed {result['seed']}; "
             f"unit of work: {UNITS[result['workload']]})"]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<14}{plain['metrics'][name]:>14.6g} {unit}")
    for name, unit in NAMED[result["workload"]].items():
        lines.append(f"  {name:<14}{plain['named'][name]:>14.6g} {unit}  (not gated)")
    info = plain["info"]
    tail = info.get("tail")
    if tail:
        lines.append(f"  highest supported percentile: p{tail[0]:.2f} = {tail[1]:.4g} ms "
                     f"(n={tail[2]})")
    else:
        lines.append(f"  highest supported percentile: none (n={info['samples']})")
    lines.append(f"  attempted {plain['attempted']}, failed {plain['failed']}")
    extras = {k: v for k, v in info.items() if k not in ("tail", "samples", "phases")}
    lines.append("  info: " + json.dumps(extras, default=float))
    for phase, summary in info.get("phases", {}).items():
        lines.append(f"    phase {phase}: " + json.dumps(summary, default=float))
    checks = dict(plain["checks"], **(traced["checks"] if traced else {}))
    lines.append("  checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                                          for k, v in checks.items()))
    if traced:
        layers = traced["layers"]
        lines.append("  per-layer (traced run):")
        for name, unit in PER_LAYER.items():
            if layers[name] != 0.0:
                lines.append(f"    {name:<30}{layers[name]:>12.4g} {unit}")
        idle = sum(1 for v in layers.values() if v == 0.0)
        lines.append(f"    ({idle} other layers are not on this workload's path)")
    return "\n".join(lines)


def repeat(names: List[str], seed: int, runs: int, seconds: float,
           workdir: pathlib.Path) -> Tuple[str, bool]:
    """``runs`` untraced runs per workload on seeds ``seed``, ``seed + 1``, ...

    Returns the report and whether every run passed its checks.

    Spread is the interquartile range over the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles; a metric
    is flagged ``unsteady`` above a third of its bound and ``OVER`` above it.
    """
    contract = _load_contract()
    lines, correct = [], True
    for name in names:
        records = [_child(name, seed + i, seconds, workdir, False,
                          time.monotonic() + BUDGET_S) for i in range(runs)]
        correct &= all(r["correct"] for r in records)
        lines.append(f"== {name}: {runs} runs, seeds {seed}-{seed + runs - 1}, "
                     f"all correct: {all(r['correct'] for r in records)}")
        for metric, unit in END_TO_END.items():
            values = [r["metrics"][metric] for r in records]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = contract.get(metric, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else "unsteady" if spread > bound / 3 else "ok"
            lines.append(f"  {metric:<14}{median:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  "
                         f"spread {spread:.4f}  bound {bound}  {flag}")
    return "\n".join(lines), correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per pass (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 0 prints end-to-end, 1 per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload on consecutive seeds")
    parser.add_argument("--trace-out", type=pathlib.Path,
                        help="directory receiving <workload>.spans.json from traced runs")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    if args.trace_out is not None:
        args.trace_out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)

    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.repeat > 1:
            text, correct = repeat(names, args.seed, args.repeat, args.seconds, workdir)
            print(text)
            return 0 if correct else 1
        if args.workload and args.trace is not None:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             workdir, time.monotonic() + BUDGET_S, args.trace_out)
            print(driver_line(result, bool(args.trace)))
            return 0 if result["correct"] else 1
        correct = True
        for name in names:
            result = measure(name, args.seed, args.seconds, True, workdir,
                             time.monotonic() + BUDGET_S, args.trace_out)
            print(report(result), flush=True)
            correct &= result["correct"]
        print("all checks passed" if correct else "CORRECTNESS CHECK FAILED")
        return 0 if correct else 1
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
