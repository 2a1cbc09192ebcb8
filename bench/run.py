"""ixplore benchmark: whole CLI invocations in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout. One invocation at a time, each in a fresh
interpreter (`bench/child.py`), for at least `--seconds` seconds; the next
starts only after the previous one has exited and its outputs have been
checked. The workload seed goes into the generated configs, which are all
the program sees. Throughput is total replicates over total wall time of
the run's timed invocations less the fastest and the slowest; other time
and memory values are medians over them; counts repeat exactly and are
reported once.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json. `--trace 1`
runs pairs of untraced and traced invocations of one config and prints the
per-layer metrics from the traced ones, plus `trace_overhead`, the traced
over the untraced wall time. `--smoke` runs every workload at tiny size in both modes and
checks that every metric named in BENCHMARK.json is emitted with its unit
and that no operation failed.

The last line of standard output is the result object; the line before it,
prefixed `report `, holds machine facts, the config digest, sample counts
and per-invocation values.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import REPLICATE_PHASES
from workloads import OUT_DIR, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_INVOCATIONS = 2       # timed invocations per kind (untraced, traced)
CASES_PER_SEED = 1000     # config seed = CASES_PER_SEED * workload seed + case
RUN_DEADLINE_S = 170.0    # a run must exit within 180 s
SMOKE_SEED = 7

CALL_SPANS = (
    "streams.at", "streams.stream", "domain.realize_outcome", "spectral.min_eigen",
    "priors.posterior_update", "priors.posterior_sample", "semantics.apply_map",
    "semantics.menu", "engine.run_episode", "engine.regret",
)
SELF_SPANS = (
    "streams.at", "domain.realize_outcome", "domain.expected_reward", "spectral.absorb",
    "spectral.min_eigen", "priors.posterior_update", "priors.posterior_sample",
    "priors.sample_prior", "semantics.apply_map", "semantics.menu", "policies.fps_step",
    "policies.policy_update", "policies.generate_warmup", "engine.run_episode",
    "audit.audit_bic", "cli.load_config", "cli.atomic_write",
)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def layer_metrics(spans: dict, counters: dict, replicates: int) -> dict:
    """Per-layer metrics of one traced invocation, without trace_overhead."""

    def field(name, k):
        return spans.get(name, (0, 0.0, 0.0))[k]

    metrics = {f"{n}.calls": (field(n, 0), "count") for n in CALL_SPANS}
    metrics.update({f"{n}.self_s": (field(n, 2), "s") for n in SELF_SPANS})
    rounds = field("spectral.absorb", 0)
    metrics["spectral.eig_per_round"] = (
        field("spectral.min_eigen", 0) / rounds if rounds else 0.0, "1/round")
    metrics["engine.episodes_per_replicate"] = (
        field("engine.run_episode", 0) / replicates, "1/replicate")
    phase_wall = sum(counters.get(p + ".wall_s", 0.0) for p in REPLICATE_PHASES)
    phase_cpu = sum(counters.get(p + ".cpu_s", 0.0) for p in REPLICATE_PHASES)
    metrics["engine.cpu_util"] = (phase_cpu / phase_wall if phase_wall else 0.0, "ratio")
    command = field("cli.cmd_run", 1) + field("cli.cmd_audit", 1)
    children = sum(field(n, 1) for n in ("cli.load_config", "engine.run_replicates", "audit.audit_bic"))
    metrics["cli.emit.self_s"] = (command - children, "s")
    metrics["cli.atomic_write.bytes"] = (counters.get("cli.atomic_write.bytes", 0), "B")
    return metrics


def invoke(workload, case: dict, work: str, traced: bool, nproc: int, timeout: float) -> dict:
    """One CLI invocation of `case` (a generated config) in a fresh interpreter,
    timed and checked."""
    config = case["config"]
    out_dir = os.path.join(work, OUT_DIR)
    shutil.rmtree(out_dir, ignore_errors=True)
    report_path = os.path.join(work, "child-report.json")
    if os.path.exists(report_path):
        os.unlink(report_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("IXPLORE_SEED", None)  # the generated config is the only input
    argv = [sys.executable, CHILD, report_path, "1" if traced else "0"]
    argv += workload.argv(case["path"], nproc)
    result = {"case": case["index"], "traced": traced, "problems": []}
    spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        result["problems"].append(f"timed out after {timeout:.0f} s")
        return result
    result["wall_s"] = time.monotonic() - spawn
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        result["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return result
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        result["problems"].append(f"no child report: {exc}")
        return result
    if report["first_episode"] is None:
        result["problems"].append("no episode was run")
    else:
        result["setup_s"] = report["first_episode"] - spawn
    result["peak_rss_mb"] = report["maxrss_kb"] / 1024.0
    result["replicates"] = workload.replicates(config)
    result["problems"] += workload.check(config, out_dir, case["memo"])
    if traced:
        layers = layer_metrics(report["spans"], report["counters"], result["replicates"])
        counts = {k: v for k, (v, unit) in layers.items() if unit not in ("s", "ratio")}
        if case["memo"].setdefault("counts", counts) != counts:
            result["problems"].append("count metrics differ between traced runs of one config")
        result["layers"] = layers
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """Measure one workload; returns (result object, report object).

    Timed invocation k (pair k with --trace 1) runs config case k, whose
    config seed is CASES_PER_SEED * seed + k. Per-replicate cost on
    run_box_csv depends on the model draw (long rejection runs in the
    truncated sampler near the box boundary), so one config per run would
    make a run's throughput hinge on a handful of draws.
    """
    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    facts = machine_facts()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    cases = {}

    def case(k: int) -> dict:
        if k not in cases:
            config = workload.build(CASES_PER_SEED * seed + k, smoke)
            data = json.dumps(config, indent=1, sort_keys=True).encode()
            path = os.path.join(work, f"config-{k}.json")
            with open(path, "wb") as fh:
                fh.write(data)
            digest = hashlib.sha256(data).hexdigest()[:16]
            cases[k] = {"index": k, "config": config, "path": path, "digest": digest, "memo": {}}
        return cases[k]

    started = time.monotonic()
    per_kind = 2 if trace else 1
    try:
        # The first invocation warms the file and bytecode caches, which a user
        # pays once per install. It is checked, not timed, and it repeats
        # case 0, so every run compares two invocations of one config.
        warmup = invoke(workload, case(0), work, trace, nproc, RUN_DEADLINE_S)
        runs = []
        measuring = time.monotonic()
        while (len(runs) < MIN_INVOCATIONS * per_kind or len(runs) % per_kind
               or time.monotonic() - measuring < seconds):
            remaining = RUN_DEADLINE_S - (time.monotonic() - started)
            if remaining <= 0 or "wall_s" not in (runs[-1] if runs else warmup):
                break
            k, kind = divmod(len(runs), per_kind)
            if k >= CASES_PER_SEED:
                break
            runs.append(invoke(workload, case(k), work, bool(kind), nproc, remaining))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(ok) + bool(warmup["problems"])
    attempted = len(runs) + 1
    plain = [r for r in ok if not r["traced"]]
    metrics, samples = {}, {}
    if trace:
        traced = [r for r in ok if r["traced"]]
        if traced:
            for key, (first, unit) in traced[0]["layers"].items():
                values = [r["layers"][key][0] for r in traced]
                # counts are exact; report case 0's, checked against the warm-up
                value = statistics.median(values) if unit in ("s", "ratio") else first
                metrics[key] = {"value": value, "unit": unit}
                samples[key] = len(values)
            plain_wall = {r["case"]: r["wall_s"] for r in plain}
            ratios = [r["wall_s"] / plain_wall[r["case"]] for r in traced if r["case"] in plain_wall]
            if ratios:
                metrics["trace_overhead"] = {"value": statistics.median(ratios), "unit": "ratio"}
                samples["trace_overhead"] = len(ratios)
    else:
        # Throughput is replicates over wall time of the run's invocations
        # without its fastest and its slowest one. On run_box_csv the work
        # depends on each config's draws, so the fastest invocation is the
        # cheapest draw, and a rare replicate there runs 100 times longer
        # than the rest. README.md has the spreads behind this choice.
        kept = sorted(plain, key=lambda r: r["wall_s"])
        if len(kept) > 2:
            kept = kept[1:-1]
        if kept:
            metrics["replicates_per_s"] = {
                "value": sum(r["replicates"] for r in kept) / sum(r["wall_s"] for r in kept),
                "unit": "1/s",
            }
            samples["replicates_per_s"] = len(kept)
        for key, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
            values = [r[key] for r in plain if key in r]
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": unit}
                samples[key] = len(values)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "config_digests": [cases[k]["digest"] for k in sorted(cases)],
        "config_seeds": [cases[k]["config"]["seed"] for k in sorted(cases)],
        "replicates_per_invocation": workload.replicates(cases[0]["config"]),
        "machine": facts,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "samples": samples,
        "elapsed_s": time.monotonic() - started,
        "problems": sorted({p for r in [warmup] + runs for p in r["problems"]}),
        "invocations": [
            {k: r[k] for k in ("case", "traced", "wall_s", "setup_s", "peak_rss_mb") if k in r}
            for r in runs
        ],
    }
    return result, report


def print_run(result: dict, report: dict):
    print(f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{result['attempted']} invocations, {result['failed']} failed")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    rows = dict(result["metrics"])
    if not report["trace"]:
        rows["error_rate"] = report["error_rate"]
    for key, m in rows.items():
        n = report["samples"].get(key, result["attempted"])
        print(f"  {key} = {m['value']:.6g} {m['unit']} (n={n})")


def smoke() -> int:
    """Tiny run of every workload in both modes, checked against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    bad = sorted(set(names) ^ set(WORKLOADS))
    if bad:
        print(f"smoke: workloads differ between BENCHMARK.json and the benchmark: {bad}")
    for name in names:
        for trace in (0, 1):
            result, report = run_workload(name, SMOKE_SEED, 0, bool(trace), smoke=True)
            print_run(result, report)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(emitted.items()))
                extra = sorted(set(emitted.items()) - set(wanted[trace].items()))
                bad.append(f"{name} trace={trace}: missing {missing}, unexpected {extra}")
            if report["error_rate"]["value"] != 0:
                bad.append(f"{name} trace={trace}: error_rate {report['error_rate']['value']}")
    for line in bad:
        print(f"smoke FAIL: {line}")
    print("smoke " + ("FAIL" if bad else "PASS"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks every metric is emitted")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ixplore", "cli.py")):
        print(f"error: no ixplore source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required unless --smoke is given")
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    if not result["metrics"]:
        print_run(result, report)
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    print_run(result, report)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
