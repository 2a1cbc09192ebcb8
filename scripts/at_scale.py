"""Peak memory and CPU time of one large CLI command, measured in process.

    python3 scripts/at_scale.py CASE REPLICATES [--src DIR] [--seed S]

CASE is `audit_mc`, the criterion-3 Monte Carlo audit of the benchmark's
`audit_mc` workload at REPLICATES audit replicates, or `run_box_csv` or
`oracle_run`, the benchmark's config of that name at REPLICATES replicates.
Their configs come from `bench/workloads.py`'s own builders. `audit_box` is
the parity case `audit_mc_box_hypercube` of `tests/fixtures/parity_cases.json`
(a uniform-box prior, 4x4 hypercube, T0 = 0, an MC audit at round 10) at
REPLICATES audit replicates, whose truncated sampler screens every
replicate. The command runs through `ixplore.cli.main` in this interpreter,
its outputs in a temporary directory. One JSON line is printed: the exit
code, the command's CPU seconds (imports and config building excluded),
the process's peak resident set in MB (`ru_maxrss`, and `VmHWM` where
/proc exists), the number of generator re-keys (`StreamFamily.at` calls,
counted by a wrapper on the method), whether the command loaded
`numpy.random`, and a SHA-256 prefix of every output file.

`--src` imports `ixplore` from another checkout's `src`, so two trees can be
measured alternately on one host with the same configs. Start each
measurement in a fresh interpreter from a small parent such as a shell:
Linux carries `ru_maxrss` over from the spawning process.

These figures are not part of the benchmark: its workloads run at most
2,000 replicates, one chunk of `engine.CHUNK`. `oracle_run` at its
benchmark size (1 replicate) shows in process, below the floor that the
benchmark harness's own peak sets, whether a run loads `numpy.random`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = ("audit_mc", "audit_box", "run_box_csv", "oracle_run")
SEEDS = {"audit_mc": 1003, "audit_box": 47, "run_box_csv": 3000, "oracle_run": 41000}
PARITY_CASES = ROOT / "tests" / "fixtures" / "parity_cases.json"


def _config(case: str, replicates: int, seed: int) -> tuple:
    import workloads

    if case == "audit_mc":
        config = workloads.AuditMc().build(seed, False)
        config["audit"]["replicates"] = replicates
        return config, ["audit", "config.json"]
    if case == "audit_box":
        cases = json.loads(PARITY_CASES.read_text())["cases"]
        config = next(c["config"] for c in cases if c["name"] == "audit_mc_box_hypercube")
        config["seed"] = seed
        config["audit"]["replicates"] = replicates
        return config, ["audit", "config.json"]
    config = workloads.WORKLOADS[case].build(seed, False)
    config["replicates"] = replicates
    return config, ["run", "config.json"]


def _hwm_mb():
    try:
        with open("/proc/self/status") as fh:
            line = next(line for line in fh if line.startswith("VmHWM"))
    except (OSError, StopIteration):
        return None
    return round(int(line.split()[1]) / 1024, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case", choices=CASES)
    parser.add_argument("replicates", type=int)
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src directory to import ixplore from")
    parser.add_argument("--seed", type=int, default=None,
                        help="config seed (default 1003 for audit_mc, 47 for audit_box, 3000 for run_box_csv, "
                             "41000 for oracle_run)")
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    import ixplore.cli
    from ixplore.streams import StreamFamily

    rekeys = 0
    at = StreamFamily.at

    def counted_at(self, *cell):
        nonlocal rekeys
        rekeys += 1
        return at(self, *cell)

    StreamFamily.at = counted_at

    seed = args.seed if args.seed is not None else SEEDS[args.case]
    config, command = _config(args.case, args.replicates, seed)
    work = tempfile.mkdtemp(prefix="ixplore-at-scale-")
    cwd = os.getcwd()
    try:
        os.chdir(work)
        with open("config.json", "w") as fh:
            json.dump(config, fh)
        start = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = ixplore.cli.main(command)
        cpu = time.process_time() - start
        out = Path(work) / config["output"]["dir"]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in sorted(out.iterdir())}
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "case": args.case, "replicates": args.replicates, "seed": seed, "code": code,
        "cpu_s": round(cpu, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
        "hwm_mb": _hwm_mb(), "rekeys": rekeys, "numpy_random": "numpy.random" in sys.modules,
        "digests": digests,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
