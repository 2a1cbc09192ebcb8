"""Run one `ixplore` CLI invocation in this fresh interpreter and report on it.

Usage: python3 child.py REPORT_JSON TRACE(0|1) ixplore-args...

`ixplore` must be importable (the caller sets PYTHONPATH to the checkout's
`src`). The report holds the CLOCK_MONOTONIC time of the first episode (the
end of set-up), the exit code, the peak resident set of this process and,
with TRACE=1, the span totals of `tracer.Tracer`.

Without tracing, the only hook is a one-shot wrapper on `run_episode` that
stamps the first episode and then restores the original binding, so the
timed run executes unmodified code from its second episode on.
"""

import json
import resource
import sys
import time

import tracer


def _stamp_first_episode(marks: dict):
    module_name, path = tracer.SPANS["engine.run_episode"]
    _, _, current = tracer.resolve(module_name, path)

    def first(*args, **kwargs):
        marks.setdefault("first_episode", time.monotonic())
        tracer.rebind(first, current, module_name, path)
        return current(*args, **kwargs)

    tracer.rebind(current, first, module_name, path)


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    import ixplore.cli

    spans = None
    if trace:
        spans = tracer.Tracer()
        spans.install()
    marks = {}
    _stamp_first_episode(marks)
    code = ixplore.cli.main(sys.argv[3:])
    report = {
        "exit_code": code,
        "first_episode": marks.get("first_episode"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spans is not None:
        report["spans"] = spans.totals()
        report["counters"] = spans.counters
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
