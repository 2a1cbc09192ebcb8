"""Span tracing of ixplore's layer boundaries, installed from outside the package.

Each traced function is replaced by a wrapper that records one span per
call: its wall duration and its self time, the duration minus the spans it
directly caused. Spans are folded into per-name totals as they close, so
memory stays constant however many boundary calls a run makes (an audit of
10^4 replicates makes about 10^6). Stacks and totals are per thread, because
`run --workers N` runs episodes on a thread pool.

ixplore modules import each other's functions with `from .x import y`, so a
caller looks a function up in its own module's namespace. `rebind` therefore
replaces every copy of the function object in every loaded `ixplore` module,
including the home module (which catches internal recursion such as the
oracle agent's nested `run_episode` calls and `spawn_seed`'s `stream`).
Methods are replaced on their class.
"""

import functools
import sys
import threading
import time

# span name -> (home module, attribute path). Names are `<module>.<function>`.
SPANS = {
    "streams.at": ("ixplore.streams", "StreamFamily.at"),
    "streams.stream": ("ixplore.streams", "stream"),
    "domain.realize_outcome": ("ixplore.domain", "realize_outcome"),
    "domain.expected_reward": ("ixplore.domain", "expected_reward"),
    "spectral.absorb": ("ixplore.spectral", "GramAccumulator.absorb"),
    "spectral.min_eigen": ("ixplore.spectral", "GramAccumulator.min_eigen"),
    "priors.posterior_update": ("ixplore.priors", "posterior_update"),
    "priors.posterior_sample": ("ixplore.priors", "posterior_sample"),
    "priors.sample_prior": ("ixplore.priors", "sample_prior"),
    "semantics.apply_map": ("ixplore.semantics", "apply_map"),
    "semantics.menu": ("ixplore.semantics", "menu"),
    "policies.fps_step": ("ixplore.policies", "fps_step"),
    "policies.policy_update": ("ixplore.policies", "policy_update"),
    "policies.generate_warmup": ("ixplore.policies", "generate_warmup"),
    "engine.run_episode": ("ixplore.engine", "run_episode"),
    "engine.run_replicates": ("ixplore.engine", "run_replicates"),
    "engine.regret": ("ixplore.engine", "regret"),
    "audit.audit_bic": ("ixplore.audit", "audit_bic"),
    "cli.load_config": ("ixplore.cli", "load_config"),
    "cli.atomic_write": ("ixplore.cli", "atomic_write"),
    "cli.cmd_run": ("ixplore.cli", "cmd_run"),
    "cli.cmd_audit": ("ixplore.cli", "cmd_audit"),
}

# Spans that run all top-level replicates; their CPU share is engine.cpu_util.
REPLICATE_PHASES = ("engine.run_replicates", "audit.audit_bic")


def resolve(module_name: str, path: str):
    """The object at `path` in `module_name`, and the owner holding its last part."""
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def rebind(original, replacement, module_name: str, path: str) -> int:
    """Replace `original` by `replacement` wherever ixplore code looks it up.

    Returns the number of bindings replaced, so a caller can tell a renamed
    or removed function (0) from a wrapped one.
    """
    owner, attr, _ = resolve(module_name, path)
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return 1
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ixplore" or name.startswith("ixplore.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                count += 1
    return count


class Tracer:
    """Per-name span totals: calls, total seconds and self seconds."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.counters = {}

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def add(self, name: str, amount: float):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        thread_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = thread_state()
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children[0]

        return traced

    def _with_cpu(self, name: str, fn):
        """Also record process CPU seconds and wall seconds of the span."""
        tracer = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(name + ".cpu_s", time.process_time() - cpu)
                tracer.add(name + ".wall_s", time.perf_counter() - wall)

        return measured

    def _with_bytes(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(path, data):
            tracer.add(name + ".bytes", len(data.encode()))
            return fn(path, data)

        return counted

    def install(self):
        """Wrap every boundary in SPANS. Call after `import ixplore.cli`."""
        for name, (module_name, path) in SPANS.items():
            _, _, original = resolve(module_name, path)
            wrapped = self.wrap(name, original)
            if name in REPLICATE_PHASES:
                wrapped = self._with_cpu(name, wrapped)
            if name == "cli.atomic_write":
                wrapped = self._with_bytes(name, wrapped)
            if rebind(original, wrapped, module_name, path) == 0:
                raise RuntimeError(f"boundary {module_name}.{path} has no binding to trace")

    def totals(self) -> dict:
        """Merged {name: [calls, total_s, self_s]} over all threads."""
        merged = {}
        with self._lock:
            tables = [dict(t) for t in self._tables]
        for table in tables:
            for name, (calls, total, self_s) in table.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        return merged
