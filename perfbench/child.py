"""One repetition of a perfbench workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/child.py '<json config>'``;
prints one ``PERFBENCH_REP {...}`` line of raw measurements last.  The
child enters the program only through the front doors users touch --
``repro.crawl``'s ``main(argv)`` or the ``CrawlService`` API -- and
every timer it reads sits *outside* ``src/``: wrappers around public
calls (:class:`Probes`) plus the public ``repro.crawl.profiling``
seam.  Untraced repetitions install only the one probe that marks the
end of set-up; traced ones install them all.

Clock: ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which the parent
also reads just before spawning us, so ``setup_s`` counts interpreter
start-up.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import threading
import time

clock = time.monotonic


class Probes:
    """Timers and marks around public calls, summed across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.marks: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.calls[name] = self.calls.get(name, 0) + calls

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped: time each call, mark first start / last end."""

        def wrapper(*args, **kwargs):
            start = clock()
            self.marks.setdefault(name + ".first_start", start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.add(name, end - start)
                self.marks[name + ".last_end"] = end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def rebind(self, module_name: str, attr: str, wrap) -> None:
        """Replace a public function wherever ``repro`` modules bound it.

        ``wrap(original)`` builds the replacement.  ``from x import f``
        copies the function into the importer's namespace, so every
        loaded ``repro`` module holding the very same object is
        rebound.  A name a later refactor removed is recorded in
        :attr:`missing` (its layer then reads zero and its time lands in
        ``trace.unattributed_s``), never an error.
        """
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        replacement = wrap(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)

    def method(self, module_name: str, cls: str, attr: str, name: str) -> None:
        """Time a public method on its class (every caller sees it)."""
        try:
            owner = getattr(importlib.import_module(module_name), cls)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{cls}.{attr}")
            return
        setattr(owner, attr, self.timed(name, original))


def _rss_kb() -> int:
    """Largest resident set of this process or any child it reaped."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def _phases(profiler) -> dict:
    if profiler is None:
        return {}
    return profiler.report()["phases"]


@contextlib.contextmanager
def _seam(trace: bool):
    """The public profiling seam, active for traced repetitions only."""
    if not trace:
        yield None
        return
    try:
        from repro.crawl import profiling
    except ImportError:
        yield None
        return
    with profiling.profile() as profiler:
        yield profiler


def _drop_one_row(probes: Probes) -> None:
    """Fault injection for the self-test: verify sees one row fewer."""

    def wrap(verify):
        def dropped(result, dataset):
            import dataclasses

            return verify(dataclasses.replace(result, rows=result.rows[1:]),
                          dataset)

        return dropped

    probes.rebind("repro.crawl.verify", "verify_complete", wrap)


def _trace_common(probes: Probes) -> None:
    """Probes every traced workload installs: load and plan."""
    probes.rebind("repro.datasets.io", "load_csv",
                  lambda f: probes.timed("load", f))
    probes.rebind(
        "repro.crawl.partition", "partition_space",
        lambda f: probes.timed("plan", f, lambda plan:
                               probes.count("plan.regions",
                                            len(plan.regions))),
    )


def run_cli(config: dict, probes: Probes) -> dict:
    from repro.crawl.__main__ import main

    imported = clock()
    trace = config["trace"]
    # The end of the last server construction is the end of set-up:
    # from then on the crawl can issue its first query.
    probes.method("repro.server.server", "TopKServer", "__init__",
                  "server_build")
    if trace:
        _trace_common(probes)
        probes.rebind("repro.crawl.verify", "verify_complete",
                      lambda f: probes.timed("verify", f))
        probes.rebind(
            "repro.crawl.executors", "pickle_payload",
            lambda f: probes.timed("runtime.pickle", f, lambda payload:
                                   probes.count("runtime.payload_bytes",
                                                len(payload))),
        )
    if config.get("drop_row"):
        _drop_one_row(probes)
    out = io.StringIO()
    with _seam(trace) as profiler, contextlib.redirect_stdout(out):
        code = main(config["argv"])
    end = clock()
    text = out.getvalue()
    queries = None
    for line in text.splitlines():
        if line.startswith("crawl: "):
            queries = int(line.split()[1])
    complete = any(
        line.startswith("verify: complete") for line in text.splitlines()
    )
    return {
        "imported": imported,
        "setup_end": probes.marks.get("server_build.last_end"),
        "crawl_end": probes.marks.get("verify.first_start"),
        "end": end,
        "exit_code": code,
        "ok": code == 0 and complete and queries is not None,
        "queries": queries,
        "attempted": 1,
        "failed": 0 if code == 0 and complete else 1,
        "phases": _phases(profiler),
        "stdout_tail": text.splitlines()[-3:],
    }


class _Reader(threading.Thread):
    """An independent user paging committed rows at a fixed rate.

    Open loop: read ``i`` is due at ``start + i / rate`` whether or not
    earlier reads were slow, and its latency is timed from when it was
    due, so a stall also charges the reads queued behind it.
    """

    def __init__(self, service, jobs: list, rate: float, limit: int,
                 rows_per_job: int):
        super().__init__(name="perfbench-reader", daemon=True)
        self._service = service
        self._jobs = jobs
        self._rate = rate
        self._limit = limit
        self._pages = max(1, rows_per_job // limit)
        self.burst_done = threading.Event()
        self.latencies: list[float] = []
        self.service_times: list[float] = []
        self.late_max = 0.0
        self.failed = 0

    def run(self) -> None:
        start = clock()
        i = 0
        while not self.burst_done.is_set():
            due = start + i / self._rate
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            job = self._jobs[i % len(self._jobs)]
            offset = (i // len(self._jobs)) % self._pages * self._limit
            begin = clock()
            try:
                self._service.rows(job, offset=offset, limit=self._limit)
            except Exception:  # noqa: BLE001 - a failed read is counted
                self.failed += 1
            finish = clock()
            self.late_max = max(self.late_max, begin - due)
            self.latencies.append(finish - due)
            self.service_times.append(finish - begin)
            i += 1


def run_serve(config: dict, probes: Probes) -> dict:
    from types import SimpleNamespace

    from repro.crawl.spec import spec_from_args
    from repro.datasets import io as dataset_io
    from repro.service.api import CrawlService

    imported = clock()
    trace = config["trace"]
    work = config["workload"]
    if trace:
        _trace_common(probes)
        probes.method("repro.server.server", "TopKServer", "__init__",
                      "server_build")
        probes.method("repro.service.api", "CrawlService", "__init__",
                      "service.start")
        probes.method("repro.service.api", "CrawlService",
                      "register_tenant", "service.start")
        probes.method("repro.service.api", "CrawlService", "submit",
                      "jobs.submit")
        probes.method("repro.service.store", "ResultStore", "region_done",
                      "store.commit")
    with _seam(trace) as profiler:
        # Looked up at call time, so the traced run's load probe sees it.
        datasets = [dataset_io.load_csv(path) for path in config["csvs"]]
        service = CrawlService(config["store"], workers=work["fleet"],
                               backend="thread")
        try:
            tenants = [f"tenant{t}" for t in range(work["tenants"])]
            for tenant in tenants:
                service.register_tenant(tenant, budget=work["budget"])
            setup_end = clock()
            total = work["tenants"] * work["jobs_per_tenant"]
            first_commit: dict[int, float] = {}
            submitted_at: list[float] = []
            jobs: list[int] = []
            reader = None
            # The jobs file order: tenants round-robin, each tenant's
            # jobs cycling over the datasets; one flag->spec mapping,
            # exactly as repro-serve run builds it.
            base = spec_from_args(SimpleNamespace(
                algorithm="hybrid", workers=work["sessions"]))
            for j in range(total):
                tenant = tenants[j % len(tenants)]
                dataset = datasets[(j // len(tenants)) % len(datasets)]

                def first(key, result, j=j):
                    first_commit.setdefault(j, clock())

                submitted_at.append(clock())
                jobs.append(service.submit(
                    tenant, dataset, work["k"], name=f"job{j:03d}",
                    spec=base.replace(on_region=first),
                    sessions=work["sessions"], seed=config["seed"],
                ))
                if reader is None:
                    reader = _Reader(service, jobs, work["read_rate"],
                                     work["read_limit"],
                                     datasets[0].n)
                    reader.start()
            statuses = [service.wait(job) for job in jobs]
            end = clock()
            reader.burst_done.set()
            reader.join()
            charges = service.registry.charges()
            rows = [service.rows(job) for job in jobs]
        finally:
            service.shutdown()
    done = [s.state.value == "done" for s in statuses]
    if config.get("drop_row"):
        rows[0] = rows[0][1:]
    from workloads import rows_digest

    expected = config["reference"]
    matches = [
        rows_digest(rows[j]) == expected[(j // len(tenants)) % len(datasets)]
        for j in range(total)
    ]
    bad_jobs = sum(1 for d, m in zip(done, matches) if not (d and m))
    first_rows = [
        first_commit[j] - submitted_at[j] if j in first_commit else None
        for j in range(total)
    ]
    reads = len(reader.latencies)
    return {
        "imported": imported,
        "setup_end": setup_end,
        "crawl_end": end,
        "end": end,
        "ok": bad_jobs == 0 and reader.failed == 0
        and None not in first_rows,
        "queries": sum(s.cost for s in statuses),
        "charged": sum(
            (c.get("budget") or {}).get("used", 0) for c in charges.values()
        ),
        "attempted": total + reads,
        "failed": bad_jobs + reader.failed,
        "jobs": total,
        "first_rows": [v for v in first_rows if v is not None],
        "read_latencies": reader.latencies,
        "read_service_s": sum(reader.service_times),
        "reads": reads,
        "reader_late_max_s": reader.late_max,
        "phases": _phases(profiler),
    }


def main() -> None:
    config = json.loads(sys.argv[1])
    if config["workload"].get("pin_one_cpu"):
        # Before any thread starts, so the fleet and the reader inherit it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(config["root"], "src"))
    import repro  # the `import` layer ends when the front door is in

    probes = Probes()
    kind = config["workload"]["kind"]
    runner = run_cli if kind == "cli" else run_serve
    record = runner(config, probes)
    record.update(
        spawn=config["spawn"],
        repro_file=repro.__file__,
        rss_kb=_rss_kb(),
        seconds=probes.seconds,
        calls=probes.calls,
        counts=probes.counts,
        missing=probes.missing,
    )
    sys.stdout.write("PERFBENCH_REP " + json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
