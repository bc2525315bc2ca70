"""The repository benchmark: three cold workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload attack-grid --seed 2019 \\
        --seconds 56 --trace 0

Workloads (every campaign starts in a fresh interpreter, cacheless or
on an empty artifact cache; the load is one process with at most two
workers):

* ``table-grid`` — the Table I/II grid (six ITC'99 designs x M4/M6 x
  k128) through ``run_campaign`` on two pool workers, cacheless.  The
  one workload where lock planning and the proximity attack dominate;
  run it by hand, ``BENCHMARK.json`` leaves it out (with three
  workloads the run budget leaves two or three campaigns per run on a
  slow host, too few for a steady median).
* ``attack-grid`` — the attack smoke grid at k32 (b14 and a random-logic
  design x netflow/learned/proximity/random/oracle-key) through
  ``run_attack_campaign``, serial and cacheless.
* ``matrix-service`` — a live ``python -m repro.runner serve --workers
  2`` on a fresh cache directory; one closed-loop client submits the
  defense smoke matrix, streams it to ``done``, then resubmits the
  identical spec, which must be served from the artifact cache.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
median of every end-to-end metric (printed table, then the result
line).  Every time is reported in seconds at reference speed: each
sample is divided by the host's pace around it, the time of a fixed
block of reference work run right before and right after it
(``perfbench/pace.py``), so a host that slows every instruction for
minutes does not read as a slower program.  The table also prints the
raw medians and the wall-clock paces.

``--trace 1`` runs the campaign serially twice in fresh interpreters,
untraced and traced (``perfbench/spans.py`` wraps the public functions
of the ``repro`` modules from outside), checks that both give
identical canonical JSON, and reports the per-layer metrics.
The last line of standard output is always the JSON result object.

Process-tree CPU and peak memory come from ``wait4`` as a child
subreaper (``perfbench/proctree.py``), so pool workers are counted.
``--seed`` drives the HD/OER patterns and key-pin post-processing of
every workload (``campaign.build_spec``).  Output digests (SHA-256 of
the canonical JSON records) must agree between every campaign of a run
and with earlier runs of the same sources and seed, kept in
``.perfbench/digests.json``; each run's report is written to
``.perfbench/reports/`` and ``perfbench/report.py`` prints them all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from pace import REFERENCE_S, reference_block
from proctree import become_subreaper, reap_tree
from spans import SPAN_NAMES

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
STATE = ROOT / ".perfbench"

#: Set-up is sampled at least this many times per run (median reported).
SETUP_SAMPLES = 5
#: Identical resubmissions timed per ``matrix-service`` service boot.
CACHED_REPEATS = 30
#: Reference rounds run between two cached resubmissions to pace them
#: (a resubmission takes about 10 ms; so do these rounds).
SLICE_ROUNDS = 6
#: Pool workers of ``table-grid`` (the load is capped at two).
POOL_WORKERS = 2
#: Pool workers of the ``matrix-service`` service.
SERVICE_WORKERS = 2
#: Self-check: the pool's process-tree CPU must reach this share of the
#: serial campaign's CPU, or the tree accounting is missing workers.
TREE_CPU_FLOOR = 0.8
#: Cache stages reported per ``matrix-service`` run.
CACHE_STAGES = ("lock", "layout", "defense", "attack", "scorer")
#: ``/metrics`` counters summed over a traced run's service jobs.
SERVICE_COUNTERS = (
    *(f"runner.cache.{s}.{k}" for s in CACHE_STAGES for k in ("hits", "misses")),
    "runner.worker_cache.hits",
    "runner.worker_cache.misses",
    "service.cells.computed",
    "service.cells.deduped",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "first_result_s": "s",
    "cached_job_s": "s",
}

#: Spans each workload calls; a traced run must see every one of them
#: fire, so a missed binding cannot read as zero.
EXPECTED_SPANS = {
    "table-grid": (
        "benchgen.load_cell_circuit",
        "locking.atpg_lock",
        "synth.resynthesize",
        "phys.build_locked_layout",
        "phys.feol_view",
        "attacks.proximity_attack",
        "attacks.rebuild_netlist",
        "attacks.reconnect_key_gates_to_ties",
        "metrics.compute_hd_oer",
        "metrics.compute_ccr",
    ),
    "attack-grid": tuple(
        name for name in SPAN_NAMES if name != "defense.apply_defense"
    ),
    "matrix-service": tuple(
        name
        for name in SPAN_NAMES
        if name
        not in ("adversary.oracle_key_search", "attacks.proximity_attack")
    ),
}

#: Work counters read from call results: (span, counter).
SPAN_COUNTS = (
    ("locking.atpg_lock", "key_bits"),
    ("phys.feol_view", "sink_stubs"),
    ("adversary.build_candidates", "pairs"),
    ("adversary.flow_assignment", "arcs"),
    ("adversary.flow_assignment", "loop_repairs"),
    ("adversary.flow_assignment", "unmatched"),
    ("adversary.oracle_key_search", "hypotheses"),
    ("metrics.compute_hd_oer", "patterns"),
)


class BenchError(RuntimeError):
    """A campaign or the service failed to run; no result is printed."""


class Bench:
    """One benchmark run: workload, seed, scratch space and results."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.work = STATE / f"work-{os.getpid()}"
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.log = self.work / "child.log"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # Forkserver sockets live under TMPDIR; AF_UNIX paths are short.
        if len(str(self.tmp)) <= 64:
            self.env["TMPDIR"] = str(self.tmp)
        self._caches = 0
        self._block: tuple[float, float] | None = None

    # -- bookkeeping ----------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def record(self, label: str, cells: int, digest: str, problems) -> None:
        """Count a finished campaign and keep its output checks."""
        self.attempted += cells
        self.failed += min(cells, len(problems))
        self.problems += [f"{label}: {p}" for p in problems]
        self.digests.add(digest)

    def paced(self, run_once) -> dict:
        """Run *run_once* between two reference blocks; its payload
        gains the wall-clock and CPU ``pace`` and ``cpu_pace`` the host
        ran at (see ``perfbench/pace.py``).  Consecutive samples share
        the block between them."""
        if self._block is None:
            reference_block(SLICE_ROUNDS)  # warm-up: first calls, page faults
            self._block = reference_block()
        before = self._block
        result = run_once()
        self._block = reference_block()
        result["pace"], result["cpu_pace"] = (
            (a + b) / (2 * REFERENCE_S) for a, b in zip(before, self._block)
        )
        return result

    def fresh_cache(self) -> Path:
        self._caches += 1
        return self.work / f"cache-{self._caches}"

    def _log_tail(self) -> str:
        try:
            return "".join(self.log.read_text().splitlines(True)[-25:])
        except OSError:
            return ""

    # -- cold campaigns in fresh interpreters -----------------------------

    def campaign(
        self,
        workers: int,
        trace: bool = False,
        cache_dir: Path | None = None,
        setup_only: bool = False,
    ) -> dict:
        """Run ``campaign.py`` once; returns its payload plus the
        set-up time and the process tree's CPU and peak memory."""
        ready_r, ready_w = os.pipe()
        argv = [
            sys.executable,
            str(HERE / "campaign.py"),
            f"--workload={self.workload}",
            f"--seed={self.seed}",
            f"--workers={workers}",
            f"--ready-fd={ready_w}",
        ]
        argv += ["--trace"] if trace else []
        argv += [f"--cache-dir={cache_dir}"] if cache_dir else []
        argv += ["--setup-only"] if setup_only else []
        out_path = self.work / "campaign.out"
        with open(out_path, "w") as out, open(self.log, "a") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                stdout=out,
                stderr=log,
                env=self.env,
                cwd=ROOT,
                pass_fds=(ready_w,),
            )
        os.close(ready_w)
        with os.fdopen(ready_r, "rb") as ready:
            signalled = ready.read(5) == b"READY"
            setup_s = time.perf_counter() - start
        usage = reap_tree(proc.pid)
        proc.returncode = usage.statuses[proc.pid]
        if not signalled or proc.returncode != 0:
            raise BenchError(
                f"campaign {argv[2:]} exited {proc.returncode}:\n"
                + self._log_tail()
            )
        payload = {}
        if not setup_only:
            payload = json.loads(out_path.read_text().strip().splitlines()[-1])
            label = f"{'traced ' if trace else ''}campaign w{workers}"
            self.record(
                label, payload["cells"], payload["digest"], payload["problems"]
            )
        payload.update(
            setup_s=setup_s, tree_cpu_s=usage.cpu_s, peak_rss_mb=usage.peak_rss_mb
        )
        return payload

    # -- the live service ---------------------------------------------------

    def service(self, repeats: int = CACHED_REPEATS) -> dict:
        """Boot a service on a fresh cache, run the cold job and
        *repeats* cached resubmissions, shut down; returns timings,
        ``/metrics`` deltas and the tree's usage.  ``repeats=0`` only
        times the boot."""
        from repro.runner.spec import spec_payload
        from repro.service.client import ServiceClient
        from campaign import build_spec

        cache_dir = self.fresh_cache()
        argv = [
            sys.executable, "-m", "repro.runner", "serve",
            "--host", "127.0.0.1", "--port", "0",
            f"--workers={SERVICE_WORKERS}", f"--cache-dir={cache_dir}",
        ]
        boot_log = self.work / "serve.log"
        with open(boot_log, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=log, stderr=log, env=self.env, cwd=ROOT
            )
        result: dict = {"cache_dir": cache_dir}
        try:
            client = ServiceClient(self._wait_listening(proc, boot_log))
            client.health()
            result["setup_s"] = time.perf_counter() - start
            if repeats:
                envelope = spec_payload(build_spec(self.workload, self.seed))
                result["cold"] = self._job(client, envelope, "cold job")
                result["cached"] = self._cached_jobs(client, envelope, repeats)
        finally:
            proc.send_signal(signal.SIGTERM)
            usage = reap_tree(proc.pid)
            proc.returncode = usage.statuses[proc.pid]
        result.update(tree_cpu_s=usage.cpu_s, peak_rss_mb=usage.peak_rss_mb)
        if repeats:
            self._check_cached(result)
        return result

    def _wait_listening(self, proc, boot_log: Path, timeout: float = 60.0) -> str:
        marker = "listening on "
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in boot_log.read_text().splitlines():
                if marker in line:
                    return line.split(marker, 1)[1].split()[0]
            if os.waitid(
                os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT
            ):
                break
            time.sleep(0.002)
        raise BenchError("service did not boot:\n" + boot_log.read_text()[-2000:])

    def _job(self, client, envelope: dict, label: str) -> dict:
        """Submit, stream to ``done``; one closed-loop request."""
        from repro.runner.serialize import canonical_json

        before = client.metrics()
        start = time.perf_counter()
        job_id = client.submit(envelope)["id"]
        first = None
        records, problems = [], []
        done: dict = {}
        for record in client.stream(job_id):
            event = record.get("event")
            if event == "result":
                if first is None:
                    first = time.perf_counter() - start
                records.append(record)
            elif event == "error":
                problems.append(f"cell error {record}")
            elif event == "done":
                done = record["job"]
        wall = time.perf_counter() - start
        after = client.metrics()
        summary = client.job(job_id)
        if done.get("state") != "done":
            problems.append(f"job ended {done.get('state')!r}")
        records.sort(key=lambda r: r["index"])
        stripped = [
            {k: v for k, v in r.items() if k not in ("event", "index")}
            for r in records
        ]
        digest = hashlib.sha256(canonical_json(stripped).encode()).hexdigest()
        cells = summary["cells"]["total"]
        self.record(label, cells, digest, problems)
        return {
            "wall_s": wall,
            "first_result_s": first if first is not None else wall,
            "queue_s": summary["started"] - summary["created"],
            "digest": digest,
            "delta": _metrics_delta(before, after),
        }

    def _cached_jobs(self, client, envelope: dict, repeats: int) -> list[dict]:
        """Identical resubmissions, each paced by the reference slices
        right before and right after it: a resubmission takes about
        10 ms, so the pace around the whole service run says little
        about it."""
        before = reference_block(SLICE_ROUNDS)
        jobs = []
        for _ in range(repeats):
            job = self._job(client, envelope, "cached job")
            after = reference_block(SLICE_ROUNDS)
            job["pace"] = (before[0] + after[0]) / (2 * REFERENCE_S)
            before = after
            jobs.append(job)
        return jobs

    def _check_cached(self, result: dict) -> None:
        for job in result["cached"]:
            misses = job["delta"]["runner.cache.misses"]
            if misses:
                self.problems.append(
                    f"cached resubmission saw {misses} cache misses"
                )
                self.failed += 1


def _metrics_delta(before: dict, after: dict) -> dict[str, float]:
    """``/metrics`` counters after minus before, under layer names."""

    def diff(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (a or 0) - (b or 0)  # a stage never touched is absent

    delta = {
        "runner.cache.hits": diff("cache", "hits"),
        "runner.cache.misses": diff("cache", "misses"),
        "runner.worker_cache.hits": diff("cache", "worker", "hits"),
        "runner.worker_cache.misses": diff("cache", "worker", "misses"),
        "service.cells.computed": diff("cells", "computed"),
        "service.cells.deduped": diff("cells", "deduped"),
    }
    for stage in CACHE_STAGES:
        for kind in ("hits", "misses"):
            delta[f"runner.cache.{stage}.{kind}"] = diff(
                "cache", "stages", stage, kind
            )
    return delta


# -- workloads ---------------------------------------------------------------


def repeat(bench: Bench, run_once, setup_once) -> tuple[list[dict], list]:
    """Repeat *run_once* for ``--seconds`` (at least once), then top the
    set-up samples up to :data:`SETUP_SAMPLES` with *setup_once*.
    Every run is paced, the top-ups together; set-up samples are
    ``(seconds, pace)``."""
    reps: list[dict] = []
    durations: list[float] = []
    while not reps or bench.seconds - bench.elapsed() >= median(durations):
        began = time.perf_counter()
        reps.append(bench.paced(run_once))
        durations.append(time.perf_counter() - began)
    setup = [(r["setup_s"], r["pace"]) for r in reps]
    missing = SETUP_SAMPLES - len(setup)
    if missing > 0:
        top_up = bench.paced(
            lambda: {"setup_s": [setup_once()["setup_s"] for _ in range(missing)]}
        )
        setup += [(seconds, top_up["pace"]) for seconds in top_up["setup_s"]]
    return reps, setup


def at_reference_pace(timed: dict[str, list], peak_rss_mb: list) -> dict:
    """End-to-end samples: each ``(seconds, pace)`` divided through,
    raw seconds kept under ``raw`` for the table."""
    samples = {
        name: [t / pace for t, pace in pairs] for name, pairs in timed.items()
    }
    samples["peak_rss_mb"] = peak_rss_mb
    samples["raw"] = {
        name: [t for t, _ in pairs] for name, pairs in timed.items()
    }
    samples["pace"] = sorted(pace for _, pace in timed["setup_s"])
    return samples


def cli_end_to_end(bench: Bench) -> tuple[dict, dict]:
    """Cold campaigns for ``--seconds``; end-to-end medians."""
    workers = POOL_WORKERS if bench.workload == "table-grid" else 1
    reps, setup = repeat(
        bench,
        lambda: bench.campaign(workers),
        lambda: bench.campaign(workers, setup_only=True),
    )
    walls = [(r["wall_s"], r["pace"]) for r in reps]
    timed = {
        "setup_s": setup,
        "wall_s": walls,
        "cpu_s": [(r["tree_cpu_s"], r["cpu_pace"]) for r in reps],
        # A one-shot campaign delivers every result when it returns and
        # keeps no cache, so the first result and a resubmission both
        # cost the cold campaign's wall time.
        "first_result_s": walls,
        "cached_job_s": walls,
    }
    samples = at_reference_pace(timed, [r["peak_rss_mb"] for r in reps])
    return samples, {"reps": len(reps), "workers": workers}


def service_end_to_end(bench: Bench) -> tuple[dict, dict]:
    """Service boots with a cold job and cached resubmissions."""
    reps, setup = repeat(bench, bench.service, lambda: bench.service(repeats=0))
    # ``matrix_verdict`` needs the outcomes the records omit: a serial
    # campaign over the service's cache reads them back, and its digest
    # must equal the streamed records' (``check_digests``).
    bench.campaign(workers=1, cache_dir=reps[-1]["cache_dir"])
    timed = {
        "setup_s": setup,
        "wall_s": [(r["cold"]["wall_s"], r["pace"]) for r in reps],
        "cpu_s": [(r["tree_cpu_s"], r["cpu_pace"]) for r in reps],
        "first_result_s": [
            (r["cold"]["first_result_s"], r["pace"]) for r in reps
        ],
        "cached_job_s": [
            (j["wall_s"], j["pace"]) for r in reps for j in r["cached"]
        ],
    }
    samples = at_reference_pace(timed, [r["peak_rss_mb"] for r in reps])
    return samples, {"reps": len(reps), "workers": SERVICE_WORKERS}


def layer_metrics(bench: Bench) -> tuple[dict, dict]:
    """The traced run: untraced and traced serial campaigns, spans."""
    plain = bench.campaign(workers=1)
    traced = bench.campaign(workers=1, trace=True)
    spans = traced["spans"]
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        span = spans[name]
        metrics[f"{name}.wall_s"] = span["wall_s"]
        metrics[f"{name}.cpu_s"] = span["cpu_s"]
        metrics[f"{name}.calls"] = span["calls"]
    for name, counter in SPAN_COUNTS:
        metrics[f"{name}.{counter}"] = spans[name]["counts"].get(counter, 0)
    hd = spans["metrics.compute_hd_oer"]
    metrics["metrics.compute_hd_oer.patterns_per_s"] = (
        hd["counts"].get("patterns", 0) / hd["inclusive_wall_s"]
        if hd["inclusive_wall_s"]
        else 0.0
    )
    metrics["runner.unattributed.wall_s"] = (
        traced["wall_s"] - traced["top_level_wall_s"]
    )
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    missing = [n for n in EXPECTED_SPANS[bench.workload] if not spans[n]["calls"]]
    if missing:
        bench.problems.append(f"spans never fired: {', '.join(missing)}")
    info = {
        "serial_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "serial_cpu_s": plain["tree_cpu_s"],
        "bindings": traced["bindings"],
        "spans": spans,
    }

    # Service counters are zero on the workloads without a service.
    counters = dict.fromkeys(SERVICE_COUNTERS, 0.0)
    counters["runner.cache.hit_ratio"] = 0.0
    counters["service.job.queue_s"] = 0.0
    if bench.workload == "table-grid":
        pool = bench.campaign(workers=POOL_WORKERS)
        info["pool_cpu_s"] = pool["tree_cpu_s"]
        if pool["tree_cpu_s"] < TREE_CPU_FLOOR * plain["tree_cpu_s"]:
            bench.problems.append(
                f"pool tree CPU {pool['tree_cpu_s']:.2f}s below "
                f"{TREE_CPU_FLOOR} x serial {plain['tree_cpu_s']:.2f}s: "
                "workers are missing from the accounting"
            )
    elif bench.workload == "matrix-service":
        run = bench.service(repeats=1)
        jobs = [run["cold"], *run["cached"]]
        for key in SERVICE_COUNTERS:
            counters[key] = sum(job["delta"][key] for job in jobs)
        hits = sum(job["delta"]["runner.cache.hits"] for job in jobs)
        misses = sum(job["delta"]["runner.cache.misses"] for job in jobs)
        counters["runner.cache.hit_ratio"] = hits / (hits + misses)
        counters["service.job.queue_s"] = run["cold"]["queue_s"]
    metrics.update(counters)
    return metrics, info


# -- reporting ---------------------------------------------------------------


def _table(title: str, header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(str(row[i])) for row in [header, *rows])
        for i in range(len(header))
    ]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def end_to_end_table(workload: str, samples: dict) -> str:
    rows = []
    for name, unit in END_TO_END_UNITS.items():
        values = samples[name]
        raw = samples["raw"].get(name)
        rows.append(
            [name, f"{median(values):.4f}", unit, str(len(values)),
             f"{min(values):.4f}", f"{max(values):.4f}",
             f"{median(raw):.4f}" if raw else "-"]
        )
    paces = " ".join(f"{p:.3f}" for p in samples["pace"])
    return _table(
        f"end to end: {workload} (median over n samples; seconds at "
        f"reference pace, raw median last; host paces: {paces})",
        ["metric", "median", "unit", "n", "min", "max", "raw_median"],
        rows,
    )


def layer_table(workload: str, info: dict) -> str:
    wall = info["traced_wall_s"]
    rows = []
    spans = sorted(info["spans"].items(), key=lambda kv: -kv[1]["wall_s"])
    for name, span in spans:
        counts = " ".join(f"{k}={v:g}" for k, v in sorted(span["counts"].items()))
        rows.append(
            [name, f"{span['wall_s']:.3f}", f"{span['cpu_s']:.3f}",
             str(span["calls"]), f"{100 * span['wall_s'] / wall:.1f}%", counts]
        )
    top = spans[0][0] if spans and spans[0][1]["calls"] else "none"
    return _table(
        f"per layer: {workload} (traced serial wall {wall:.2f}s, untraced "
        f"{info['serial_wall_s']:.2f}s; top layer: {top})",
        ["span", "self_wall_s", "self_cpu_s", "calls", "share", "counts"],
        rows,
    )


def source_hash() -> str:
    """Hash of the program and of the benchmark, which builds its specs."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_digests(bench: Bench) -> None:
    """One digest per run, equal to earlier runs of this tree and seed."""
    if len(bench.digests) != 1:
        bench.problems.append(
            f"campaigns of one run disagree: {sorted(bench.digests)}"
        )
        return
    (digest,) = bench.digests
    store = STATE / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{bench.workload}:{bench.seed}:{source_hash()}"
    if known.setdefault(key, digest) != digest:
        bench.problems.append(
            f"digest {digest[:12]} differs from an earlier run's "
            f"{known[key][:12]} (nondeterminism)"
        )
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("table-grid", "attack-grid", "matrix-service"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    become_subreaper()
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, info = layer_metrics(bench)
            report = layer_table(args.workload, info)
        else:
            run = (
                service_end_to_end
                if args.workload == "matrix-service"
                else cli_end_to_end
            )
            samples, info = run(bench)
            info["samples"] = samples
            metrics = {name: median(samples[name]) for name in END_TO_END_UNITS}
            report = end_to_end_table(args.workload, samples)
        check_digests(bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else {}
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, _layer_unit(name))}
            for name, value in metrics.items()
        },
    }
    reports = STATE / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(
        json.dumps(
            {"report": report, "info": info, "problems": bench.problems,
             "digests": sorted(bench.digests), "result": result},
            indent=1, default=str,
        )
    )
    print(report)
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("patterns_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
