"""Whole-pipeline benchmark: capture, replay, checkpointed and service runs.

Run from the repository root::

    python3 perfbench/run.py --workload capture_sweep --seed 1 \\
        --seconds 25 --trace 0

``--workload`` is one of ``capture_sweep``, ``replay_shared``,
``supervised_16mb`` and ``service_stream`` (see ``pipelines.py``, and
the ``why`` of each in ``BENCHMARK.json``).  ``--seed`` makes every
input; the program receives only the generated inputs.  Each workload
is a closed loop: one client, the next op starts when the previous one
has finished, for ``--seconds`` of host wall time.

``--trace 0`` measures the end-to-end metrics with tracing off.  Host
times are in reference-host seconds: each is scaled by the speed of a
fixed calibration kernel run next to it (see :func:`calibrate`); the
unscaled figures are printed and kept in the result file.

* ``setup_s`` — the median of five imports of the benchmark's
  ``repro`` modules, each in a fresh interpreter and taken between ops
  spread over the run (see :func:`run_ops`), plus the median of
  five set-ups (generate the seeded inputs, program the machines, build
  workload/host/boards, start the service), scaled by the median of all
  the run's calibrations: set-up is too short for the two taken around
  it to give a steady speed;
* ``records_per_s`` — bus records through the workload's whole pipeline
  per second, the median over ops of each op's records / latency;
* ``peak_rss_mb`` — the larger peak RSS of this process and of its
  waited-for children (supervisor and service workers), read when the
  timed ops end, before the oracles replay;
* ``session_p50_s`` / ``session_tail_s`` — latency of one session: a
  service session from submit to its terminal event on the event feed
  (``service_stream``), one whole pipeline run elsewhere.  The tail is
  the highest percentile with at least ten samples beyond it, and the
  upper median when fewer than 20 sessions ran (no tail is resolvable).

``--trace 1`` spends the first half of ``--seconds`` untraced and the
second half recording spans around every call into a layer, and reports
the per-layer metrics: self time and share per layer, the counts and
ratios each layer produces, and the tracing overhead (median traced op
latency over median untraced op latency, minus one).  The spans go to
``perfbench/_out/spans-<workload>-s<seed>.json``.

Every op's outputs are checked against the oracles for the seed's inputs
(scalar-engine replay for boards; bare ``replay_machine`` replay and
scalar-engine replay for supervised and service runs), against the
first op's (determinism) and,
for the seeds in ``pinned.json``, against pinned digests.  A mismatch,
refusal or failure counts in ``failed`` / ``error_rate`` and the exit
status is 1.  Each op's digests are in the result file below; pinning a
seed means copying its first op's ``digests`` into ``pinned.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give each
metric with its unit and sample count, the per-board miss ratios and
peer events, and the environment stamp.  The full result goes to
``perfbench/_out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
PINNED = HERE / "pinned.json"
SETUPS = 5
IMPORTS = 5
#: Times ``import pipelines`` (and with it every ``repro`` layer the
#: benchmark drives) in a fresh interpreter; argv holds the two source
#: directories to put on ``sys.path``.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import pipelines\n"
    "print(repr(time.perf_counter() - start))\n"
)
#: Iterations of the calibration kernel, and its duration on the
#: reference host (a 2-vCPU 2.1 GHz x86 VM, Python 3.11, at its fastest
#: observed speed).  Host time is reported in reference-host seconds.
CALIBRATION_LOOPS = 30_000
REFERENCE_CALIBRATION_S = 0.0047

#: Per-layer self time is reported for these layers (span ``layer``).
LAYERS = ("bench", "workloads", "host", "bus", "memories", "engines",
          "supervisor", "checkpoint", "service")
BOARD_NODES = {"sweep": 4, "coherent": 4, "numa": 1, "supervised": 4,
               "service": 4}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Environment stamp
# ---------------------------------------------------------------------- #


def filesystem_of(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) >= len(best):
            best, kind = point, fields[2]
    return f"{kind} on {best}"


def commit_under_test() -> dict:
    """The git commit when run from a clone, and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    return {"git": commit, "source_sha256": digest.hexdigest()}


def environment(work_dir: Path, engines: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": find_spec("numba") is not None,
        "filesystem": filesystem_of(work_dir),
        "commit": commit_under_test(),
        "engines": engines,
    }


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for child.  The import
    probes are children too, but they load only what this process has
    already loaded, so they never set the peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _kernel_seconds() -> float:
    """One run of the calibration kernel: integer arithmetic in the
    interpreter loop, then tuple allocation and dict stores and lookups,
    the two kinds of work the program's hot paths mix."""
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOPS):
        total += value * value % 7
    table = {}
    for value in range(CALIBRATION_LOOPS // 2):
        table[value * 7919 % 65536] = (value, total)
    for value in range(CALIBRATION_LOOPS // 2):
        total += table.get(value, (0, 0))[0]
    return time.perf_counter() - start


def calibrate() -> float:
    """Host speed now: a fixed interpreter-bound kernel's wall time.

    The benchmark's hosts are shared machines whose CPUs each swing in
    speed by about 20% over seconds, independently of one another, so
    every host time is scaled by ``REFERENCE_CALIBRATION_S`` over the
    kernel time taken next to it: the time the work would have taken on
    the reference host.  The kernel runs on every CPU the process may
    use (median of three runs each, averaged over the CPUs), since the
    work and the workers it forks may run on any of them.  The program
    is idle meanwhile: between ops, and around set-up.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(
                _kernel_seconds() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host wall in reference-host seconds."""
    return seconds * REFERENCE_CALIBRATION_S * 2.0 / (before + after)


def import_seconds() -> float:
    """One cold import of the benchmark's ``repro`` modules."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout.split()[-1])


def tail(latencies: List[float]):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it.  With fewer than 20 samples that would fall below
    the median, so no tail is resolvable and this is the upper median."""
    ordered = sorted(latencies)
    count = len(ordered)
    kept = count - 10 if count >= 20 else count // 2 + 1
    return ordered[kept - 1], 100.0 * kept / count


def run_ops(pipeline, spans, seconds: float, errors,
            imports: Optional[List[float]] = None) -> List[dict]:
    """Closed loop of ops for ``seconds`` of op time (at least one op).

    With ``imports``, :data:`IMPORTS` cold-import timings
    (:func:`import_seconds`) are appended to it, spread evenly over the
    loop between ops: on a shared host import time swings by a third
    over a few seconds, so samples taken back to back share one swing.
    Their time does not count toward ``seconds``.
    """
    from pipelines import digest_of

    ops = []
    begin = time.perf_counter()
    probing = 0.0

    def elapsed() -> float:
        return time.perf_counter() - begin - probing

    while True:
        if imports is not None and len(imports) < IMPORTS and (
                elapsed() >= seconds * len(imports) / IMPORTS):
            probe_start = time.perf_counter()
            imports.append(import_seconds())
            probing += time.perf_counter() - probe_start
        calibration = calibrate()
        start = time.perf_counter()
        entry = {"traced": spans.enabled, "records": 0, "digests": {},
                 "calibration": calibration}
        try:
            with spans.span("op", "bench"):
                op = pipeline.op()
            latency = time.perf_counter() - start
            entry["latency"] = op.latency if op.latency else latency
            entry["records"] = op.records
            entry["digests"] = {
                name: digest_of(output) for name, output in op.outputs.items()
            }
            pipeline.after_op(op)
        except errors as error:
            entry["latency"] = time.perf_counter() - start
            entry["error"] = f"{type(error).__name__}: {error}"
        ops.append(entry)
        if elapsed() >= seconds:
            break
    while imports is not None and len(imports) < IMPORTS:
        imports.append(import_seconds())
    after = [entry["calibration"] for entry in ops[1:]] + [calibrate()]
    for entry, later in zip(ops, after):
        entry["latency_raw"] = entry["latency"]
        entry["latency"] = normalize(entry["latency"], entry["calibration"],
                                     later)
    return ops


def check(ops: List[dict], references: Dict[str, Dict[str, str]],
          pinned: Dict[str, str]) -> None:
    """Mark each op ``ok`` when every digest matches every oracle."""
    first: Dict[str, str] = {}
    tables = [(f"{source} oracle", table)
              for source, table in references.items()]
    tables += [("pinned", pinned), ("first op", first)]
    for entry in ops:
        problems = [entry["error"]] if "error" in entry else []
        for name, digest in entry["digests"].items():
            first.setdefault(name, digest)
            for source, table in tables:
                if name in table and table[name] != digest:
                    problems.append(f"{name} differs from {source}")
        entry["ok"] = not problems
        if problems:
            entry["problems"] = problems


def end_to_end(ops, setup_s: float, setup_raw: float,
               rss_mb: float) -> Dict[str, tuple]:
    """End-to-end metrics with a note on samples and unscaled host time.

    Every op does the same work, so throughput is the median of the ops'
    own rates; an op that failed counts as a rate of 0.
    """
    latencies = [entry["latency"] for entry in ops]

    def rate(entry: dict, key: str) -> float:
        return entry["records"] / entry[key] if entry["ok"] else 0.0

    raw_rate = statistics.median(rate(e, "latency_raw") for e in ops)
    tail_value, tail_pct = tail(latencies)
    count = len(ops)
    return {
        "setup_s": (setup_s, f"median of {IMPORTS} imports + median of "
                             f"{SETUPS} set-ups; unscaled {setup_raw:.4f}"),
        "records_per_s": (statistics.median(rate(e, "latency") for e in ops),
                          f"n={count} sessions; unscaled {raw_rate:.1f}"),
        "peak_rss_mb": (rss_mb, "n=1 process tree"),
        "session_p50_s": (statistics.median(latencies), f"n={count}"),
        "session_tail_s": (tail_value, f"p{tail_pct:.1f}, n={count}"),
    }


def per_layer(pipeline, spans, ops, boards, facts,
              checkpoint) -> Dict[str, tuple]:
    """Every per-layer metric; layers a workload does not use read 0."""
    traced = [entry for entry in ops if entry["traced"]]
    plain = [entry for entry in ops if not entry["traced"]]
    count = len(traced)
    acc = pipeline.layer

    def per_op(name: str) -> float:
        return acc.get(name, 0.0) / count

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    op_wall = spans.total("op")
    tracer = spans.total("memories.tracer")
    records_per_op = ratio(sum(e["records"] for e in traced), count)
    refs = acc.get("workloads.refs", 0.0)
    metrics: Dict[str, tuple] = {
        "workloads.gen_s": (spans.total("workloads.chunks") / count, "s"),
        "workloads.reset_s": (spans.total("workloads.reset") / count, "s"),
        "workloads.refs": (per_op("workloads.refs"), "count"),
        "host.run_chunk_s": (
            (spans.total("host.run_chunk") - tracer) / count, "s"),
        "host.l2_miss_ratio": (ratio(acc.get("host.l2_misses", 0.0), refs),
                               "ratio"),
        "bus.tenures": (per_op("bus.tenures"), "count"),
        "bus.retries": (per_op("bus.retries"), "count"),
        "bus.records_per_ref": (
            ratio(acc.get("capture.records", 0.0), refs), "ratio"),
        "capture.tracer_s": (tracer / count, "s"),
    }
    for board in ("sweep", "coherent", "numa"):
        metrics[f"replay.{board}_records_per_s"] = (
            ratio(records_per_op * count, acc.get(f"replay.{board}_s", 0.0)),
            "1/s",
        )
    for board, nodes in BOARD_NODES.items():
        miss = facts.get(board, {}).get("miss_ratio", [])
        for node in range(nodes):
            metrics[f"replay.miss_ratio.{board}.n{node}"] = (
                miss[node] if node < len(miss) else 0.0, "ratio")
    metrics["filter.admit_frac"] = (ratio(
        sum(f["admitted"] for f in facts.values()),
        sum(f["decoded"] for f in facts.values()),
    ), "ratio")
    metrics["replay.remote_events"] = (
        float(sum(f["remote_events"] for f in facts.values())), "count")
    emulated = next(iter(boards.values())).emulated_seconds
    metrics["memories.slowdown_x"] = (
        ratio(sum(e["latency"] for e in traced), emulated * count), "x")
    for name, unit in (
        ("trace.stage_s", "s"), ("trace.staged_bytes", "bytes"),
        ("supervise.run_s", "s"), ("supervise.checkpoint_share", "ratio"),
        ("supervise.replay_share", "ratio"), ("supervise.segments", "count"),
        ("supervise.restarts", "count"),
        ("service.submit_s", "s"), ("service.ingest_s", "s"),
        ("service.run_s", "s"), ("service.server_s", "s"),
        ("service.hist.segment_replay_s", "s"),
        ("service.hist.checkpoint_write_s", "s"),
    ):
        metrics[name] = (per_op(name), unit)
    metrics["service.ingest_records_per_s"] = (
        ratio(records_per_op * count, acc.get("service.ingest_s", 0.0)),
        "1/s")
    metrics["service.refusals"] = (acc.get("service.refusals", 0.0), "count")
    for name in ("checkpoint.write_s", "checkpoint.restore_s"):
        metrics[name] = (checkpoint[name], "s")
    metrics["checkpoint.bytes"] = (checkpoint["checkpoint.bytes"], "bytes")
    metrics["tracing.overhead_frac"] = (ratio(
        statistics.median(e["latency"] for e in traced),
        statistics.median(e["latency"] for e in plain),
    ) - 1.0, "ratio")
    self_times = spans.self_times()
    total_self = sum(self_times.values())
    for layer in LAYERS:
        own = self_times.get(layer, 0.0)
        metrics[f"self_s.{layer}"] = (own / count, "s")
        metrics[f"share.{layer}"] = (ratio(own, total_self), "ratio")
    replay = sum(spans.total(n) for n in (
        "replay.sweep", "replay.coherent", "replay.numa", "worker.replay"))
    capture = spans.total("workloads.reset") + spans.total("capture")
    metrics["stage.capture_share"] = (ratio(capture, op_wall), "ratio")
    metrics["stage.replay_share"] = (ratio(replay, op_wall), "ratio")
    metrics["stage.checkpoint_share"] = (
        ratio(spans.total("worker.checkpoint"), op_wall), "ratio")
    return metrics


# ---------------------------------------------------------------------- #
# Main
# ---------------------------------------------------------------------- #


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        print(f"perfbench: unreadable BENCHMARK.json: {error}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pipelines
    from repro.common.errors import ReproError
    from spans import Spans

    if args.workload not in pipelines.PIPELINES:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(pipelines.PIPELINES)}", file=sys.stderr)
        return 2
    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_id = hashlib.sha256(
        f"{label}-{os.getpid()}-{time.perf_counter()!r}".encode()
    ).hexdigest()[:16]
    spans = Spans(run_id, enabled=False)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    pipeline = pipelines.PIPELINES[args.workload](args.seed, spans, work_dir)
    errors = (ReproError, OSError)
    try:
        calibration = calibrate()
        setup_times = []
        for index in range(SETUPS):
            if index:
                pipeline.close()
            start = time.perf_counter()
            pipeline.setup()
            setup_times.append(time.perf_counter() - start)
        calibrations = [calibration, calibrate()]
        import_times: List[float] = []
        if args.trace:
            ops = run_ops(pipeline, spans, args.seconds / 2, errors,
                          import_times)
            spans.enabled = True
            ops += run_ops(pipeline, spans, args.seconds / 2, errors)
            spans.enabled = False
        else:
            ops = run_ops(pipeline, spans, args.seconds, errors, import_times)
        rss_mb = peak_rss_mb()
        calibrations += [entry["calibration"] for entry in ops]
        setup_raw = (statistics.median(import_times)
                     + statistics.median(setup_times))
        setup_s = (setup_raw * REFERENCE_CALIBRATION_S
                   / statistics.median(calibrations))
        pipeline.close()
        oracles = pipeline.reference()
        boards = next(iter(oracles.values()))
        reference = {
            source: {name: pipelines.digest_of(b) for name, b in table.items()}
            for source, table in oracles.items()
        }
        pinned_all = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
        pinned = pinned_all.get(args.workload, {}).get(str(args.seed), {})
        check(ops, reference, pinned)
        facts = {name: pipelines.board_facts(b) for name, b in boards.items()}
        engines = {name: pipelines.engine_decisions(b)
                   for name, b in boards.items()}
        extra_checks = []
        if args.trace:
            checkpoint = pipelines.checkpoint_round_trip(
                next(iter(boards.values())), pipeline.fresh_board(),
                work_dir / "roundtrip.ckpt")
            extra_checks.append(("checkpoint round trip restores the board",
                                 checkpoint["identical"]))
            metrics = per_layer(pipeline, spans, ops, boards, facts,
                                checkpoint)
            wanted = spec["per_layer"]
        else:
            metrics = end_to_end(ops, setup_s, setup_raw, rss_mb)
            wanted = spec["end_to_end"]
        env = environment(work_dir, engines)
    finally:
        pipeline.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(ops) + len(extra_checks)
    failed = sum(1 for e in ops if not e["ok"]) + sum(
        1 for _, ok in extra_checks if not ok)
    units = {m["name"]: m["unit"] for m in wanted}
    result_metrics = {
        name: {"value": metrics[name][0], "unit": units[name]}
        for name in units
    }
    notes = {name: metrics[name][1] for name in units}
    correct = failed == 0

    print(f"perfbench {label}: {len(ops)} ops, {failed} failed, "
          f"error_rate {failed / attempted:.4f} (n={attempted})")
    for name, entry in result_metrics.items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']:8s} "
              f"{notes[name] if args.trace == 0 else ''}")
    for board, fact in facts.items():
        miss = " ".join(f"{m:.3f}" for m in fact["miss_ratio"])
        print(f"  board {board}: miss ratio per node [{miss}], "
              f"remote_events {fact['remote_events']}, "
              f"admitted {fact['admitted']}/{fact['decoded']}")
    for name, ok in extra_checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for entry in ops:
        if not entry["ok"]:
            print(f"  FAILED op: {'; '.join(entry['problems'])}")
    print("  env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "run": run_id, "env": env,
        "reference": reference, "pinned": pinned, "facts": facts,
        "metrics": result_metrics, "notes": notes,
        "setup_times": setup_times, "import_times": import_times,
        "setup_raw": setup_raw,
        "ops": ops,
    }
    (OUT / f"{label}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")
    if args.trace:
        spans.write(OUT / f"spans-{args.workload}-s{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "env": env, "self_s": spans.self_times()})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
