"""The lie2alg benchmark: one workload per run, as a closed loop with one
caller and one thread.

    python3 perfbench/run.py --workload {verify,cli}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere; it imports the package from ``src/`` next to this
directory and reads the workload names, the metric names and units and the
default ``--seconds`` from ``BENCHMARK.json`` at the repository root.
Set-up builds the inputs and the expected results from the seed: twice
before the timed loop, once every five seconds inside it (between two ops,
outside their timings) and twice after it, so that the median
(``setup_s``) samples the host over the whole run.  The timed loop repeats
whole rounds of the workload's op list while another round still fits in
``--seconds`` (and at least MIN_ROUNDS rounds), checks every output against
its oracle and, for the default seed, against the committed digests of its
canonical text.  Check time is outside the op timings.  ``op_s.p50`` and
``op_s.p90`` are nearest-rank percentiles over every op of the run: each is
the time of one op, never an interpolation between two ops, which may be of
different kinds.  Whole rounds keep the mix of ops the same in every run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one round
untraced and the same round again with wrappers around the package's
public functions (see ``tracing.py``), and reports the per-layer metrics
(computed as ``layers.py`` says) plus the tracing overhead.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a readable summary and the run's
environment.  The exit status is 0 only when every op was correct and every
metric of ``BENCHMARK.json`` was produced.  Each run also writes
``perfbench/_out/<workload>-seed<N>-trace<T>.json`` with one record per op
(key, kind, rung or subcommand, bit height, seconds, verdict), and a
traced run writes its spans next to it.

``--write-digests`` records the digests of one round on the default seed
into ``perfbench/digests.json``; it is needed only when the op list changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
WORK_DIR = HERE / "_work"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
SETUP_END_REPEATS = 2     # set-ups right before the timed loop, and again after it
SETUP_EVERY_S = 5.0       # one more set-up inside the loop this often
MIN_ROUNDS = 3            # repeats of every op in a timed run, at least
perf_counter = time.perf_counter


def host_probe() -> float:
    """Median seconds of a fixed pure-Python and Fraction loop that does not
    touch lie2alg: a diagnostic of host speed, never used to rescale."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc, x = Fraction(0), 0
        for i in range(1, 20001):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            x = (x * 31 + i) % 1000003
        for i in range(500000):
            x = (x * 31 + i) % 1000003
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed_setup(workload, seed: int, ctx, times: list):
    t0 = perf_counter()
    inputs = workload.setup(seed, ctx)
    times.append(perf_counter() - t0)
    return inputs


def run_op(op, ctx, index: int, first_round: bool, digests, collected: dict) -> dict:
    reason, out = None, None
    tracer = ctx.tracer
    if tracer is not None:
        tracer.op, tracer.enabled = index, True
    t0 = perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # counted as a failed op, the loop goes on
        reason = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    if reason is None:
        try:
            reason = op.check(out)
        except Exception as exc:
            reason = f"oracle raised {type(exc).__name__}: {exc}"
    if reason is None and first_round and digests is not None:
        digest = hashlib.sha256(op.text(out).encode("utf-8")).hexdigest()
        collected[op.key] = digest
        if digests is not True and digests.get(op.key) != digest:
            reason = "canonical output differs from the committed digest"
    return {"key": op.key, "kind": op.kind, "size": op.size, "bits": op.bits,
            "seconds": seconds, "ok": reason is None, "reason": reason,
            "raised": reason is not None and reason.startswith("raised")}


def timed_rounds(workload, inputs, ctx, seconds: float, digests, one_round: bool = False,
                 resetup=None):
    """Whole rounds while another round of the last one's length still fits,
    and in any case MIN_ROUNDS of them.  Calls
    ``resetup()`` after the first op that ends SETUP_EVERY_S after the
    previous call, outside the op timings."""
    records: list[dict] = []
    collected: dict = {}
    start = last_setup = perf_counter()
    rounds = 0
    while True:
        r0 = perf_counter()
        for op in workload.ops(inputs, ctx):
            records.append(run_op(op, ctx, len(records), rounds == 0, digests, collected))
            if resetup is not None and perf_counter() - last_setup >= SETUP_EVERY_S:
                resetup()
                last_setup = perf_counter()
        rounds += 1
        now = perf_counter()
        if one_round or ((now - start) + (now - r0) > seconds
                         and rounds >= MIN_ROUNDS):
            return records, collected, rounds


def nearest_rank(sorted_values: list, q: float):
    """The smallest value with at least a share q of the values at or below it."""
    return sorted_values[max(math.ceil(q * len(sorted_values)), 1) - 1]


def op_metrics(records: list[dict]) -> dict:
    secs = sorted(r["seconds"] for r in records if not r["raised"])
    total = sum(r["seconds"] for r in records)
    if not secs:
        return {}
    return {"op_s.p50": nearest_rank(secs, 0.5), "op_s.p90": nearest_rank(secs, 0.9),
            "ops_per_s": len(secs) / total}


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (no git metadata in this checkout)"


def environment(workload: str, seed: int, records: list[dict]) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lie2alg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": sys.version.split()[0], "numpy": numpy.__version__,
        "commit": _commit(), "src_sha256": src.hexdigest(),
        "ops": dict(Counter(r["kind"] for r in records)),
        "ops_by_size": dict(Counter(r["size"] for r in records)),
    }


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lie2alg
    except ImportError as exc:
        print(f"perfbench: cannot import lie2alg from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(lie2alg.__file__).resolve().is_relative_to(src):
        print(f"perfbench: lie2alg was imported from {lie2alg.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import layers
    import tracing
    from workloads import WORKLOADS, Context

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    mismatch = sorted(set(spec_names(spec, "per_layer")) ^ set(layers.LAYER_METRICS)) + sorted(
        set(spec_names(spec, "workloads")) ^ set(WORKLOADS))
    if mismatch:
        print(f"perfbench: BENCHMARK.json and perfbench/ disagree on {mismatch}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(ROOT, work)
    try:
        if args.write_digests:
            return write_digests(workload, ctx, args.seed)
        digests = None
        if args.seed == DEFAULT_SEED and DIGESTS.exists():
            committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
            digests = committed.get(args.workload, {})
        probe_before = host_probe()
        setup_times: list[float] = []
        if args.trace:
            inputs = workload.setup(args.seed, ctx)
            plain, _, rounds = timed_rounds(workload, inputs, ctx, 0, digests, one_round=True)
            tracer = tracing.Tracer()
            tracer.install()
            tracer.enabled = False
            ctx.tracer = tracer
            try:
                traced, _, _ = timed_rounds(workload, inputs, ctx, 0, digests, one_round=True)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            records = plain + traced
        else:
            def setup():
                return timed_setup(workload, args.seed, ctx, setup_times)

            for _ in range(SETUP_END_REPEATS):
                inputs = setup()
            records, _, rounds = timed_rounds(workload, inputs, ctx, args.seconds, digests,
                                              resetup=setup)
            for _ in range(SETUP_END_REPEATS):
                setup()
        probe_after = host_probe()

        if args.trace:
            dump = tracer.dump()
            for child in ctx.child_dumps:
                tracing.merge(dump, child)
            agg = tracing.aggregate(dump)
            run_figures = {
                "trace.overhead_s": sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in plain),
                "host.probe_before_s": probe_before, "host.probe_after_s": probe_after,
                "cli.import_s": ctx.cli_import_s,
            }
            values = {name: layers.layer_value(m["spec"], agg, dump, run_figures)
                      for name, m in layers.LAYER_METRICS.items()}
        else:
            values = {"setup_s": statistics.median(setup_times), **op_metrics(records),
                      "peak_rss_mb": peak_rss_mb(workload.in_process)}
        metrics = {k: {"value": v, "unit": declared[k]} for k, v in values.items()
                   if k in declared and v is not None}
        missing = [k for k in declared if k not in metrics]
        undeclared = sorted(set(values) - set(declared))

        failed = sum(not r["ok"] for r in records)
        env = environment(args.workload, args.seed, records)
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result = {"env": env, "probe_before_s": probe_before, "probe_after_s": probe_after,
                  "setup_times_s": setup_times, "metrics": metrics, "missing": missing,
                  "ops": records}
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
        if args.trace:
            (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "op", "extra"], **dump}),
                encoding="utf-8")

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"ops {len(records)}  rounds {rounds}")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_share':40s} {failed / len(records):.6g} ({failed}/{len(records)}; "
              f"op_s.p50 and op_s.p90 over n={sum(not r['raised'] for r in records)})")
        print(f"  host probe: {probe_before:.4f} s before, {probe_after:.4f} s after")
        for name in missing:
            print(f"  missing: {name} (not produced; a hook it needs no longer resolves)")
        for name in undeclared:
            print(f"  not in BENCHMARK.json: {name}")
        for r in [r for r in records if not r["ok"]][:5]:
            print(f"  FAILED {r['key']}: {r['reason']}")
        print("env " + json.dumps(env, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                          "metrics": metrics}))
        return 0 if failed == 0 and not missing and not undeclared else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def spec_names(spec: dict, key: str) -> list[str]:
    return [entry["name"] for entry in spec[key]]


def write_digests(workload, ctx, seed: int) -> int:
    if seed != DEFAULT_SEED:
        print(f"perfbench: digests are kept for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    inputs = workload.setup(seed, ctx)
    records, collected, _ = timed_rounds(workload, inputs, ctx, 0, True, one_round=True)
    bad = [r for r in records if not r["ok"]]
    if bad:
        print(f"perfbench: not writing digests, {len(bad)} op(s) failed: {bad[0]['reason']}",
              file=sys.stderr)
        return 1
    committed = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    committed["seed"] = DEFAULT_SEED
    committed[workload.name] = collected
    DIGESTS.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(collected)} digests for {workload.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
