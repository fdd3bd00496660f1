"""sympspec benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {verify,spectra,cli-cold} --seed N --seconds S --trace {0,1}

The package is imported from ./src.  The run prints an environment line
and a details line, then, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with nothing wrapped; with ``--trace 1``
they are the per-layer ones of ``layers.PER_LAYER``.

``--seconds`` sets how many ops the run makes, through a fixed rate per
workload; elapsed time never changes the op list.  The run and its
children use one BLAS thread and one CPU.  Reported times are scaled to
the calibration machine's speed by a reference probe taken around each op
and each set-up sample (see ``stats.at_reference_speed``); the unscaled
values are in the details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import machine
import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify", "spectra", "cli-cold")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
SPAWN_SAMPLES = 5
PROBE_INTERVAL_S = 0.05
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, and print the set-up seconds (used for setup_s)")
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be within 1..600")
    return args


def setup(args, work_dir, src_dir):
    """Import the package and build the workload; return (seconds, workload)."""
    t0 = time.perf_counter()
    import workloads

    if args.workload == "verify":
        wl = workloads.Verify(args.seed, args.seconds, work_dir)
    elif args.workload == "spectra":
        wl = workloads.Spectra(args.seed, args.seconds, work_dir)
    else:
        wl = workloads.CliCold(args.seed, args.seconds, work_dir, src_dir)
    return time.perf_counter() - t0, wl


def setup_probe_s(args, work_dir, src_dir):
    """Seconds to set up and to make every op's inputs once.

    Spectra makes a cycle's inputs just before the cycle runs; here every
    cycle is made and dropped, so ``setup_s`` counts that work too.
    """
    t0 = time.perf_counter()
    _, wl = setup(args, work_dir, src_dir)
    for _ in wl.batches():
        pass
    return time.perf_counter() - t0


@dataclass
class Executed:
    latencies: list  # seconds per op, as measured
    refs: list  # reference probe (ms) around each op
    probes: list  # every reference probe (ms) taken
    outcomes: list
    scores: list  # share of each op's checks that passed
    keys: list  # Op.key of each op; the ops themselves, and their inputs, are dropped

    def scaled(self):
        return stats.at_reference_speed(self.latencies, self.refs)


def execute(wl, batches, tracer=None):
    """Run the ops in order, interleaved with the reference probe.

    The reference probe runs before the first op and whenever PROBE_INTERVAL_S
    of op time has passed; each op gets the mean of the probes on either side.
    """
    pause = tracer.paused if tracer is not None else contextlib.nullcontext
    latencies, outcomes, scores, keys = [], [], [], []
    with pause():
        marks = [(-1, machine.reference_probe())]
    since = 0.0
    batches = iter(batches)
    while True:
        with pause():  # a batch may make its inputs here (spectra); that is set-up work
            batch = next(batches, None)
        if batch is None:
            break
        b_out, b_res = [], []
        for op in batch:
            outcome, dt, res = stats.run_op(op.thunk, op.check, pause=pause)
            latencies.append(dt)
            b_out.append(outcome)
            b_res.append(res)
            since += dt
            if since >= PROBE_INTERVAL_S:
                with pause():
                    marks.append((len(latencies) - 1, machine.reference_probe()))
                since = 0.0
        # Outside op timing but not paused: verify's write_report and replay
        # are program work that the traced run's harness spans count.
        b_out, b_scores = wl.finish(batch, b_out, b_res)
        outcomes += b_out
        scores += b_scores
        keys += [op.key for op in batch]
        del batch, b_res  # before the next batch makes its inputs
    if marks[-1][0] != len(latencies) - 1:
        with pause():
            marks.append((len(latencies) - 1, machine.reference_probe()))
    refs = stats.bracketing_means(len(latencies), marks)
    return Executed(latencies, refs, [v for _, v in marks], outcomes, scores, keys)


def _child_seconds(argv, cwd, env, capture_dir=None):
    """Last stdout line of a child, as a float."""
    _, code, out, err, _ = machine.run_child(argv, cwd, env, capture_dir)
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited {code}: {err.strip()[-300:]}")
    return float(out.strip().splitlines()[-1])


def _scipy_import_s(stderr):
    """Cumulative seconds of the outermost scipy imports in ``-X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m and (m.group(3) == "scipy" or m.group(3).startswith("scipy.")):
            entries.append((len(m.group(2)), int(m.group(1))))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return 1e-6 * sum(us for depth, us in entries if depth == top)


def cli_probes(work_dir, env):
    """cli.spawn_s, cli.import_s and cli.import.scipy_s from fresh interpreters."""
    exe = sys.executable
    spawn_s = [machine.run_child([exe, "-c", "pass"], work_dir, env)[0] for _ in range(SPAWN_SAMPLES)]
    code = "import time; t = time.perf_counter(); import sympspec.cli; print(time.perf_counter() - t)"
    imports = [_child_seconds([exe, "-c", code], work_dir, env) for _ in range(IMPORT_SAMPLES)]
    scipy_s = [_scipy_import_s(machine.run_child([exe, "-X", "importtime", "-c", "import sympspec.cli"],
                                                 work_dir, env)[3])
               for _ in range(IMPORT_SAMPLES)]
    return {"cli.spawn_s": statistics.median(spawn_s),
            "cli.import_s": statistics.median(imports),
            "cli.import.scipy_s": statistics.median(scipy_s)}


def overhead_ratio(wl):
    """Traced over untraced time of the same ops, run alternately so drift cancels.

    The ops are the workload's overhead batch, whose inputs no op of the
    traced run shares, and a throwaway tracer keeps them out of the counts.
    """
    from tracing import Tracer

    child_tracing = wl.name == "cli-cold"
    batch = wl.overhead_batch()
    times = {False: 0.0, True: 0.0}
    for op in batch:
        for traced in (False, True):
            probe = Tracer()
            if child_tracing:
                wl.trace_child = os.path.join(BENCH_DIR, "trace_child.py") if traced else None
            elif traced:
                probe.install()
            try:
                times[traced] += stats.run_op(op.thunk, lambda _: True)[1]
            finally:
                probe.uninstall()
    if child_tracing:
        wl.trace_child = None
        wl.trace_stats.clear()
    return times[True] / times[False]


def traced_run(wl, batches, work_dir, env):
    """Per-layer metrics from a run with the layer functions wrapped."""
    import layers
    from tracing import Tracer

    overhead = overhead_ratio(wl)
    skips = layers.SkipCounter()
    tags, observers = layers.tracer_hooks(skips)
    tracer = Tracer(tags=tags, observers=observers)
    if wl.name == "cli-cold":
        wl.trace_child = os.path.join(BENCH_DIR, "trace_child.py")
    tracer.install()
    try:
        done = execute(wl, batches, tracer=tracer)
    finally:
        tracer.uninstall()
    for payload in getattr(wl, "trace_stats", []):
        tracer.merge_json(payload)

    extra = {
        "tracing.overhead_ratio": overhead,
        "machine.ref_ms": statistics.median(done.probes),
        "extremal.skip_ratio": skips.ratio,
        "harness.report_kb": 0.0,
        "harness.records": 0,
    }
    if wl.name == "verify":
        extra["harness.report_kb"] = statistics.mean(wl.report_bytes) / 1024.0
        extra["harness.records"] = wl.n_records
    elif wl.name == "cli-cold":
        extra["harness.report_kb"] = wl.report["bytes"] / 1024.0
        extra["harness.records"] = wl.report["records"]
    ratios = wl.williamson_ok_ratio(done.keys, done.outcomes) if wl.name == "spectra" else {}
    for family in layers.FAMILIES:
        extra[f"core.williamson.ok_ratio.{family}"] = ratios.get(family, 0.0)
    extra.update(cli_probes(work_dir, env))
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    values = layers.compute(tracer.stats, extra)
    return done, {k: {"value": v, "unit": units[k]} for k, v in values.items()}, {}


def setup_samples(args, root, work_dir, env):
    """Set-up seconds of SETUP_SAMPLES fresh processes, as measured and scaled.

    Each sample is scaled by the reference probe taken just before and just
    after it (median of three each).
    """
    probe = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    raw, refs = [], []
    for _ in range(SETUP_SAMPLES):
        before = statistics.median(machine.reference_probe() for _ in range(3))
        raw.append(_child_seconds(probe, root, env, work_dir))
        after = statistics.median(machine.reference_probe() for _ in range(3))
        refs.append(0.5 * (before + after))
    return raw, stats.at_reference_speed(raw, refs)


def untraced_run(args, wl, batches, root, work_dir, env):
    """End-to-end metrics, with nothing wrapped."""
    done = execute(wl, batches)
    if wl.name == "cli-cold":
        peak_kb = max(wl.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_raw, setup_scaled = setup_samples(args, root, work_dir, env)
    summary, _ = stats.summarize(done.scaled(), done.outcomes, done.scores)
    values = dict(summary, peak_rss_mb=peak_kb / 1024.0, setup_s=statistics.median(setup_scaled))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    return done, metrics, {"setup_s_unscaled": setup_raw}


def run(args, root, src_dir, work_dir):
    main_setup_s, wl = setup(args, work_dir, src_dir)
    wl.warm_up()
    batches = wl.batches()
    env = machine.child_env(src_dir)
    if args.trace:
        done, metrics, more = traced_run(wl, batches, work_dir, env)
    else:
        done, metrics, more = untraced_run(args, wl, batches, root, work_dir, env)
    raw, counts = stats.summarize(done.latencies, done.outcomes, done.scores)
    print(json.dumps({"environment": machine.environment(done.probes)}))
    print(json.dumps({"details": dict(
        counts, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        unscaled={k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        main_setup_s=main_setup_s, gate_failures=wl.gate_failures[:20],
        **more, **wl.details(done.keys, done.outcomes))}))
    print(json.dumps({
        "correct": not wl.gate_failures,
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["ok"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "sympspec", "__init__.py")):
        print(f"error: no package source at {src_dir}/sympspec; "
              "run from the root of a sympspec checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so children are killed and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    machine.pin_blas_threads()
    machine.pin_cpu()
    sys.path.insert(0, src_dir)
    work_root = os.path.join(root, ".bench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.setup_probe:
            print(setup_probe_s(args, work_dir, src_dir))
            return 0
        return run(args, root, src_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)


if __name__ == "__main__":
    sys.exit(main())
