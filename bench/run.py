"""fixflow benchmark: one workload per process, timed end to end or traced.

    python3 bench/run.py --workload emulate-jet --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run sets the workload up several times from ``--seed``
and checks the reference seed's artifacts against ``pinned.json``, then
runs operations back to back, one client in a closed loop, for
``--seconds``. Every set-up and operation is timed between two units of
``calibrate.py``, and its time is scaled to the reference host speed.
``--trace 1`` alternates pairs of untraced and traced passes and reports
per-layer metrics from the traced ones. The last line of standard output
is the JSON result; the run record and the spans go to ``.bench_out/``.
See README.md.
"""

import os

# One BLAS thread: no workload uses more threads than the machine's two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PINNED = os.path.join(BENCH, "pinned.json")
SETUP_REPEATS = 11
HARD_STOP_S = 120  # the timed phase never runs longer, whatever --seconds says


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, label, fn):
        """Count one operation; return its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.fail(1, f"{label}: {traceback.format_exc(limit=-2).strip()}")
            return None

    def fail(self, count, message):
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fixflow")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _check_reference(workload, state, pins):
    found = workload.reference(state)
    if pins is None:
        raise RuntimeError(f"no pinned digests for {workload.name}")
    wrong = sorted(k for k in set(pins) | set(found) if pins.get(k) != found.get(k))
    if wrong:
        raise RuntimeError(f"reference seed artifacts differ from pinned.json: {wrong}")


def _pass_times(times, k):
    """Pass index -> summed time, for passes whose k operations all passed."""
    return {i // k: sum(times[i + s] for s in range(k))
            for i in times if i % k == 0 and all(i + s in times for s in range(k))}


def _median_pass(times, k):
    """Sum over the k stages of each stage's median operation."""
    return sum(float(np.median([t for i, t in times.items() if i % k == s] or [0.0]))
               for s in range(k))


def _scaled(fn):
    """Run ``fn`` between two calibration units.

    Returns its result, its wall time, and that time scaled to the reference
    host speed by the mean of the two units.
    """
    before = calibrate.unit()
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    after = calibrate.unit()
    return result, dt, dt * calibrate.REFERENCE_S / ((before + after) / 2)


def run_workload(name, seed, seconds, trace):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    k = len(workload.stages)  # operation i runs stage i % k; k operations make a pass
    with open(PINNED) as fh:
        pinned = json.load(fh)
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    # Operation index -> seconds, for operations that passed their checks:
    # wall time, and wall time scaled to the reference host speed.
    times, scaled = {}, {}
    setup_times, setup_scaled = [], []

    def set_up(k):
        gc.collect()
        state, dt, dt_scaled = _scaled(lambda: workload.setup(seed, os.path.join(work, f"setup{k}")))
        setup_times.append(dt)
        setup_scaled.append(dt_scaled)
        return state

    shutil.rmtree(work, ignore_errors=True)
    try:
        state = set_up(0)
        ref_state = workload.setup(pinned["reference_seed"], os.path.join(work, "reference"))
        tally.run("reference", lambda: _check_reference(workload, ref_state, pinned.get(name)))
        del ref_state
        if hasattr(workload, "compile_and_compare"):
            tally.run("compile-and-compare", lambda: workload.compile_and_compare(state))

        start = perf_counter()
        i = 0
        while True:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and i >= workload.min_ops) or elapsed >= HARD_STOP_S:
                break
            # The other set-ups are spread over the timed phase, so that
            # they sample the machine at the same moments the operations do.
            done = len(setup_times)
            if done < SETUP_REPEATS and elapsed >= done * seconds / SETUP_REPEATS:
                set_up(done)
            traced = bool(trace) and (i // k) % 2 == 1
            gc.collect()

            def timed_op():
                if traced:
                    tracer.install(i)
                try:
                    _, dt, dt_scaled = _scaled(lambda: workload.op(state, i))
                finally:
                    if traced:
                        tracer.uninstall()
                workload.verify(state, i)
                return dt, dt_scaled

            measured = tally.run(f"operation {i}", timed_op)
            if measured is not None:
                times[i], scaled[i] = measured
            i += 1
        while len(setup_times) < SETUP_REPEATS:
            set_up(len(setup_times))
        workload.after(state, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # With --trace 1, untraced and traced passes alternate.
    untraced = {i: t for i, t in times.items() if not (trace and (i // k) % 2 == 1)}
    plain_passes = [t for p, t in _pass_times(times, k).items() if not (trace and p % 2)]
    pass_s = _median_pass({i: scaled[i] for i in untraced}, k)
    if trace:
        metrics = tracer.metrics(tracer.ops / k)
        traced_pass_s = _median_pass({i: t for i, t in scaled.items() if i not in untraced}, k)
        overhead = traced_pass_s - pass_s
        metrics["trace.overhead_ms"] = {"value": overhead * 1e3, "unit": "ms/pass"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / pass_s if pass_s else 0.0,
                                         "unit": "%"}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": float(np.median(setup_scaled)), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "pass_ms": {"value": pass_s * 1e3, "unit": "ms"},
        }
    named = {"error_rate": (tally.failed / max(tally.attempted, 1), "failed/attempted")}
    if untraced and plain_passes:
        named.update(workload.named_metrics(untraced, plain_passes))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "stages": list(workload.stages),
        "samples": {"setup": len(setup_times), "untraced_ops": len(untraced),
                    "traced_ops": len(times) - len(untraced), "untraced_passes": len(plain_passes)},
        "reference_unit_s": calibrate.REFERENCE_S,
        "setup_times_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "op_times_s": {str(i): t for i, t in times.items()},
        "op_scaled_s": {str(i): t for i, t in scaled.items()},
        "metrics": metrics,
        "named_metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in named.items()},
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"record-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"# {name} seed={seed} trace={trace} sha={record['git_sha']} "
          f"python={record['python']} numpy={record['numpy']} cpus={record['cpu_count']}")
    print(f"# samples: {record['samples']}")
    for key, entry in list(metrics.items()) + list(record["named_metrics"].items()):
        print(f"{key:45s} {entry['value']:14.6g} {entry['unit']}")
    for message in tally.errors:
        print(f"FAILED {message}", file=sys.stderr)
    return {
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": float(v["value"]), "unit": v["unit"]} for k, v in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = entry
    return combined


def write_pins(names):
    """Re-pin the reference seed's artifact digests (after an intended change)."""
    import workloads

    with open(PINNED) as fh:
        pinned = json.load(fh)
    for name in names:
        work = os.path.join(OUT, f"pin-{name}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        try:
            workload = workloads.WORKLOADS[name]()
            pinned[name] = workload.reference(workload.setup(pinned["reference_seed"], work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(PINNED, "w") as fh:
        json.dump(pinned, fh, indent=2)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("emulate-jet", "scan-jet", "compile-mnist", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the reference digests in pinned.json and exit")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fixflow", "__init__.py")):
        print(f"error: no fixflow package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_pins:
        import workloads
        write_pins(list(workloads.WORKLOADS) if args.workload == "all" else [args.workload])
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
