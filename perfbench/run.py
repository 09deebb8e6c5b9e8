"""rieszlab benchmark: end-to-end and per-layer metrics for each workload.

One run measures one workload in this process:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

It makes the workload's inputs from the seed, repeats the workload's
operations (one "pass") until ``--seconds`` of pass time is spent (at least
two passes), checks every pass's outputs outside the timed region, and
prints as its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
(median pass time), ``setup_s`` (median over several set-ups, each from
interpreter start to inputs ready) and ``peak_rss_mb``.  ``--trace 1``
wraps rieszlab's layers (see tracing.py), alternates untraced and traced
passes, and reports the per-layer metrics and the tracing overhead (median
traced minus median untraced pass); its spans and counts go to
``.perfbench_out/``.

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--smoke]

runs every workload untraced and traced, each in a fresh process, and
prints every end-to-end metric by name and unit, the error rate, the
tracing overhead and the largest per-layer self times.  ``--smoke`` shrinks
every input so the whole harness runs in about a minute;
``python3 -m pytest perfbench`` runs that smoke path.

Runs pin BLAS to one thread and leave RIESZ_THREADS unset (the library
default of one worker thread).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RIESZ_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7   # set-ups per untraced run: this process plus fresh ones
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in _spec()["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs (harness check)")
    p.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("--workload is required unless --all is given")
    return args


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_argv(args, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]
    return argv + (["--smoke"] if args.smoke else [])


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------

def _metadata(args, workload, passes):
    import numpy
    import scipy

    from rieszlab.parallel import resolve_threads

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "ops_per_pass": workload.ops,
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "RIESZ_THREADS": os.environ.get("RIESZ_THREADS", "unset"),
        "rieszlab_threads": resolve_threads(),
        "git_rev": rev,
    }


def _setup_samples(args, own: float) -> list:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(_child_argv(args, "--workload", args.workload, "--setup-only"),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _measure(args, workload, tracer):
    """Run passes until the time budget is spent; returns the pass records
    and the failure messages of every pass."""
    from tracing import pass_counts, self_times

    passes, failures = [], []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1  # alternate with untraced
        if traced:
            tracer.reset()
            tracer.active = True
        start = time.perf_counter()
        outputs = workload.run_pass()
        seconds = time.perf_counter() - start
        record = {"seconds": seconds, "traced": traced}
        if traced:
            tracer.active = False
            record.update(counts=pass_counts(tracer), self_s=self_times(tracer.spans))
            if not any(p["traced"] for p in passes):  # spans of one pass are written
                record.update(start=start, spans=tracer.spans)
        passes.append(record)
        failures += workload.check(outputs)
        spent = sum(p["seconds"] for p in passes)
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) > args.seconds:
            return passes, failures


def _layer_metrics(per_layer, passes):
    traced = [p for p in passes if p["traced"]]
    counts = traced[0]["counts"]
    repeat = all(p["counts"] == counts for p in traced[1:])
    pass_s = statistics.median(p["seconds"] for p in traced)
    values = dict(counts)
    values["trace.pass_s"] = pass_s
    values["trace.overhead_s"] = pass_s - statistics.median(
        p["seconds"] for p in passes if not p["traced"])
    for spec in per_layer:
        name = spec["name"]
        if name.endswith(".self_share"):
            layer = name[: -len(".self_share")]
            values[name] = statistics.median(
                p["self_s"].get(layer, 0.0) / p["seconds"] for p in traced)
    metrics = {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]}
               for s in per_layer}
    return metrics, counts, repeat


def run_one(args) -> int:
    if not (SRC / "rieszlab" / "__init__.py").is_file():
        print(f"perfbench: no rieszlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rieszlab

    if Path(rieszlab.__file__).resolve().parent != (SRC / "rieszlab").resolve():
        print(f"perfbench: imported rieszlab from {rieszlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = _spec()
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        workload.setup()
        own_setup = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
            setup = None
        else:
            setup = _setup_samples(args, own_setup)
        passes, failures = _measure(args, workload, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = workload.ops * len(passes)
    meta = _metadata(args, workload, passes)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, counts, repeat = _layer_metrics(per_layer, passes)
        first = next(p for p in passes if p["traced"])
        from tracing import write_spans

        write_spans(first["spans"], OUT / f"{stem}-spans.csv.gz", first["start"])
        extra = {"counts": counts, "counts_repeat_across_passes": repeat,
                 "self_s_first_traced_pass": first["self_s"]}
        print(f"# {args.workload}: tracing overhead "
              f"{metrics['trace.overhead_s']['value']:+.4f} s per pass "
              f"(traced {metrics['trace.pass_s']['value']:.4f} s)")
    else:
        values = {"wall_s": statistics.median(p["seconds"] for p in passes),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                   for s in end_to_end}
        extra = {"setup_samples_s": setup}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"meta": meta, "result": result,
              "error_rate": len(failures) / attempted,
              "pass_seconds": [p["seconds"] for p in passes],
              "failures": failures[:50], **extra}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("# meta " + json.dumps(meta))
    for failure in failures[:10]:
        print(f"# FAILED: {failure}")
    print(f"# {args.workload}: error_rate {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:g} over {len(passes)} passes")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# every workload, one command
# ----------------------------------------------------------------------

def run_all(args) -> int:
    spec = _spec()
    end_to_end = spec["end_to_end"]
    ok = True
    print(f"{'workload':<10} {'metric':<12} {'value':>14}  unit")
    notes = []
    for name in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            done = subprocess.run(
                _child_argv(args, "--workload", name, "--trace", str(trace)),
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                print(f"{name}: --trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            results[trace] = json.loads(done.stdout.splitlines()[-1])
        plain, traced = results[0], results[1]
        for spec in end_to_end:
            m = plain["metrics"][spec["name"]]
            print(f"{name:<10} {spec['name']:<12} {m['value']:>14.6g}  {m['unit']}")
        for res, label in ((plain, "untraced"), (traced, "traced")):
            rate = res["failed"] / res["attempted"]
            print(f"{name:<10} {'error_rate':<12} {rate:>14.6g}  ratio "
                  f"({res['failed']}/{res['attempted']} ops, {label})")
            ok = ok and res["correct"]
        tm = traced["metrics"]
        overhead = tm["trace.pass_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"{name:<10} {'trace_overhead':<12} {overhead:>14.6g}  s (traced pass_s - wall_s)")
        shares = sorted(((v["value"], k[: -len(".self_share")]) for k, v in tm.items()
                         if k.endswith(".self_share")), reverse=True)[:4]
        notes.append(f"{name}: largest self time shares: "
                     + ", ".join(f"{layer} {share:.1%}" for share, layer in shares))
    print("\n".join(notes))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
