"""qortho benchmark: three workloads driven through the public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workers import qortho from that
checkout's ``src/`` (PYTHONPATH is set to it alone and QORTHO_PRECISION is
cleared), so the numbers belong to the commit under test.

Workloads (closed loop, one client, one qortho process at a time):

* ``cli-proc``: one fresh ``python -m qortho.cli`` process per operation;
  coeffs, lattice-weights and ``verify --suite all`` over both kinds, CSV
  and JSON, families from the moderate box, default precision.
* ``tables-box``: the coeffs and lattice-weights mix of the same box through
  in-process ``qortho.cli.main``.
* ``verify-ext``: in-process ``verify --suite all --precision extended`` on
  qpr twice at each N = 5..16 and qpk at six N, q in [0.2, 0.9].

``--trace 0`` measures whole blocks of operations until SECONDS have passed
and reports the end-to-end metrics.  ``--trace 1`` runs the workload's fixed
prefix (see ``workloads.TRACE_BLOCKS``) once untraced and once traced, and
reports the per-layer metrics; its counts depend only on the seed.  Every
operation gets a correctness verdict (``checks.py``) and a stdout digest that
is compared with ``manifest.json``.  After measuring, every run also executes
the fixed ``workloads.KNOWN_DEFECT`` operations, untimed and outside
``attempted`` and ``failed``, and reports how many of them fail.  Lines
starting with ``#`` are the readable report; the last line is the JSON
result.  Details, per-run records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from checks import op_record, verdict  # noqa: E402
from probe import Prober  # noqa: E402
from stats import hd_quantile  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

END_TO_END = {
    "latency_s.p50": "s",
    "ok_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_PACKAGES = {"cli.import_s": "qortho", "cli.import.scipy_s": "scipy",
                   "cli.import.numpy_s": "numpy", "cli.import.mpmath_s": "mpmath"}
IMPORT_DEPENDENCIES = ("scipy", "numpy", "mpmath")
SUITE_NAMES = ("orthogonality", "bispectral", "persymmetry", "explicit", "isospectral",
               "qracah", "dualhahn", "qpk-limit")
# name -> unit; "_s" names are self seconds per operation, counts are per operation.
PER_LAYER = dict(
    [(name, "s") for name in IMPORT_PACKAGES]
    + [("cli.self_s", "s"), ("cli.ops_nonzero_exit", "count"),
       ("cli.stdout_changed", "count"), ("cli.stdout_checked", "count"),
       ("cli.known_defect_failures", "count"),
       ("scalars.format.calls", "count"), ("scalars.format_s", "s"),
       ("para_racah.coef.calls", "count"), ("para_racah.coef.distinct", "count"),
       ("para_racah.coef.useful_ratio", "ratio"), ("para_racah.coef_s", "s"),
       ("para_racah.eval_recurrence.calls", "count"), ("para_racah.eval_recurrence_s", "s"),
       ("para_racah.eval_explicit.calls", "count"), ("para_racah.eval_explicit_s", "s"),
       ("para_racah.qdiff_residual_s", "s"), ("para_racah.christoffel_s", "s"),
       ("para_racah.weights_s", "s"),
       ("para_krawtchouk.coef.calls", "count"), ("para_krawtchouk.coef_s", "s"),
       ("para_krawtchouk.eval_recurrence_s", "s"), ("para_krawtchouk.weights_s", "s"),
       ("qseries.qpochhammer.calls", "count"), ("qseries.qpochhammer_s", "s"),
       ("qseries.series.calls", "count"), ("qseries.series.terms", "count"),
       ("qseries.series_s", "s")]
    + [("verify.suite.%s_s" % name, "s") for name in SUITE_NAMES]
    + [("verify.gram_errors_s", "s"), ("verify.checks", "count"),
       ("verify.checks_failed", "count"),
       ("spectral.spectrum.calls", "count"), ("spectral.spectrum_s", "s"),
       ("connections.qracah_identity_s", "s"), ("connections.dual_hahn_s", "s"),
       ("trace.overhead_s", "s")]
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env.pop("QORTHO_PRECISION", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _python(*args) -> list:
    return [sys.executable, *args]


def _worker(prober, *args):
    """Start a worker; return it, its wall set-up time (launch to READY) and
    the probe taken just before the launch."""
    before = prober.fresh()
    start = time.perf_counter()
    proc = subprocess.Popen(_python(str(BENCH / "worker.py"), *map(str, args)),
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    if not line.startswith("READY"):
        proc.kill()
        proc.wait()
        raise BenchError("worker did not start: %r" % line)
    return proc, seconds, before


def _finish(proc) -> str:
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    return out


def _setup_samples(prober, workload, n) -> list:
    """Scaled set-up times of n workers that exit once ready."""
    samples = []
    for _ in range(n):
        proc, seconds, before = _worker(prober, "setup", workload)
        _finish(proc)
        samples.append(prober.scale(seconds, before, prober.fresh()))
    return samples


def _cli_process(prober, argv, *prefix):
    """Run one qortho process; return its op record."""
    cmd = _python(*prefix, *argv) if prefix else _python("-m", "qortho.cli", *argv)
    done, seconds, scaled = prober.around(lambda: subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT, env=_env()))
    return op_record(argv, seconds, scaled, done.returncode, done.stdout,
                     verdict(argv, done.returncode, done.stdout))


def _import_profile(prober) -> dict:
    """Import seconds of qortho and its heavy dependencies, from -X importtime.

    A package's time is the cumulative time of its modules that were
    imported from outside the package and outside scipy, numpy and mpmath.
    What scipy pulls in from numpy therefore counts for scipy, and the three
    dependency times are disjoint parts of the qortho total.  Times are
    scaled like the process's wall time.
    """
    done, seconds, scaled = prober.around(lambda: subprocess.run(
        _python("-X", "importtime", "-c", "import qortho.cli"),
        capture_output=True, text=True, cwd=ROOT, env=_env()))
    if done.returncode != 0:
        raise BenchError("import of qortho.cli failed:\n" + done.stderr)
    entries = []  # (depth, top-level package, cumulative seconds), children first
    for line in done.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4).split(".")[0],
                            int(m.group(2)) / 1e6 * scaled / seconds))
    metric_of = {package: metric for metric, package in IMPORT_PACKAGES.items()}
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for i, (depth, package, cumulative) in enumerate(entries):
        if package not in metric_of:
            continue
        # Ancestors come later in the list, each shallower than the last.
        level, counted = depth, True
        for d, outer, _ in entries[i + 1:]:
            if d < level:
                level = d
                if outer == package or outer in IMPORT_DEPENDENCIES:
                    counted = False
                    break
        if counted:
            out[metric_of[package]] += cumulative
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_cli_proc(prober, seed, seconds, trace) -> dict:
    result = {"setup": _setup_samples(prober, "cli-proc", SETUP_SAMPLES)}
    if not trace:
        ops, start = [], time.perf_counter()
        for block in workloads.blocks("cli-proc", seed):
            ops.extend(_cli_process(prober, argv) for argv in block)
            if time.perf_counter() - start >= seconds:
                break
        result["ops"] = ops
        # The only children are set-up interpreters and operation processes;
        # the set-up ones import the same modules and compute nothing.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return result
    prefix = workloads.prefix("cli-proc", seed)
    result["untraced"] = [_cli_process(prober, argv) for argv in prefix]
    spans = OUT / ("spans-cli-proc-seed%d" % seed)
    spans.mkdir(parents=True, exist_ok=True)
    result["ops"], totals = [], {}
    for k, argv in enumerate(prefix):
        spanfile = spans / ("op%d.json.gz" % k)
        result["ops"].append(_cli_process(prober, argv, str(BENCH / "worker.py"), "one",
                                          spanfile))
        totals_file = Path(str(spanfile) + ".totals.json")
        for key, value in json.loads(totals_file.read_text()).items():
            totals[key] = totals.get(key, 0) + value
        totals_file.unlink()
    result["totals"] = totals
    return result


def run_in_process(prober, workload, seed, seconds, trace) -> dict:
    setup = _setup_samples(prober, workload, SETUP_SAMPLES - 1)
    # The measuring worker is a set-up sample too; it starts working at once,
    # so only the probe before its launch scales it.
    proc, last, before = _worker(prober, "run", workload, seed, seconds, int(trace), OUT)
    try:
        result = json.loads(_finish(proc).splitlines()[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    qortho_file = Path(result.pop("qortho_file")).resolve()
    if ROOT / "src" not in qortho_file.parents:
        raise BenchError("worker imported qortho from %s" % qortho_file)
    result["setup"] = setup + [prober.scale(last, before)]
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _load_manifest(workload) -> dict:
    path = BENCH / "manifest.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["workloads"].get(workload, {})


def _stdout_changes(workload, ops):
    manifest = _load_manifest(workload)
    checked = [op for op in ops if op["key"] in manifest]
    return sum(op["digest"] != manifest[op["key"]] for op in checked), len(checked)


def end_to_end(result) -> tuple:
    ops = result["ops"]
    lat = [op["s"] for op in ops]
    ok = sum(op["ok"] for op in ops)
    metrics = {
        "latency_s.p50": hd_quantile(lat, 0.5),
        "ok_ops_per_s": ok / sum(lat),
        "setup_s": hd_quantile(result["setup"], 0.5),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {
        "latency_s.samples": len(lat),
        "latency_s.p90": hd_quantile(lat, 0.9) if len(lat) >= P90_MIN_SAMPLES else None,
        "fail_frac": (len(ops) - ok) / len(ops),
        "raw_latency_s.p50": hd_quantile([op["raw_s"] for op in ops], 0.5),
        "host_slowdown": sum(op["raw_s"] for op in ops) / sum(lat),
        "setup_s.samples": result["setup"],
    }
    return metrics, extra


def per_layer(result, prober) -> dict:
    ops = result["ops"]
    n = len(ops)
    totals = result["totals"]
    speed = sum(op["s"] for op in ops) / sum(op["raw_s"] for op in ops)
    metrics = {name: totals.get(name, 0) / n * (speed if unit == "s" else 1)
               for name, unit in PER_LAYER.items()}
    calls = totals.get("para_racah.coef.calls", 0)
    metrics["para_racah.coef.useful_ratio"] = (
        totals.get("para_racah.coef.distinct", 0) / calls if calls else 0.0)
    profiles = [_import_profile(prober) for _ in range(IMPORT_SAMPLES)]
    for name in IMPORT_PACKAGES:
        metrics[name] = hd_quantile([p[name] for p in profiles], 0.5)
    metrics["trace.overhead_s"] = (hd_quantile([op["s"] for op in ops], 0.5)
                                   - hd_quantile([op["s"] for op in result["untraced"]], 0.5))
    return metrics


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    out = {"git_commit": commit, "src_sha256": digest.hexdigest(),
           "python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count()}
    for package in ("mpmath", "numpy", "scipy"):
        out[package] = importlib.metadata.version(package)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qortho" / "cli.py").is_file():
        print("no qortho sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for the harness and everything it starts, so that the probes
    # see the contention the operations see.  Where pinning is not permitted
    # the run goes on unpinned.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    prober = Prober()
    try:
        if args.workload == "cli-proc":
            result = run_cli_proc(prober, args.seed, args.seconds, args.trace)
        else:
            result = run_in_process(prober, args.workload, args.seed, args.seconds,
                                    args.trace)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    ops = result["ops"]
    known = [_cli_process(prober, argv) for argv in workloads.KNOWN_DEFECT]
    failed = [op for op in ops if not op["ok"]]
    known_failed = [op for op in known if not op["ok"]]
    dishonest = [op for op in ops + known if not op["honest"]]
    prefix_len = len(workloads.prefix(args.workload, args.seed))
    changed, checked = _stdout_changes(args.workload, ops)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": len(ops), "failed": len(failed), "dishonest": len(dishonest),
              "stdout_changed": changed, "stdout_checked": checked,
              "known_defect_failed": len(known_failed), "provenance": provenance()}
    if args.trace:
        metrics = per_layer(result, prober)
        metrics["cli.stdout_changed"], metrics["cli.stdout_checked"] = changed, checked
        metrics["cli.known_defect_failures"] = len(known_failed)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(result)
        report.update(extra)
        units = END_TO_END
    report["metrics"] = metrics
    report["failures"] = [{"argv": op["argv"], "why": op["why"]} for op in failed]
    report["known_defect"] = [dict(argv=argv, ok=op["ok"], why=op.get("why", ""))
                              for argv, op in zip(workloads.KNOWN_DEFECT, known)]
    report["prefix_digests"] = {op["key"]: op["digest"] for op in ops[:prefix_len]}
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True))

    print("# provenance %s" % json.dumps(report["provenance"], sort_keys=True))
    print("# %s seed %d: %d operations, %d failed (fail_frac %.4f), %d dishonest, "
          "stdout changed %d of %d checked against the manifest"
          % (args.workload, args.seed, len(ops), len(failed), len(failed) / len(ops),
             len(dishonest), changed, checked))
    for op in failed[:10]:
        print("#   failed: %s (%s)" % (" ".join(op["argv"]), op["why"]))
    print("# known defect, untimed and not in attempted/failed: %d of %d in-box families "
          "refused at the default precision" % (len(known_failed), len(known)))
    if not args.trace:
        print("# latency_s.p50 = %.6f s (n = %d); latency_s.p90 = %s; setup_s = %.6f s "
              "(Harrell-Davis median of %d); ok_ops_per_s = %.4f 1/s; peak_rss_mb = %.1f MB"
              % (metrics["latency_s.p50"], report["latency_s.samples"],
                 "%.6f s" % report["latency_s.p90"] if report["latency_s.p90"] is not None
                 else "not reported (fewer than %d samples)" % P90_MIN_SAMPLES,
                 metrics["setup_s"], len(report["setup_s.samples"]), metrics["ok_ops_per_s"],
                 metrics["peak_rss_mb"]))
        print("# times are seconds at the reference speed (probe.py); raw wall "
              "latency_s.p50 = %.6f s, host slowdown %.3f"
              % (report["raw_latency_s.p50"], report["host_slowdown"]))
    else:
        for key in sorted(metrics):
            print("# %s = %.6g %s" % (key, metrics[key], units[key]))
    print(json.dumps({
        "correct": not dishonest,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
