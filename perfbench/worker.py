"""Benchmark worker: a fresh interpreter that imports qortho.cli from the
checkout's src/ and runs operations through ``qortho.cli.main`` in-process.

    worker.py setup WORKLOAD
        import, warm up, print READY and exit (a set-up sample).
    worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR
        import, warm up, print READY, then run the workload and print one
        JSON line of per-operation records.  TRACE 0 runs whole blocks until
        SECONDS have passed; TRACE 1 runs the fixed prefix untraced and then
        traced, and writes the spans to OUTDIR.
    worker.py one SPANFILE ARGV...
        one traced ``qortho`` process: stdout, stderr and exit code are the
        CLI's own, and the tracer totals and spans go to SPANFILE.

Only ``sys`` and ``time`` are imported before qortho.cli, so the READY time
measures interpreter start, the package import and the warm-up.
"""

import sys
import time

from qortho import cli  # noqa: E402


def _call(argv):
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _ready(workload):
    from workloads import WARMUP

    for argv in WARMUP.get(workload, []):
        _call(argv)
    print("READY", flush=True)


def _records(ops, op_ids, prober, tracer=None):
    from checks import op_record, verdict

    out = []
    for op_id, argv in zip(op_ids, ops):
        if tracer is not None:
            tracer.begin_op(op_id)
        (rc, stdout), seconds, scaled = prober.around(lambda: _call(argv))
        if tracer is not None:
            tracer.end_op(rc)
        out.append(op_record(argv, seconds, scaled, rc, stdout, verdict(argv, rc, stdout)))
    return out


def run(workload, seed, seconds, trace, outdir):
    import json
    import os
    import resource

    import workloads
    from probe import Prober

    _ready(workload)
    result = {"qortho_file": cli.__file__}
    # Ticks inside operations would land in the traced layers' self times.
    prober = Prober(in_op=not trace)
    if not trace:
        ops, start = [], time.perf_counter()
        for block in workloads.blocks(workload, seed):
            ops.extend(_records(block, range(len(ops), len(ops) + len(block)), prober))
            if time.perf_counter() - start >= seconds:
                break
        result["ops"] = ops
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import Tracer

        prefix = workloads.prefix(workload, seed)
        ids = range(len(prefix))
        result["untraced"] = _records(prefix, ids, prober)
        tracer = Tracer()
        tracer.install()
        try:
            result["ops"] = _records(prefix, ids, prober, tracer)
        finally:
            tracer.uninstall()
        result["totals"] = tracer.totals()
        tracer.dump(os.path.join(outdir, "spans-%s-seed%d.json.gz" % (workload, seed)))
    print(json.dumps(result), flush=True)


def one(spanfile, argv):
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        rc = sys.modules["qortho.cli"].main(argv)
    finally:
        tracer.uninstall()
    tracer.end_op(rc)
    sys.stdout.flush()
    tracer.dump(spanfile)
    with open(spanfile + ".totals.json", "w") as fh:
        json.dump(tracer.totals(), fh)
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        _ready(sys.argv[2])
    elif mode == "run":
        run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1",
            sys.argv[6])
    elif mode == "one":
        sys.exit(one(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit("unknown mode %r" % mode)
