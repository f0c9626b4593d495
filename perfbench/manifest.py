"""Rebuild manifest.json from the result files in perfbench/out/.

    python3 perfbench/manifest.py

Every result file carries the stdout digests of its run's fixed prefix
(``workloads.prefix``), keyed by command line.  This script merges them,
refuses results from more than one source tree or digests that disagree for
the same command line, and writes the manifest that later runs compare
their stdout against (the ``stdout_changed`` count).  Record it from runs of
the commit whose output should stay byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    digests, sources, commits = {}, set(), set()
    for path in sorted((BENCH / "out").glob("result-*.json")):
        report = json.loads(path.read_text())
        sources.add(report["provenance"]["src_sha256"])
        commits.add(report["provenance"]["git_commit"])
        table = digests.setdefault(report["workload"], {})
        for key, digest in report["prefix_digests"].items():
            if table.setdefault(key, digest) != digest:
                print("%s: stdout of %s differs between runs" % (path.name, key),
                      file=sys.stderr)
                return 1
    if len(sources) != 1:
        print("need results from exactly one source tree, found %d" % len(sources),
              file=sys.stderr)
        return 1
    manifest = {"src_sha256": sources.pop(), "git_commit": sorted(commits, key=str)[0],
                "workloads": {w: dict(sorted(t.items())) for w, t in sorted(digests.items())}}
    (BENCH / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    for workload, table in manifest["workloads"].items():
        print("%s: %d operations" % (workload, len(table)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
