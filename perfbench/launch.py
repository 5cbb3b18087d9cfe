"""Run one ``orlimark`` CLI invocation and report where its time went.

usage: python3 launch.py REPORT_JSON TRACE ARGV...

Times ``import orlimark.cli`` and ``cli.main(ARGV)`` in this fresh process
and writes them, the exit code and the peak RSS to REPORT_JSON.  With
TRACE = 1 the layer tracer is installed after the import, and the additive
per-layer sums are written too.  The caller puts ``src`` on PYTHONPATH.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import orlimark.cli as cli  # noqa: E402

import_s = perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    report_path, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    t1 = perf_counter()
    code = cli.main(argv)
    main_s = perf_counter() - t1
    report = {
        "import_s": import_s,
        "main_s": main_s,
        "exit": code,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.active = False
        report["raw"] = tracer.layer_raw()
        tracer.save(report_path.with_suffix(".spans.npz"))
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
