"""One workload in one process: set up, run the body, judge it, report as JSON.

Started by run.py with BLAS pinned to one thread; prints one JSON object as
its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up time runs from the start of this script, before numpy is imported, to
the end of the workload's set-up.  Untraced, the body runs again while the
next pass is expected to end within --seconds (at least once).  Traced, it
runs once untraced and once under the tracer.  Every pass's outputs must
digest the same as the first pass's, and as those of any earlier run of the
same bergsmooth sources at the same seed in this checkout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _load_digests(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _save_digests(path, digests):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests, indent=0, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def source_key():
    """sha256 of the bergsmooth sources: stored digests belong to one program."""
    h = hashlib.sha256()
    src = ROOT / "src" / "bergsmooth"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0"
                     + path.read_bytes() + b"\0")
    return h.hexdigest()


def count_failures(ops, digest_path):
    """Count failed ops: oracle failures, and digests that differ from the
    first one recorded for the same op, in this run or an earlier run of the
    same sources.  A recorded digest is never replaced."""
    stored = _load_digests(digest_path)
    first = {}
    failed = 0
    for op in ops:
        if op.digest is not None:
            ref = stored.get(op.name) or first.setdefault(op.name, op.digest)
            if ref != op.digest:
                op.ok = False
                op.problems.append("output differs from an earlier pass at the same seed")
        if not op.ok:
            failed += 1
            for line in op.problems:
                print(f"FAILED {op.name}: {line}", file=sys.stderr)
    if first:  # only ops with no stored digest get here
        _save_digests(digest_path, {**stored, **first})
    return failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    reports = OUT / "reports" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, str(reports))
    setup_s = time.perf_counter() - T_START

    import bergsmooth
    import numpy as np
    if not Path(bergsmooth.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bergsmooth was imported from {bergsmooth.__file__}, not from this checkout")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    out = {"setup_s": setup_s}
    try:
        if args.trace:
            from tracer import Tracer
            untraced_s, ops = _timed(wl.run)
            tracer = Tracer()
            tracer.install()
            try:
                traced_s, traced_ops = _timed(wl.run)
            finally:
                tracer.uninstall()
            ops += traced_ops
            out["per_layer"] = tracer.metrics(traced_s, untraced_s)
            out["pass_s"] = [untraced_s]
        else:
            ops, pass_s = [], []
            t0 = time.perf_counter()
            while True:
                dt, pass_ops = _timed(wl.run)
                ops += pass_ops
                pass_s.append(dt)
                if time.perf_counter() - t0 + statistics.median(pass_s) > args.seconds:
                    break
            out["pass_s"] = pass_s
        digest_path = (OUT / "digests" / source_key()[:16]
                       / f"{args.workload}-seed{args.seed}.json")
        out["attempted"] = len(ops)
        out["failed"] = count_failures(ops, digest_path)
        defects = [op.defect for op in ops if op.defect is not None]
        out["defect_ratio"] = max(defects) if defects else None
    finally:
        shutil.rmtree(reports, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                  "bergsmooth": bergsmooth.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
