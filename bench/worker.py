"""One benchmark sample in a fresh interpreter.

Usage: python3 worker.py SRC_DIR '<json job>'

SRC_DIR is the directory that holds the ``liederiv`` package.  The job
either asks for the set-up time alone (``"argv": null``) or gives the
CLI argument vector to run in-process through ``liederiv.cli.main``,
with ``"trace"`` saying whether to wrap the layers in spans.  The worker prints one
JSON object on its standard output:

    setup_s     seconds spent in ``import liederiv.cli``
    wall_s      seconds from calling ``cli.main`` until it returned
    exit_code   what ``cli.main`` returned
    stdout      what the command wrote to its standard output
    peak_rss_kib  the process's ``ru_maxrss`` after the command
    cal_s       the calibration time (see ``calibrate``) measured next to
                the import or the command in this process
    trace       per-layer split and exact counts (only with ``"trace": true``)

Only ``sys`` and ``time`` are imported before the timed import (the job
is parsed after it), so the set-up time includes every module liederiv
pulls in, ``json`` among them.
"""

import sys
import time


def _timed_import(src_dir):
    sys.path.insert(0, src_dir)
    t0 = time.perf_counter()
    import liederiv.cli  # noqa: F401  (the import is what is timed)

    setup_s = time.perf_counter() - t0
    import os

    origin = os.path.realpath(sys.modules["liederiv"].__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"liederiv was imported from {origin}, not from {src_dir}")
    return setup_s


def calibrate() -> float:
    """Geometric mean of the times of three fixed standard-library kernels:
    exact fractions, integer arithmetic, and dict/tuple/str allocation.

    The benchmark shares its machine with other tenants, which slow
    every process down by tens of percent for minutes at a time.  These kernels
    slow down with them, so dividing a timing by this value, taken in
    the same process, cancels most of that drift.  They use no liederiv
    code, so a change to liederiv cannot move them.
    """
    from fractions import Fraction

    def fractions_kernel():
        s = Fraction(0)
        for i in range(1, 4000):
            s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)

    def int_kernel():
        x = 0
        for i in range(400000):
            x += i * i % 7

    def alloc_kernel():
        d = {}
        for i in range(60000):
            d[(i % 977, i % 13)] = (i, str(i))

    product = 1.0
    for kernel in (fractions_kernel, int_kernel, alloc_kernel):
        t0 = time.perf_counter()
        kernel()
        product *= time.perf_counter() - t0
    return product ** (1 / 3)


def main() -> int:
    src_dir, raw_job = sys.argv[1], sys.argv[2]
    setup_s = _timed_import(src_dir)

    import io
    import json
    import resource

    job = json.loads(raw_job)
    out = {"setup_s": setup_s}
    if job["argv"] is None:
        out["cal_s"] = calibrate()
    else:
        import liederiv.cli

        layers = None
        if job["trace"]:
            from layers import LayerTrace

            layers = LayerTrace()
            layers.install()
        cal_before = calibrate()
        captured = io.StringIO()
        real_stdout = sys.stdout
        sys.stdout = captured
        try:
            t0 = time.perf_counter()
            code = liederiv.cli.main(list(job["argv"]))
            wall_s = time.perf_counter() - t0
        finally:
            sys.stdout = real_stdout
            if layers is not None:
                layers.uninstall()
        out.update(
            wall_s=wall_s,
            exit_code=code,
            stdout=captured.getvalue(),
            peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        out["cal_s"] = (cal_before + calibrate()) / 2
        if layers is not None:
            out["trace"] = layers.report(out["stdout"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
