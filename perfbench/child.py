"""One measured step of the benchmark, in a fresh interpreter.

    child.py setup SRC CONFIG
        time importing qkzbench.cli (numpy and mpmath included) and loading
        and validating CONFIG
    child.py run SRC CONFIG SEED TRACE [SPANS RUN_ID]
        run ``workbench verify`` on CONFIG in process through cli.main and
        time it; with TRACE = 1 the layer functions are wrapped first and the
        spans are appended to SPANS as JSON lines

The result is one JSON object on the last line of standard output.  SRC is
the ``src`` directory of the checkout; importing qkzbench from anywhere else
is an error.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_cli(src):
    sys.path.insert(0, src)
    import qkzbench.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qkzbench imported from {cli.__file__}, not from {src}")
    return cli


def setup(src, config):
    t0 = time.perf_counter()
    cli = _import_cli(src)
    cli.load_config(config)
    return {"setup_s": time.perf_counter() - t0}


def run(src, config, seed, trace, spans=None, run_id=0):
    cli = _import_cli(src)
    tracer = None
    if trace:
        import probes

        tracer = probes.install()
    argv = ["verify", "--config", config, "--format", "json", "--seed", seed]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails every result; the gate counts them
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "exit": code,
        "report": buf.getvalue(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        out["self_times"] = tracer.self_times()
        if spans:
            tracer.write_spans(spans, int(run_id))
    return out


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        result = setup(*rest)
    elif mode == "run":
        src, config, seed, trace, *span_args = rest
        result = run(src, config, seed, trace == "1", *span_args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
