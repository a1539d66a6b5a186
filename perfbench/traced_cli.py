"""Traced ``ghostphase`` entry point: one CLI invocation with per-layer spans.

Usage::

    python perfbench/traced_cli.py SPANS_JSON REQUEST_ID -- <ghostphase arguments>

The package is not edited.  Before ``ghostphase.cli.main`` runs, every
public function (and every public method of a public class) defined in one
of the package modules is replaced, at every module that binds it, by one
wrapper that records a span.  ``fwht2``, for example, is bound in ``wht``,
``scene``, ``acquisition`` and ``reconstruction``; all four names get the
same wrapper, so every call is seen whichever module makes it.

Spans stay in memory and are written to SPANS_JSON when ``main`` returns.
Times come from ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux), which
the parent harness also reads, so spawn-to-``main`` start-up time can be
computed across the two processes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("wht", "scene", "projections", "acquisition", "reconstruction",
           "analysis", "formats", "config", "cli")


class Tracer:
    """In-memory span recorder: [name, start_ns, end_ns, parent, bytes_read, bytes_written]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        io_kind = _io_kind(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if io_kind == "read":
                span[4] = _file_size(args[0])
            span[1] = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                self._stack.pop()
                if io_kind == "write":
                    span[5] = _file_size(args[0])

        return traced


def _io_kind(name):
    """Byte counters sit on the file-format layer's read_*/write_* boundary."""
    if name.startswith("formats.read_"):
        return "read"
    if name.startswith("formats.write_"):
        return "write"
    return None


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer):
    """Wrap the package's public callables at every module binding."""
    package = importlib.import_module("ghostphase")
    modules = [importlib.import_module(f"ghostphase.{name}") for name in MODULES]
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(obj, f"{short}.{obj.__qualname__}")
            elif inspect.isclass(obj):
                for mname, method in list(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(method):
                        setattr(obj, mname, tracer.wrap(method, f"{short}.{obj.__qualname__}.{mname}"))
    for module in (*modules, package):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON REQUEST_ID -- <ghostphase arguments>", file=sys.stderr)
        return 2
    spans_path, request_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["ghostphase.cli"]
    start = time.monotonic_ns()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    end = time.monotonic_ns()
    with open(spans_path, "w") as fh:
        json.dump({"request": request_id, "main_start_ns": start, "main_end_ns": end,
                   "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
