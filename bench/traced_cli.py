"""Run one ``arasent`` CLI call with span recording.

Usage: python3 bench/traced_cli.py SPAN_STEM ARG...

Behaves like the ``arasent`` entry point (same exit code and output) and
also times the import of ``arasent.cli`` and, within it, of numpy, then
writes the spans to ``SPAN_STEM.json`` and ``SPAN_STEM.bin``.
"""

import importlib.abc
import importlib.util
import sys
import time


class _NumpyImportTimer(importlib.abc.MetaPathFinder):
    """Times the first import of numpy, if the program makes one."""

    ns = 0

    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def timed(module):
            start = time.perf_counter_ns()
            try:
                exec_module(module)
            finally:
                _NumpyImportTimer.ns = time.perf_counter_ns() - start

        spec.loader.exec_module = timed
        return spec


def main():
    stem, argv = sys.argv[1], sys.argv[2:]
    finder = _NumpyImportTimer()
    sys.meta_path.insert(0, finder)
    start = time.perf_counter_ns()
    from arasent import cli
    import_ns = time.perf_counter_ns() - start
    if finder in sys.meta_path:
        sys.meta_path.remove(finder)

    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(argv)
    finally:
        tracer.write(stem, {"import_ns": import_ns,
                            "import_numpy_ns": _NumpyImportTimer.ns})
    sys.exit(code)


if __name__ == "__main__":
    main()
