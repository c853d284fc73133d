"""One benchmark op in a fresh interpreter.

    python3 perfbench/child.py [--trace SPANS.json] cli ARGS...
    python3 perfbench/child.py [--trace SPANS.json] kernel-algebra SEED OUT
    python3 perfbench/child.py make-families SATURATION VIOLATION JMAX OK BAD
    python3 perfbench/child.py import MODULE
    python3 perfbench/child.py provenance

``cli`` does what the ``fermi2d`` console script does.  With ``--trace``
the tracer wraps the layers first and writes its spans when the op ends.
The program is imported from ``src/`` of the checkout this file sits in.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def provenance() -> dict:
    import numpy
    import scipy

    import fermi2d.cli  # noqa: F401  (compiles the package's bytecode)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def main(argv) -> int:
    trace_path = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    if kind == "import":
        __import__(args[0])
        return 0
    if kind == "provenance":
        print(json.dumps(provenance(), sort_keys=True))
        return 0
    import ops
    if kind == "make-families":
        return ops.write_families(float(args[0]), float(args[1]), int(args[2]),
                                  args[3], args[4])
    tracer = None
    if trace_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        if kind == "cli":
            from fermi2d import cli

            return cli.main(args)
        if kind == "kernel-algebra":
            return ops.kernel_algebra(int(args[0]), args[1])
        raise SystemExit(f"unknown op kind {kind!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
