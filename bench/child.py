"""One benchmark invocation in a cold process.

    python bench/child.py [--trace-out FILE] verify --family 2B2 --f 1 --p 13
    python bench/child.py [--trace-out FILE] clifford --family 2F4 --f 1 --p 7

A galmckay command such as ``verify`` goes through ``galmckay.cli.run``, so
stdout is byte for byte what ``python -m galmckay`` prints.  ``clifford``
prints, as JSON, the Clifford labels of ``zoo.torus_normalizer(family, f,
p)``: no CLI command reaches that layer.  With ``--trace-out`` the public
entry points are timed (see tracer.py) and the layer metrics and spans are
written to FILE as JSON; the report on stdout is unchanged.
"""

import json
import sys
import time


def clifford_document(labels):
    """JSON-ready form of a {row: McKayLabel} map, in row order."""
    return {str(row): {"s_row": lab.s_row,
                       "s_values": [v.serialize() for v in lab.s_values],
                       "orbit": list(lab.orbit),
                       "stabilizer_order": lab.stabilizer_order,
                       "eta_index": lab.eta_index,
                       "eta_degree": lab.eta_degree}
            for row, lab in sorted(labels.items())}


def run_clifford(argv):
    import argparse

    from galmckay import galois, zoo

    ap = argparse.ArgumentParser(prog="clifford")
    ap.add_argument("--family", required=True)
    ap.add_argument("--f", type=int, required=True)
    ap.add_argument("--p", type=int, required=True)
    args = ap.parse_args(argv)
    spec = zoo.torus_normalizer(args.family, args.f, args.p)
    doc = clifford_document(galois.clifford_label(spec))
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import galmckay.cli
    import_s = time.perf_counter() - start
    tracer = None
    if trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if argv[:1] == ["clifford"]:
        code = run_clifford(argv[1:])
    else:
        code = galmckay.cli.run(argv)
    sys.stdout.flush()
    if tracer is not None:
        metrics, absent = tracer.metrics()
        metrics["cli.import_s"] = import_s
        doc = {"metrics": metrics, "absent": absent,
               "absent_entry_points": tracer.absent, "spans": tracer.spans}
        with open(trace_out, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
