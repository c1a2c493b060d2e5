"""Command-line front end: tables, verification runs, and reports."""

import argparse
import json
import sys
from functools import partial

from . import GalMcKayError
from .chartab import CharacterTable, dixon_schneider
from .ntheory import factorint
from .zoo import (
    _SMALL_GROUPS, suzuki_group, psl2_8, agl18_normalizer, small_group,
)
from .verify import (
    verify_target, lemma_congruence_check, cross_model_check,
    list_targets, local_model_table, target_mode,
)


_GROUP_BUILDERS = {
    "sz8": partial(suzuki_group, 1),
    "psl2_8": psl2_8,
    "agl18_normalizer": agl18_normalizer,
    **{tag: partial(small_group, tag) for tag in _SMALL_GROUPS},
}


def serialize_table(table: CharacterTable) -> dict:
    """JSON-ready document for a character table (byte-stable order)."""
    G = table.group
    primes = list(factorint(table.exponent))
    classes = []
    for c, cl in enumerate(table.classes):
        classes.append({
            "size": cl.size,
            "element_order": cl.element_order,
            "power_maps": {str(b): G.power_map(c, b) for b in primes},
        })
    irreducibles = []
    for row in table.rows:
        irreducibles.append({
            "degree": row.degree_int(),
            "values": [v.serialize() for v in row.values],
        })
    return {
        "order": G.order,
        "exponent": table.exponent,
        "classes": classes,
        "irreducibles": irreducibles,
    }


def _dump(doc, fmt, out):
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = _as_text(doc) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise GalMcKayError("cannot write %s: %s"
                                % (out, exc.strerror)) from None
    else:
        sys.stdout.write(text)


def _as_text(doc):
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in obj:
                val = obj[key]
                if isinstance(val, (dict, list)) and val:
                    lines.append("%s%s:" % (pad, key))
                    walk(val, indent + 1)
                else:
                    lines.append("%s%s: %s" % (pad, key, val))
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    lines.append("%s-" % pad)
                    walk(item, indent + 1)
                else:
                    lines.append("%s- %s" % (pad, item))
        else:
            lines.append("%s%s" % (pad, obj))

    walk(doc)
    return "\n".join(lines)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="galmckay",
        description="Exact character-theoretic condition checks at desk "
                    "scale")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("chartab", help="compute a character table")
    p.add_argument("--group", required=True)
    common(p)

    p = sub.add_parser("verify", help="run a condition check")
    p.add_argument("--family", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)

    p = sub.add_parser("lemma32", help="torus-order congruence checks")
    p.add_argument("--f-min", type=int, default=1)
    p.add_argument("--f-max", type=int, default=8)
    common(p)

    p = sub.add_parser("local-model", help="table of a normalizer model")
    p.add_argument("--family", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)

    p = sub.add_parser("cross-check",
                       help="computed normalizer vs constructed model")
    p.add_argument("--family", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)

    p = sub.add_parser("list-targets", help="supported (family, f, p) grid")
    common(p)

    return ap


def run(argv) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        if args.command == "chartab":
            if args.group not in _GROUP_BUILDERS:
                sys.stderr.write(
                    "unknown group %r; known: %s\n"
                    % (args.group, ", ".join(sorted(_GROUP_BUILDERS))))
                return 1
            table = dixon_schneider(_GROUP_BUILDERS[args.group]())
            _dump(serialize_table(table), args.format, args.out)
            return 0
        if args.command == "verify":
            report = verify_target(args.family, args.f, args.p)
            _dump(report, args.format, args.out)
            if report["status"] == "out-of-scope":
                return 1
            return 0 if report["status"] == "verified" else 2
        if args.command == "lemma32":
            report = lemma_congruence_check(args.f_min, args.f_max)
            _dump(report, args.format, args.out)
            return 0 if report["ok"] else 2
        if args.command in ("local-model", "cross-check") and \
                target_mode(args.family, args.f, args.p) is None:
            _dump({"status": "out-of-scope", "known_targets": list_targets()},
                  args.format, args.out)
            return 1
        if args.command == "local-model":
            table = local_model_table(args.family, args.f, args.p)
            _dump(serialize_table(table), args.format, args.out)
            return 0
        if args.command == "cross-check":
            ok = cross_model_check(args.family, args.f, args.p)
            _dump({"family": args.family, "f": args.f, "p": args.p,
                   "consistent": ok}, args.format, args.out)
            return 0 if ok else 2
        if args.command == "list-targets":
            _dump({"targets": list_targets()}, args.format, args.out)
            return 0
        return 1
    except GalMcKayError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main():  # pragma: no cover
    sys.exit(run(sys.argv[1:]))
