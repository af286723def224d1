"""Command line front end: point counts, verification reports, and transport
certificates, emitted as JSON (or as csv/table projections of the same
record).  Exit status: 0 all checks pass, 1 a verification failed, 2 usage
or configuration error.

A command line is parsed in one argparse pass: when the first argument names
a command, that command's parser reads the rest, with the messages and exit
codes of ArgumentParser.parse_args.  The JSON report is the text of
json.dumps(record, indent=2), written by _to_json with the C string encoder.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .action import GroupContext, verify_homogeneous, verify_similitude_orbit
from .errors import DimensionMismatch, NotOnQuadric, QuadricsError, TooLarge
from .fields import Field
from .quadric import _point_guard, count_report, recursion_report
from .spinfactor import verify_projective_space
from .transport import quadric_transport, transport_all
from .quadform import Vector


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.n < 0:
            raise ValueError("--n must be nonnegative")
        if args.command == "count":
            record, failed = _cmd_count(args)
        elif args.command == "verify":
            record, failed = _cmd_verify(args)
        else:
            record, failed = _cmd_transport(args)
        _emit(record, args)
    except (TooLarge, ValueError, QuadricsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NotOnQuadric) else 2
    return 1 if failed else 0


def _parse(argv):
    """_parser().parse_args(argv), with the top-level pass skipped when argv[0]
    names a command: that pass only picks the command's parser and hands it
    the rest.  Any other argv (none, -h, an unknown command) goes to the top
    parser, and arguments the command leaves are reported by it."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _ascii_int(text):
    """int(text) for --n and --q, refusing what Field.parse refuses: text
    that is not ASCII or holds "_" (int() reads 3_1 and Unicode digits)."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


_ascii_int.__name__ = "int"   # argparse names the type: "invalid int value"


@functools.cache
def _parser():
    """The argument parser, built on the first main() call and then reused:
    parsing leaves it unchanged.  Its commands' parsers are kept by name in
    its `commands`."""
    parser = argparse.ArgumentParser(
        prog="quadrics",
        description="Split quadric point counts, group actions, and reflection transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, symbolic_q=False):
        p.add_argument("--n", type=_ascii_int, required=True, help="rank parameter n")
        field = p.add_mutually_exclusive_group(required=True) if symbolic_q else p
        field.add_argument("--field", help="field spec: p^k, its order q, or Q")
        if symbolic_q:
            field.add_argument("--q", type=_ascii_int, help="symbolic prime power (no enumeration)")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--force", action="store_true", help="override size guards")

    p_count = sub.add_parser("count", help="point counts: closed form, recursion, enumeration")
    common(p_count, symbolic_q=True)

    p_verify = sub.add_parser("verify", help="run one of the verification suites")
    p_verify.add_argument("kind", choices=("homogeneous", "spin", "similitude", "recursion"))
    common(p_verify, symbolic_q=True)

    p_tr = sub.add_parser("transport", help="reflection words moving the base point")
    common(p_tr)
    target = p_tr.add_mutually_exclusive_group(required=True)
    target.add_argument("--point", help="comma-separated target coordinates")
    target.add_argument("--all", action="store_true", help="transport every point")
    parser.commands = sub.choices
    return parser


# Set-up shared by the jobs of one process, bounded so that a caller walking
# many fields does not keep their tables.  A Field is built on its spec and
# a GroupContext on (field, n); jobs read both and mutate neither, and the
# lazily filled square-root table and form kernels are deterministic.
@functools.lru_cache(maxsize=32)
def _field(spec):
    return Field.parse(spec)


@functools.lru_cache(maxsize=32)
def _context(field, n):
    return GroupContext(field, n)


def _field_of(args):
    if getattr(args, "field", None):
        return _field(args.field)
    raise ValueError("--field is required for this command")


def _cmd_count(args):
    field = _field(args.field) if args.q is None else None
    record = count_report(args.n, field=field, q=args.q, force=args.force)
    return record, not record["match"]


def _cmd_verify(args):
    kind = args.kind
    if kind == "recursion":
        q = args.q if args.q is not None else (_field_of(args).q)
        if q is None:
            raise ValueError("recursion check needs a prime power --q or finite --field")
        record = recursion_report(args.n, q)
        return record, not record["pass"]
    field = _field_of(args)
    if args.n < 1:
        raise ValueError("--n must be at least 1 for group checks")
    if kind == "homogeneous":
        record = verify_homogeneous(field, args.n, force=args.force)
    elif kind == "spin":
        record = verify_projective_space(field, args.n, force=args.force)
    else:
        record = verify_similitude_orbit(field, args.n, force=args.force)
    return record, not record["pass"]


def _cmd_transport(args):
    """Both targets are checked against (q, n) before the context is built:
    the point guard for --all, the length of --point."""
    field, n = _field_of(args), args.n
    if n < 1:
        raise ValueError("--n must be at least 1")
    if args.all:
        _point_guard(field, n, args.force)
        certs, stats = transport_all(_context(field, n), force=args.force)
        record = {
            "check": "transport_all", "n": n, "field": str(field),
            "total": len(certs), "verified": sum(c.verified for c in certs),
            "paths": stats,
            "certificates": [c.to_dict() for c in certs],
        }
        failed = record["verified"] != record["total"]
        record["pass"] = not failed
        return record, failed
    target = Vector(field, map(field.raw_parse, args.point.split(",")))
    if len(target) != 2 * n + 2:
        raise DimensionMismatch(f"space dim {2 * n + 2}, vector length {len(target)}")
    return quadric_transport(_context(field, n), target).to_dict(), False


# -- output -------------------------------------------------------------------

def _flatten(record, prefix=""):
    rows = []
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            rows.append((name, json.dumps(value, separators=(",", ":"))))
        else:
            rows.append((name, value))
    return rows


def _to_json(value, indent="\n"):
    """json.dumps(value, indent=2) of a report value whose lines start with
    indent, from the C string encoder: reports hold only str-keyed dicts,
    lists, str, int, bool and None, and anything else raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_to_json(item, inner)}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [encode_basestring_ascii(item) if type(item) is str else _to_json(item, inner)
                 for item in value]   # a string inline: most items are coordinates
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a report cannot hold {type(value).__name__}")


def _emit(record, args):
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = _to_json(record)
    elif fmt == "csv":
        lines = ["key,value"]
        lines += [f"{k},{v}" for k, v in _flatten(record)]
        text = "\n".join(lines)
    else:
        rows = _flatten(record)
        width = max(len(k) for k, _ in rows)
        text = "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
