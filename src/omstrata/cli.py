"""Command-line interface.

Exit codes: 0 on success (certificate passed, query answered), 2 when a
seed is rejected or a certificate fails, 1 on malformed input or an output
that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from ._version import __version__
from .construction import DEFAULT_SAMPLES, build, certificate, default_seed, validate_seed
from .errors import OmstrataError, SchemaError, SeedRejected
from .figures import emit_figure
from .grassmann import subspace_om
from .om import om_equal, om_of, strong_map, weak_map
from .serialization import (
    document_to_json,
    dump_json,
    parse_arrangement,
    parse_om,
    parse_seed,
    parse_subspace,
    render_family,
    render_om,
    render_report,
)

PERTURB_ADVICE = (
    "hint: perturb the seed points 'a' and 'nu' by small rationals and re-run"
)


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise SchemaError(path, f"invalid JSON: {exc}") from exc


def _load_seed(path: str | None):
    if path is None:
        return default_seed()
    return parse_seed(_load_json(path))


def _load_om_operand(path: str):
    """An arrangement file (JSON array) or an oriented-matroid file."""
    value = _load_json(path)
    if isinstance(value, list):
        return om_of(parse_arrangement(value))
    return parse_om(value)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_seed_validate(args) -> int:
    seed = _load_seed(args.file)
    verdict = validate_seed(seed)
    if verdict:
        print("valid")
        return 0
    print(f"invalid ({verdict.violated}): {verdict.message}")
    print(PERTURB_ADVICE)
    return 2


def _cmd_build(args) -> int:
    seed = _load_seed(args.seed)
    family = build(seed, args.depth)
    _write_or_print(dump_json(render_family(family)), args.out)
    if args.out:
        print(f"wrote depth-{family.depth} family to {args.out}")
    return 0


def _write_om(matroid, out: str | None) -> int:
    _write_or_print(dump_json(render_om(matroid)), out)
    if out:
        print(f"fingerprint: {matroid.fingerprint()}")
    return 0


def _cmd_om_of(args) -> int:
    return _write_om(om_of(parse_arrangement(_load_json(args.input))), args.out)


def _cmd_om_compare(args) -> int:
    m1 = _load_om_operand(args.a)
    m2 = _load_om_operand(args.b)
    print("true" if args.test(m1, m2) else "false")
    return 0


def _cmd_mu(args) -> int:
    return _write_om(subspace_om(parse_subspace(_load_json(args.subspace))), args.out)


def _cmd_certificate(args) -> int:
    seed = _load_seed(args.seed)
    try:
        samples = [int(part) for part in args.samples.split(",")]
    except ValueError:
        raise SchemaError("--samples", f"not a comma-separated integer list: {args.samples!r}")
    report = certificate(seed, args.depth, samples)
    document = render_report(report)
    _write_or_print(document_to_json(document), args.out)
    if args.svg_dir:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
        family = build(seed, args.depth)
        for level in range(args.depth + 1):
            target = svg_dir / f"A{level}.svg"
            target.write_text(emit_figure(family.level(level)), encoding="utf-8")
        print(f"wrote {args.depth + 1} figures to {svg_dir}")
    for line in document.summary:
        print(line)
    return 0 if report.passed else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was."""
    parser = argparse.ArgumentParser(
        prog="omstrata",
        description="Exact certificates for planar configurations and their "
                    "rank-3 oriented matroids.",
    )
    parser.add_argument("--version", action="version", version=f"omstrata {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = sub.add_parser("seed", help="seed utilities")
    seed_sub = seed.add_subparsers(dest="seed_command", required=True)
    validate = seed_sub.add_parser("validate", help="check the seed constraints")
    validate.add_argument("--file", help="seed JSON (defaults to the shipped seed)")
    validate.set_defaults(func=_cmd_seed_validate)

    build_p = sub.add_parser("build", help="build a configuration family")
    build_p.add_argument("--depth", type=int, required=True)
    build_p.add_argument("--seed", help="seed JSON (defaults to the shipped seed)")
    build_p.add_argument("--out", help="output file (stdout if omitted)")
    build_p.set_defaults(func=_cmd_build)

    om = sub.add_parser("om", help="oriented-matroid queries")
    om_sub = om.add_subparsers(dest="om_command", required=True)
    om_of_p = om_sub.add_parser("of", help="oriented matroid of an arrangement")
    om_of_p.add_argument("--in", dest="input", required=True, help="arrangement JSON")
    om_of_p.add_argument("--out", help="output file (stdout if omitted)")
    om_of_p.set_defaults(func=_cmd_om_of)
    for name, test in (("equal", om_equal), ("strong-map", strong_map), ("weak-map", weak_map)):
        p = om_sub.add_parser(name, help=f"{name} test on two inputs")
        p.add_argument("a", help="arrangement or oriented-matroid JSON")
        p.add_argument("b", help="arrangement or oriented-matroid JSON")
        p.set_defaults(func=_cmd_om_compare, test=test)

    mu = sub.add_parser("mu", help="oriented matroid of a rational 3-subspace")
    mu.add_argument("--subspace", required=True, help="subspace JSON")
    mu.add_argument("--out", help="output file (stdout if omitted)")
    mu.set_defaults(func=_cmd_mu)

    cert = sub.add_parser("certificate", help="run the degeneration certificate")
    cert.add_argument("--depth", type=int, default=10)
    cert.add_argument("--samples", default=",".join(map(str, DEFAULT_SAMPLES)),
                      help="comma-separated rescaling denominators")
    cert.add_argument("--seed", help="seed JSON (defaults to the shipped seed)")
    cert.add_argument("--out", help="report file (stdout if omitted)")
    cert.add_argument("--svg-dir", help="also write per-level SVG figures here")
    cert.set_defaults(func=_cmd_certificate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SeedRejected as exc:
        print(f"seed rejected: {exc}", file=sys.stderr)
        print(PERTURB_ADVICE, file=sys.stderr)
        return 2
    except (OmstrataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
