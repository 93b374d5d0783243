"""Deterministic rendering of every artifact type, and parsing against the
versioned JSON schemas shipped in ``omstrata/schemas/``.

Rationals serialize as the string ``"p/q"`` with the denominator omitted
when it is 1; points as ``[x, y]``; homogeneous vectors as ``[x, y, z]``.
No floating-point value ever appears in serialized output.  Each ``parse_*``
checks its document against the schema file of its type, so an unknown
field is rejected wherever the schema forbids one.  By hand it checks only
what a schema cannot say: a zero denominator, repeated labels, sign strings
and basis rows of the wrong length, cocircuits not closed under negation,
family points whose labels are not those of the family's depth, and a
report whose verdicts, summary or seed digest contradict its own evidence
(``_check_report``).  Every violation raises :class:`SchemaError` carrying
the JSON path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import reprlib
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable, Iterable

from ._version import __version__
from .construction import (
    CertificateChecks,
    CertificateReport,
    ConfigurationFamily,
    LevelRecord,
    Seed,
    SEED_LABELS,
    _level_labels,
    _record_checks,
)
from .errors import RationalParseError, SchemaError
from .geometry import PlanePoint, Vector3
from .grassmann import Subspace, VectorFamily
from .labels import Label, sort_labels
from .om import _NEGATE, LabeledArrangement, OrientedMatroid

_SCHEMA_DIR = Path(__file__).parent / "schemas"
_JSON_TYPES = {list: "array", dict: "object", str: "string", bool: "boolean", int: "integer"}
_LITERALS = {None: "null", True: "true", False: "false"}


# -- schema validation --------------------------------------------------------

@functools.cache
def _schema_file(name: str) -> dict:
    return json.loads((_SCHEMA_DIR / name).read_text(encoding="utf-8"))


# An escaped character, a character class, or a bare ``$``.
_DOLLAR = re.compile(r"(\\.|\[(?:\\.|[^]\\])*])|\$")


@functools.cache
def _pattern(source: str) -> re.Pattern:
    """Compile a schema pattern with each bare ``$`` as ``\\Z``: in ECMA-262
    it matches only at the end of the string, in Python also before a final
    newline."""
    return re.compile(_DOLLAR.sub(lambda m: m[1] or r"\Z", source))


def _validate(value: Any, ref: str, path: str) -> None:
    """Check ``value`` against the shipped schema ``ref``: a file name,
    optionally followed by ``#`` and a JSON pointer into the file.  A value
    nested too deeply to check is malformed: SchemaError at ``path``."""
    try:
        _check(value, {"$ref": ref}, path, "")
    except RecursionError:
        raise SchemaError(path, "nested too deeply to check") from None


def _check(value: Any, schema: dict, path: str, base: str) -> None:
    """Raise :class:`SchemaError` at the first place where ``value`` departs
    from ``schema``, a subschema of the file ``base``.

    Draft 2020-12 semantics for the keywords the shipped files use: ``$ref``,
    ``oneOf``, ``type``, ``enum``, ``pattern``, ``minimum``, ``required``,
    ``properties``, ``additionalProperties``, ``items``, ``prefixItems``,
    ``minItems`` and ``maxItems``.  One departure: a float such as ``1.0`` is
    no integer, since documents hold no floats.  Patterns keep the draft's
    ECMA-262 meaning of ``$``, the end of the string (see ``_pattern``).
    """
    if "$ref" in schema:
        name, _, pointer = schema["$ref"].partition("#")
        name = name or base
        target = _schema_file(name)
        for key in pointer.split("/")[1:]:
            target = target[key]
        _check(value, target, path, name)
    if "oneOf" in schema:
        options = schema["oneOf"]
        matches = sum(_conforms(value, option, base) for option in options)
        if matches != 1:
            raise SchemaError(path, f"{reprlib.repr(value)} matches {matches} of the "
                                    f"{len(options)} allowed forms, not exactly one")
    kind = _JSON_TYPES.get(type(value))
    if schema.get("type", kind) != kind:
        raise SchemaError(path, f"expected a JSON {schema['type']}, got {reprlib.repr(value)}")
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(path, f"{reprlib.repr(value)} is not one of {schema['enum']}")
    if kind == "string":
        if "pattern" in schema and not _pattern(schema["pattern"]).search(value):
            raise SchemaError(path, f"{reprlib.repr(value)} does not match {schema['pattern']}")
    elif kind == "integer":
        if value < schema.get("minimum", value):
            raise SchemaError(path, f"must be at least {schema['minimum']}, got {value}")
    elif kind == "object":
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError(path, f"missing field {key!r}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            sub = properties.get(key, schema.get("additionalProperties", {}))
            if sub is False:
                raise SchemaError(path, f"unknown field {key!r}")
            _check(item, sub, f"{path}.{key}", base)
    elif kind == "array":
        n = len(value)
        if n < schema.get("minItems", 0):
            raise SchemaError(path, f"needs at least {schema['minItems']} entries, got {n}")
        if n > schema.get("maxItems", n):
            raise SchemaError(path, f"allows at most {schema['maxItems']} entries, got {n}")
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items", {})
            _check(item, sub, f"{path}[{i}]", base)


def _conforms(value: Any, schema: dict, base: str) -> bool:
    """Whether ``_check`` accepts ``value`` against the ``oneOf`` option
    ``schema``.  An option of another JSON type is rejected before any
    ``SchemaError`` is made: ``_check`` always raises for it."""
    if "type" in schema and schema["type"] != _JSON_TYPES.get(type(value)):
        return False
    try:
        _check(value, schema, "$", base)
    except SchemaError:
        return False
    return True


def _distinct(labels: Iterable[Label], path: Callable[[int], str]) -> None:
    """Raise :class:`SchemaError` at ``path(i)``, where ``i`` is the index of
    the first label that repeats an earlier one."""
    seen: set[Label] = set()
    for i, label in enumerate(labels):
        if label in seen:
            raise SchemaError(path(i), f"duplicate label {label!r}")
        seen.add(label)


# -- rationals, points and vectors --------------------------------------------

def render_rational(value: Fraction) -> str:
    return str(value)


def parse_rational(value: Any, path: str = "$") -> Fraction:
    try:
        _validate(value, "common.v1.schema.json#/$defs/rational", path)
    except SchemaError:
        raise RationalParseError(path, str(value)) from None
    return _fraction(value, path)


def _fraction(value: str | int, path: str) -> Fraction:
    """A literal that matches the schema's rational, unless its denominator is zero."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise RationalParseError(path, value) from None


def _rationals(values: list, path: str) -> list[Fraction]:
    return [_fraction(x, f"{path}[{i}]") for i, x in enumerate(values)]


def render_point(p: PlanePoint) -> list[str]:
    return [render_rational(p.x), render_rational(p.y)]


def render_vector3(v: Vector3) -> list[str]:
    return [render_rational(v.x), render_rational(v.y), render_rational(v.z)]


# -- arrangements -----------------------------------------------------------

def render_arrangement(arrangement: LabeledArrangement) -> list:
    return [[label, render_vector3(vec)] for label, vec in arrangement.elements]


def parse_arrangement(value: Any, path: str = "$") -> LabeledArrangement:
    _validate(value, "arrangement.v1.schema.json", path)
    _distinct((label for label, _ in value), lambda i: f"{path}[{i}][0]")
    return LabeledArrangement(
        (label, Vector3(*_rationals(vec, f"{path}[{i}][1]")))
        for i, (label, vec) in enumerate(value)
    )


# -- oriented matroids ------------------------------------------------------

def render_om(matroid: OrientedMatroid) -> dict:
    return {
        "ground_set": list(matroid.ground),
        "cocircuits": list(matroid.rows),
    }


def parse_om(value: Any, path: str = "$") -> OrientedMatroid:
    _validate(value, "oriented-matroid.v1.schema.json", path)
    ground = tuple(value["ground_set"])
    _distinct(ground, lambda i: f"{path}.ground_set[{i}]")
    order = sort_labels(ground)
    perm = [ground.index(lab) for lab in order]
    raw = value["cocircuits"]
    present = set(raw)
    for i, text in enumerate(raw):
        here = f"{path}.cocircuits[{i}]"
        if len(text) != len(ground):
            raise SchemaError(here, "sign string must match the ground-set length")
        if not text.strip("0"):
            raise SchemaError(here, "a cocircuit needs a non-zero sign")
        if text.translate(_NEGATE) not in present:
            raise SchemaError(here, f"negation of {text!r} is missing")
    return OrientedMatroid._of(order, {"".join([text[j] for j in perm]) for text in raw})


# -- subspaces and vector families -------------------------------------------

def render_subspace(subspace: Subspace) -> dict:
    return {
        "ambient": subspace.ambient,
        "basis": [[render_rational(x) for x in row] for row in subspace.basis],
    }


def parse_subspace(value: Any, path: str = "$") -> Subspace:
    _validate(value, "subspace.v1.schema.json", path)
    ambient, basis = value["ambient"], []
    for r, row in enumerate(value["basis"]):
        if len(row) != ambient:
            raise SchemaError(f"{path}.basis[{r}]", f"row length {len(row)} != ambient {ambient}")
        basis.append(_rationals(row, f"{path}.basis[{r}]"))
    return Subspace(ambient, basis)


def render_vector_family(family: VectorFamily) -> list:
    return [[label, [render_rational(x) for x in vec]] for label, vec in family.elements]


def parse_vector_family(value: Any, path: str = "$") -> VectorFamily:
    _validate(value, "vector-family.v1.schema.json", path)
    _distinct((label for label, _ in value), lambda i: f"{path}[{i}][0]")
    return VectorFamily(
        (label, _rationals(vec, f"{path}[{i}][1]")) for i, (label, vec) in enumerate(value)
    )


# -- seeds and families -----------------------------------------------------

def render_seed(seed: Seed) -> dict:
    return {name: render_point(getattr(seed, name)) for name in SEED_LABELS}


def parse_seed(value: Any, path: str = "$") -> Seed:
    _validate(value, "seed.v1.schema.json", path)
    return Seed(**{
        name: PlanePoint(*_rationals(value[name], f"{path}.{name}")) for name in SEED_LABELS
    })


def seed_digest(seed: Seed) -> str:
    canonical = json.dumps(render_seed(seed), separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def render_family(family: ConfigurationFamily) -> dict:
    return {
        "depth": family.depth,
        "points": [[label, render_point(pt)] for label, pt in family.points],
    }


def parse_family(value: Any, path: str = "$") -> ConfigurationFamily:
    _validate(value, "family.v1.schema.json", path)
    _distinct((label for label, _ in value["points"]), lambda i: f"{path}.points[{i}][0]")
    table = {
        label: PlanePoint(*_rationals(point, f"{path}.points[{i}][1]"))
        for i, (label, point) in enumerate(value["points"])
    }
    depth = value["depth"]
    # The count comes first, so a huge depth never builds its label list.
    if (len(table) != len(SEED_LABELS) + 3 * depth
            or table.keys() != set(labels := _level_labels(depth))):
        raise SchemaError(f"{path}.points", f"the labels of {len(table)} points are not "
                          f"the {len(SEED_LABELS) + 3 * depth} labels of depth {depth}")
    seed = Seed(**{name: table[name] for name in SEED_LABELS})
    return ConfigurationFamily(seed, depth, tuple((label, table[label]) for label in labels))


def dump_json(value: Any) -> str:
    """The written form of every document: indented by two spaces, ASCII
    only, with a final newline; the bytes of ``json.dumps(value, indent=2,
    ensure_ascii=True)``.  A document holds dicts with str keys, lists,
    strs, ints, bools and None; anything else raises TypeError."""
    out: list[str] = []
    _write_json(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append the indented JSON of ``value`` to ``out``; ``newline`` is a
    line break and the indent of the line ``value`` starts on.  A str item
    of a dict or list is written with its key or separator, with no call."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if type(item) is str:
                out.append(head + _quote(key) + ": " + _quote(item))
            else:
                out.append(head + _quote(key) + ": ")
                _write_json(item, inner, out)
            head = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for item in value:
            if type(item) is str:
                out.append(head + _quote(item))
            else:
                out.append(head)
                _write_json(item, inner, out)
            head = "," + inner
        out.append(newline + "]")
    elif value is None or kind is bool:
        out.append(_LITERALS[value])
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# -- certificate reports ----------------------------------------------------

_CHECK_FIELDS = tuple(f.name for f in fields(CertificateChecks))


def render_report_payload(report: CertificateReport) -> dict:
    return {
        "seed": render_seed(report.seed),
        "depth": report.depth,
        "samples": list(report.samples),
        "records": [
            {
                "i": rec.i,
                "cr": render_rational(rec.cr),
                "mi_fingerprint": rec.mi_fingerprint,
                "limit_fingerprint": rec.limit_fingerprint,
                "limit_cr": render_rational(rec.limit_cr),
                "degeneration_ok": [[n, ok] for n, ok in rec.degeneration_ok],
                "weak_map_ok": rec.weak_map_ok,
            }
            for rec in report.records
        ],
        "limit_fingerprint": report.limit_fingerprint,
        "checks": {name: getattr(report.checks, name) for name in _CHECK_FIELDS},
        "pass": report.passed,
    }


def _record(raw: dict, path: str) -> LevelRecord:
    return LevelRecord(
        i=raw["i"],
        cr=_fraction(raw["cr"], f"{path}.cr"),
        mi_fingerprint=raw["mi_fingerprint"],
        limit_fingerprint=raw["limit_fingerprint"],
        limit_cr=_fraction(raw["limit_cr"], f"{path}.limit_cr"),
        degeneration_ok=tuple((n, ok) for n, ok in raw["degeneration_ok"]),
        weak_map_ok=raw["weak_map_ok"],
    )


@dataclass(frozen=True)
class ReportDocument:
    """Versioned wrapper around a certificate report."""

    tool_name: str
    tool_version: str
    input_digests: tuple[tuple[str, str], ...]
    report: CertificateReport
    summary: tuple[str, ...]


def render_report(report: CertificateReport) -> ReportDocument:
    summary = [f"depth: {report.depth}", f"limit fingerprint: {report.limit_fingerprint}"]
    for name in _CHECK_FIELDS:
        ok = getattr(report.checks, name)
        summary.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    summary.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return ReportDocument(
        tool_name="omstrata",
        tool_version=__version__,
        input_digests=(("seed", seed_digest(report.seed)),),
        report=report,
        summary=tuple(summary),
    )


def document_to_json(document: ReportDocument) -> str:
    doc = {
        "pass": document.report.passed,
        "tool": {"name": document.tool_name, "version": document.tool_version},
        "input_digests": {key: value for key, value in document.input_digests},
        "report": render_report_payload(document.report),
        "summary": list(document.summary),
    }
    return dump_json(doc)


def document_from_json(text: str) -> ReportDocument:
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise SchemaError("$", f"not a JSON document: {exc}") from None
    _validate(value, "report.v1.schema.json", "$")
    payload = value["report"]
    report = CertificateReport(
        seed=parse_seed(payload["seed"], "$.report.seed"),
        depth=payload["depth"],
        samples=tuple(payload["samples"]),
        records=tuple(
            _record(raw, f"$.report.records[{k}]") for k, raw in enumerate(payload["records"])
        ),
        limit_fingerprint=payload["limit_fingerprint"],
        checks=CertificateChecks(**{name: payload["checks"][name] for name in _CHECK_FIELDS}),
        passed=payload["pass"],
    )
    _check_report(value, report)
    return ReportDocument(
        tool_name=value["tool"]["name"],
        tool_version=value["tool"]["version"],
        input_digests=tuple(sorted(value["input_digests"].items())),
        report=report,
        summary=tuple(value["summary"]),
    )


def _check_report(value: dict, report: CertificateReport) -> None:
    """Raise :class:`SchemaError` where the report document ``value``, parsed
    as ``report``, contradicts itself: samples that are empty or repeat a
    value, records that do not run i = 1..depth over the samples in order,
    pass flags that are not the conjunction of the checks, checks that
    disagree with the records, a limit fingerprint that is not the first
    level's, and a summary or seed digest other than the ones
    ``render_report`` gives."""
    records, checks = report.records, report.checks
    if not report.samples or len(set(report.samples)) != len(report.samples):
        raise SchemaError("$.report.samples",
                          f"samples {list(report.samples)} are empty or repeat a value")
    if len(records) != report.depth:
        raise SchemaError("$.report.records", f"{len(records)} level records for depth {report.depth}")
    for k, rec in enumerate(records):
        if rec.i != k + 1:
            raise SchemaError(f"$.report.records[{k}].i", f"level {rec.i} where level {k + 1} belongs")
        if tuple(n for n, _ in rec.degeneration_ok) != report.samples:
            raise SchemaError(f"$.report.records[{k}].degeneration_ok",
                              f"samples are not the report's samples {list(report.samples)}")
    if report.passed != checks.all_pass():
        raise SchemaError("$.report.pass", "pass flag is not the conjunction of the checks")
    if value["pass"] != report.passed:
        raise SchemaError("$.pass", "top-level pass flag disagrees with the report")
    # Two limits are equal exactly when their fingerprints are.
    limits_equal = len({rec.limit_fingerprint for rec in records}) == 1
    evidence = {"limits_equal": limits_equal, **_record_checks(records, limits_equal)}
    for name, verdict in evidence.items():
        if getattr(checks, name) != verdict:
            raise SchemaError(f"$.report.checks.{name}", "disagrees with the level records")
    if report.limit_fingerprint != records[0].limit_fingerprint:
        raise SchemaError("$.report.limit_fingerprint", "is not the first level's limit fingerprint")
    if tuple(value["summary"]) != render_report(report).summary:
        raise SchemaError("$.summary", "is not the summary of the report")
    if value["input_digests"]["seed"] != seed_digest(report.seed):
        raise SchemaError("$.input_digests.seed", "is not the digest of the report's seed")
