"""JSON schemas and deterministic rendering for every artifact type.

Rationals serialize as the string ``"p/q"`` with the denominator omitted
when it is 1; points as ``[x, y]``; homogeneous vectors as ``[x, y, z]``.
No floating-point value ever appears in serialized output.  Schema
violations raise :class:`SchemaError` carrying the JSON path.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any

from ._version import __version__
from .construction import (
    CertificateChecks,
    CertificateReport,
    ConfigurationFamily,
    LevelRecord,
    Seed,
    SEED_LABELS,
)
from .errors import RationalParseError, SchemaError
from .geometry import PlanePoint, Vector3
from .grassmann import Subspace, VectorFamily
from .labels import Label, is_label, sort_labels
from .om import LabeledArrangement, OrientedMatroid, SignVector

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_JSON_TYPES = {list: "array", dict: "object", str: "string", bool: "boolean", int: "integer"}
_NEGATE = str.maketrans("+-", "-+")


def render_rational(value: Fraction) -> str:
    return str(value)


def parse_rational(value: Any, path: str = "$") -> Fraction:
    if isinstance(value, bool):
        raise RationalParseError(path, repr(value))
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL_RE.match(value):
        raise RationalParseError(path, repr(value))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise RationalParseError(path, value) from None


def _expect(value: Any, kind: type, path: str, what: str) -> Any:
    """``value`` if it is a JSON value of ``kind`` (a boolean is no integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(path, f"expected {what} (a JSON {_JSON_TYPES[kind]})")
    return value


def _fields(value: Any, keys: tuple[str, ...], path: str, what: str) -> dict:
    """``value`` if it is a JSON object holding every key in ``keys``."""
    _expect(value, dict, path, what)
    for key in keys:
        if key not in value:
            raise SchemaError(path, f"missing field {key!r}")
    return value


def _integer(value: Any, minimum: int, path: str, what: str) -> int:
    if _expect(value, int, path, what) < minimum:
        raise SchemaError(path, f"{what} must be at least {minimum}, got {value}")
    return value


def _pair(value: Any, path: str, what: str) -> list:
    if len(_expect(value, list, path, what)) != 2:
        raise SchemaError(path, f"entry must be {what}")
    return value


def _digest(value: Any, path: str) -> str:
    if not _DIGEST_RE.match(_expect(value, str, path, "a SHA-256 digest")):
        raise SchemaError(path, f"not a lowercase hex SHA-256 digest: {value!r}")
    return value


def parse_label(value: Any, path: str) -> Label:
    if not is_label(value):
        raise SchemaError(path, f"not a valid label: {value!r}")
    return value


# -- points and vectors -----------------------------------------------------

def render_point(p: PlanePoint) -> list[str]:
    return [render_rational(p.x), render_rational(p.y)]


def parse_point(value: Any, path: str = "$") -> PlanePoint:
    _expect(value, list, path, "a point [x, y]")
    if len(value) != 2:
        raise SchemaError(path, f"point needs 2 coordinates, got {len(value)}")
    return PlanePoint(parse_rational(value[0], f"{path}[0]"),
                      parse_rational(value[1], f"{path}[1]"))


def render_vector3(v: Vector3) -> list[str]:
    return [render_rational(v.x), render_rational(v.y), render_rational(v.z)]


def parse_vector3(value: Any, path: str = "$") -> Vector3:
    _expect(value, list, path, "a vector [x, y, z]")
    if len(value) != 3:
        raise SchemaError(path, f"vector needs 3 coordinates, got {len(value)}")
    return Vector3(*(parse_rational(value[i], f"{path}[{i}]") for i in range(3)))


# -- arrangements -----------------------------------------------------------

def render_arrangement(arrangement: LabeledArrangement) -> list:
    return [[label, render_vector3(vec)] for label, vec in arrangement.elements]


def parse_arrangement(value: Any, path: str = "$") -> LabeledArrangement:
    _expect(value, list, path, "an arrangement [[label, [x, y, z]], ...]")
    elements = []
    seen = set()
    for idx, entry in enumerate(value):
        here = f"{path}[{idx}]"
        _pair(entry, here, "a [label, vector] pair")
        label = parse_label(entry[0], f"{here}[0]")
        if label in seen:
            raise SchemaError(f"{here}[0]", f"duplicate label {label!r}")
        seen.add(label)
        elements.append((label, parse_vector3(entry[1], f"{here}[1]")))
    return LabeledArrangement(elements)


# -- oriented matroids ------------------------------------------------------

def render_om(matroid: OrientedMatroid) -> dict:
    return {
        "ground_set": list(matroid.ground),
        "cocircuits": matroid.cocircuit_strings(),
    }


def parse_om(value: Any, path: str = "$") -> OrientedMatroid:
    _fields(value, ("ground_set", "cocircuits"), path, "an oriented matroid document")
    raw_ground = _expect(value["ground_set"], list, f"{path}.ground_set", "a label array")
    ground = tuple(
        parse_label(lab, f"{path}.ground_set[{i}]") for i, lab in enumerate(raw_ground)
    )
    if len(set(ground)) != len(ground):
        raise SchemaError(f"{path}.ground_set", "duplicate labels")
    order = sort_labels(ground)
    perm = [ground.index(lab) for lab in order]
    cocircuits = set()
    raw = _expect(value["cocircuits"], list, f"{path}.cocircuits", "a string array")
    for i, text in enumerate(raw):
        here = f"{path}.cocircuits[{i}]"
        if not isinstance(text, str) or len(text) != len(ground):
            raise SchemaError(here, "sign string must match the ground-set length")
        if any(ch not in "+-0" for ch in text):
            raise SchemaError(here, "sign string may only contain + - 0")
        cocircuits.add(SignVector.from_string(order, "".join(text[j] for j in perm)))
    present = set(raw)
    for i, text in enumerate(raw):
        if text.translate(_NEGATE) not in present:
            raise SchemaError(f"{path}.cocircuits[{i}]", f"negation of {text!r} is missing")
    return OrientedMatroid(order, frozenset(cocircuits))


# -- subspaces and vector families -------------------------------------------

def render_subspace(subspace: Subspace) -> dict:
    return {
        "ambient": subspace.ambient,
        "basis": [[render_rational(x) for x in row] for row in subspace.basis],
    }


def parse_subspace(value: Any, path: str = "$") -> Subspace:
    _fields(value, ("ambient", "basis"), path, "a subspace document")
    ambient = _integer(value["ambient"], 3, f"{path}.ambient", "the ambient dimension")
    rows = _expect(value["basis"], list, f"{path}.basis", "an array of 3 rows")
    if len(rows) != 3:
        raise SchemaError(f"{path}.basis", f"need 3 basis rows, got {len(rows)}")
    basis = []
    for r, row in enumerate(rows):
        here = f"{path}.basis[{r}]"
        _expect(row, list, here, "a coordinate row")
        if len(row) != ambient:
            raise SchemaError(here, f"row length {len(row)} != ambient {ambient}")
        basis.append([parse_rational(x, f"{here}[{i}]") for i, x in enumerate(row)])
    return Subspace(ambient, basis)


def render_vector_family(family: VectorFamily) -> list:
    return [[label, [render_rational(x) for x in vec]] for label, vec in family.elements]


def parse_vector_family(value: Any, path: str = "$") -> VectorFamily:
    _expect(value, list, path, "a vector family [[label, [...]], ...]")
    elements = []
    for idx, entry in enumerate(value):
        here = f"{path}[{idx}]"
        _pair(entry, here, "a [label, vector] pair")
        label = parse_label(entry[0], f"{here}[0]")
        vec = _expect(entry[1], list, f"{here}[1]", "a coordinate array")
        elements.append(
            (label, tuple(parse_rational(x, f"{here}[1][{i}]") for i, x in enumerate(vec)))
        )
    return VectorFamily(elements)


# -- seeds and families -----------------------------------------------------

def render_seed(seed: Seed) -> dict:
    return {name: render_point(getattr(seed, name)) for name in SEED_LABELS}


def parse_seed(value: Any, path: str = "$") -> Seed:
    _expect(value, dict, path, "a seed document")
    points = {}
    for name in SEED_LABELS:
        if name not in value:
            raise SchemaError(path, f"missing seed point {name!r}")
        points[name] = parse_point(value[name], f"{path}.{name}")
    return Seed(**points)


def seed_digest(seed: Seed) -> str:
    canonical = json.dumps(render_seed(seed), separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def render_family(family: ConfigurationFamily) -> dict:
    return {
        "depth": family.depth,
        "points": [[label, render_point(pt)] for label, pt in family.points],
    }


def parse_family(value: Any, path: str = "$") -> ConfigurationFamily:
    _fields(value, ("depth", "points"), path, "a configuration family document")
    depth = _integer(value["depth"], 0, f"{path}.depth", "the depth")
    entries = _expect(value["points"], list, f"{path}.points", "a point array")
    table: dict[Label, PlanePoint] = {}
    ordered: list[tuple[Label, PlanePoint]] = []
    for idx, entry in enumerate(entries):
        here = f"{path}.points[{idx}]"
        _pair(entry, here, "a [label, point] pair")
        label = parse_label(entry[0], f"{here}[0]")
        if label in table:
            raise SchemaError(f"{here}[0]", f"duplicate label {label!r}")
        point = parse_point(entry[1], f"{here}[1]")
        table[label] = point
        ordered.append((label, point))
    missing = [name for name in SEED_LABELS if name not in table]
    if missing:
        raise SchemaError(f"{path}.points", f"missing seed points {missing}")
    seed = Seed(**{name: table[name] for name in SEED_LABELS})
    return ConfigurationFamily(seed, depth, tuple(ordered))


# -- certificate reports ----------------------------------------------------

_CHECK_FIELDS = tuple(f.name for f in fields(CertificateChecks))
_RECORD_FIELDS = tuple(f.name for f in fields(LevelRecord))


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


def _parse_sample_result(value: Any, path: str) -> tuple[int, bool]:
    n, ok = _pair(value, path, "an [n, ok] pair")
    return _expect(n, int, f"{path}[0]", "a sample"), _expect(ok, bool, f"{path}[1]", "a verdict")


def _parse_record(raw: Any, path: str) -> LevelRecord:
    _fields(raw, _RECORD_FIELDS, path, "a level record")
    degeneration = _expect(raw["degeneration_ok"], list, f"{path}.degeneration_ok", "an array")
    return LevelRecord(
        i=_integer(raw["i"], 1, f"{path}.i", "the level"),
        cr=parse_rational(raw["cr"], f"{path}.cr"),
        mi_fingerprint=_digest(raw["mi_fingerprint"], f"{path}.mi_fingerprint"),
        limit_fingerprint=_digest(raw["limit_fingerprint"], f"{path}.limit_fingerprint"),
        limit_cr=parse_rational(raw["limit_cr"], f"{path}.limit_cr"),
        degeneration_ok=tuple(
            _parse_sample_result(entry, f"{path}.degeneration_ok[{k}]")
            for k, entry in enumerate(degeneration)
        ),
        weak_map_ok=_expect(raw["weak_map_ok"], bool, f"{path}.weak_map_ok", "a verdict"),
    )


def parse_report_payload(value: Any, path: str = "$") -> CertificateReport:
    _fields(value, ("seed", "depth", "samples", "records", "limit_fingerprint", "checks", "pass"),
            path, "a certificate report")
    records = _expect(value["records"], list, f"{path}.records", "an array")
    samples = _expect(value["samples"], list, f"{path}.samples", "an array")
    checks = _fields(value["checks"], _CHECK_FIELDS, f"{path}.checks", "a checks object")
    for name, ok in checks.items():
        _expect(ok, bool, f"{path}.checks.{name}", "a verdict")
    return CertificateReport(
        seed=parse_seed(value["seed"], f"{path}.seed"),
        depth=_integer(value["depth"], 1, f"{path}.depth", "the depth"),
        samples=tuple(_integer(n, 1, f"{path}.samples[{k}]", "a sample") for k, n in enumerate(samples)),
        records=tuple(_parse_record(raw, f"{path}.records[{k}]") for k, raw in enumerate(records)),
        limit_fingerprint=_digest(value["limit_fingerprint"], f"{path}.limit_fingerprint"),
        checks=CertificateChecks(**{name: checks[name] for name in _CHECK_FIELDS}),
        passed=_expect(value["pass"], bool, f"{path}.pass", "a verdict"),
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
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


_DOCUMENT_FIELDS = ("pass", "tool", "input_digests", "report", "summary")


def document_from_json(text: str) -> ReportDocument:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not a JSON document: {exc}") from None
    _fields(value, _DOCUMENT_FIELDS, "$", "a report document")
    extra = sorted(set(value) - set(_DOCUMENT_FIELDS))
    if extra:
        raise SchemaError("$", f"unknown field {extra[0]!r}")
    tool = _fields(value["tool"], ("name", "version"), "$.tool", "a tool object")
    digests = _expect(value["input_digests"], dict, "$.input_digests", "a digest object")
    summary = _expect(value["summary"], list, "$.summary", "an array")
    report = parse_report_payload(value["report"], "$.report")
    if _expect(value["pass"], bool, "$.pass", "a verdict") != report.passed:
        raise SchemaError("$.pass", "top-level pass flag disagrees with the report")
    return ReportDocument(
        tool_name=_expect(tool["name"], str, "$.tool.name", "a name"),
        tool_version=_expect(tool["version"], str, "$.tool.version", "a version"),
        input_digests=tuple(
            (key, _digest(digests[key], f"$.input_digests.{key}")) for key in sorted(digests)
        ),
        report=report,
        summary=tuple(
            _expect(line, str, f"$.summary[{k}]", "a summary line") for k, line in enumerate(summary)
        ),
    )
