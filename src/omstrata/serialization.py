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
from dataclasses import dataclass
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
    if kind is list and not isinstance(value, list):
        raise SchemaError(path, f"expected {what} (a JSON array)")
    if kind is dict and not isinstance(value, dict):
        raise SchemaError(path, f"expected {what} (a JSON object)")
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
        _expect(entry, list, here, "a [label, vector] pair")
        if len(entry) != 2:
            raise SchemaError(here, "entry must be a [label, vector] pair")
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
    _expect(value, dict, path, "an oriented matroid document")
    for key in ("ground_set", "cocircuits"):
        if key not in value:
            raise SchemaError(path, f"missing field {key!r}")
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
    _expect(value, dict, path, "a subspace document")
    for key in ("ambient", "basis"):
        if key not in value:
            raise SchemaError(path, f"missing field {key!r}")
    ambient = value["ambient"]
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 3:
        raise SchemaError(f"{path}.ambient", "ambient dimension must be an integer >= 3")
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
        _expect(entry, list, here, "a [label, vector] pair")
        if len(entry) != 2:
            raise SchemaError(here, "entry must be a [label, vector] pair")
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
    _expect(value, dict, path, "a configuration family document")
    for key in ("depth", "points"):
        if key not in value:
            raise SchemaError(path, f"missing field {key!r}")
    depth = value["depth"]
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise SchemaError(f"{path}.depth", "depth must be a non-negative integer")
    entries = _expect(value["points"], list, f"{path}.points", "a point array")
    table: dict[Label, PlanePoint] = {}
    ordered: list[tuple[Label, PlanePoint]] = []
    for idx, entry in enumerate(entries):
        here = f"{path}.points[{idx}]"
        _expect(entry, list, here, "a [label, point] pair")
        if len(entry) != 2:
            raise SchemaError(here, "entry must be a [label, point] pair")
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
        "checks": {
            "c_distinct": report.checks.c_distinct,
            "cr_distinct": report.checks.cr_distinct,
            "stratum_constancy": report.checks.stratum_constancy,
            "limits_equal": report.checks.limits_equal,
            "separation": report.checks.separation,
            "weak_maps": report.checks.weak_maps,
        },
        "pass": report.passed,
    }


_CHECK_FIELDS = ("c_distinct", "cr_distinct", "stratum_constancy",
                 "limits_equal", "separation", "weak_maps")


def parse_report_payload(value: Any, path: str = "$") -> CertificateReport:
    _expect(value, dict, path, "a certificate report")
    for key in ("seed", "depth", "samples", "records", "limit_fingerprint", "checks", "pass"):
        if key not in value:
            raise SchemaError(path, f"missing field {key!r}")
    seed = parse_seed(value["seed"], f"{path}.seed")
    records = []
    for idx, raw in enumerate(_expect(value["records"], list, f"{path}.records", "an array")):
        here = f"{path}.records[{idx}]"
        _expect(raw, dict, here, "a level record")
        records.append(
            LevelRecord(
                i=raw["i"],
                cr=parse_rational(raw["cr"], f"{here}.cr"),
                mi_fingerprint=raw["mi_fingerprint"],
                limit_fingerprint=raw["limit_fingerprint"],
                limit_cr=parse_rational(raw["limit_cr"], f"{here}.limit_cr"),
                degeneration_ok=tuple((n, ok) for n, ok in raw["degeneration_ok"]),
                weak_map_ok=raw["weak_map_ok"],
            )
        )
    checks_raw = _expect(value["checks"], dict, f"{path}.checks", "a checks object")
    checks = CertificateChecks(**{name: bool(checks_raw[name]) for name in _CHECK_FIELDS})
    return CertificateReport(
        seed=seed,
        depth=value["depth"],
        samples=tuple(value["samples"]),
        records=tuple(records),
        limit_fingerprint=value["limit_fingerprint"],
        checks=checks,
        passed=bool(value["pass"]),
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


def document_from_json(text: str) -> ReportDocument:
    value = json.loads(text)
    _expect(value, dict, "$", "a report document")
    for key in ("pass", "tool", "input_digests", "report", "summary"):
        if key not in value:
            raise SchemaError("$", f"missing field {key!r}")
    tool = _expect(value["tool"], dict, "$.tool", "a tool object")
    report = parse_report_payload(value["report"], "$.report")
    if bool(value["pass"]) != report.passed:
        raise SchemaError("$.pass", "top-level pass flag disagrees with the report")
    return ReportDocument(
        tool_name=tool.get("name", ""),
        tool_version=tool.get("version", ""),
        input_digests=tuple(sorted(value["input_digests"].items())),
        report=report,
        summary=tuple(value["summary"]),
    )
