import copy
import json
import subprocess
import sys
import tarfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omstrata
from omstrata import (
    LabeledArrangement,
    OrientedMatroid,
    RationalParseError,
    SchemaError,
    Subspace,
    Vector3,
    VectorFamily,
    build,
    certificate,
    default_seed,
    om_equal,
    om_of,
)
from omstrata.serialization import (
    _check,
    _conforms,
    _validate,
    document_from_json,
    document_to_json,
    dump_json,
    parse_arrangement,
    parse_family,
    parse_om,
    parse_rational,
    parse_seed,
    parse_subspace,
    parse_vector_family,
    render_arrangement,
    render_family,
    render_om,
    render_rational,
    render_report,
    render_seed,
    render_subspace,
    render_vector_family,
    seed_digest,
)

SCHEMA_DIR = Path(omstrata.__file__).parent / "schemas"


class TestRationals:
    def test_integer_omits_denominator(self):
        assert render_rational(F(6)) == "6"
        assert render_rational(F(-3)) == "-3"

    def test_fraction(self):
        assert render_rational(F(18, 5)) == "18/5"

    def test_parse_round_trip(self):
        for text in ("0", "-7", "18/5", "-44/7"):
            assert render_rational(parse_rational(text)) == text

    def test_parse_int_value(self):
        assert parse_rational(4) == F(4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(RationalParseError):
            parse_rational("1/0")

    def test_garbage_rejected(self):
        for bad in ("1.5", "3e2", "a/b", "", "1/2/3", True, None, 2.5):
            with pytest.raises(RationalParseError):
                parse_rational(bad)


class TestArrangement:
    def test_documented_shape(self):
        arrangement = parse_arrangement([["a", ["1/2", "0", "1"]]])
        assert arrangement.elements == (("a", Vector3(F(1, 2), 0, 1)),)

    def test_round_trip(self):
        arrangement = build(default_seed(), 1).arrangement()
        assert parse_arrangement(render_arrangement(arrangement)) == arrangement

    def test_duplicate_labels(self):
        doc = [["a", ["1", "0", "1"]], ["a", ["0", "1", "1"]]]
        with pytest.raises(SchemaError) as exc:
            parse_arrangement(doc)
        assert "[1]" in str(exc.value)

    def test_bad_rational_carries_path(self):
        with pytest.raises(RationalParseError) as exc:
            parse_arrangement([["a", ["1/0", "0", "1"]]])
        assert "$[0][1][0]" in str(exc.value)

    def test_bad_label(self):
        with pytest.raises(SchemaError):
            parse_arrangement([["zeta9", ["1", "0", "1"]]])


class TestOmDocuments:
    def test_round_trip(self):
        matroid = om_of(build(default_seed(), 0).arrangement())
        parsed = parse_om(render_om(matroid))
        assert om_equal(parsed, matroid)
        assert parsed.fingerprint() == matroid.fingerprint()

    def test_unsorted_ground_set_is_canonicalized(self):
        matroid = om_of(
            LabeledArrangement(
                [(1, Vector3(1, 0, 0)), (2, Vector3(0, 1, 0)), (3, Vector3(0, 0, 1))]
            )
        )
        doc = {
            "ground_set": [3, 1, 2],
            "cocircuits": [cc.to_string()[::-1] for cc in sorted(
                matroid.cocircuits, key=lambda c: c.to_string())],
        }
        # reversing a one-hot string permutes it consistently with [3, 1, 2]
        parsed = parse_om(doc)
        assert om_equal(parsed, matroid)

    def test_bad_sign_string(self):
        with pytest.raises(SchemaError):
            parse_om({"ground_set": [1, 2], "cocircuits": ["+x"]})

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            parse_om({"ground_set": [1, 2, 3], "cocircuits": ["+-"]})

    @pytest.mark.parametrize("doc", [
        {"ground_set": [], "cocircuits": [""]},
        {"ground_set": ["a"], "cocircuits": ["0"]},
        {"ground_set": [1, 2], "cocircuits": ["+-", "-+", "00"]},
    ])
    def test_an_all_zero_row_is_rejected(self, doc):
        # No cocircuit is zero; such a row would give a rank-0 document the
        # chirotope error of rank 1 or 2.
        with pytest.raises(SchemaError, match="non-zero sign") as exc:
            parse_om(doc)
        assert exc.value.path == f"$.cocircuits[{len(doc['cocircuits']) - 1}]"

    @pytest.mark.parametrize("ground", [[], ["a"], [2, "b1", "alpha"]])
    def test_rank_zero_round_trips(self, ground):
        matroid = OrientedMatroid.rank_zero(ground)
        parsed = parse_om(render_om(matroid))
        assert parsed == matroid and not parsed.rows
        assert parsed.fingerprint() == matroid.fingerprint()

    def test_fingerprint_is_sha256_of_canonical_json(self):
        import hashlib
        matroid = om_of(
            LabeledArrangement(
                [(1, Vector3(1, 0, 0)), (2, Vector3(0, 1, 0)), (3, Vector3(0, 0, 1))]
            )
        )
        canonical = json.dumps(
            {"ground_set": [1, 2, 3], "cocircuits": sorted(matroid.rows)},
            separators=(",", ":"),
        )
        assert matroid.fingerprint() == hashlib.sha256(canonical.encode()).hexdigest()


class TestSubspaceDocuments:
    def test_round_trip(self):
        subspace = Subspace(5, [[1, 0, 0, 2, F(1, 3)], [0, 1, 0, -1, 0], [0, 0, 1, 0, 7]])
        assert parse_subspace(render_subspace(subspace)) == subspace

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            parse_subspace({"ambient": 4})

    def test_row_length_checked(self):
        with pytest.raises(SchemaError):
            parse_subspace({"ambient": 4, "basis": [[1, 0], [0, 1], [0, 0]]})

    def test_vector_family_round_trip(self):
        family = VectorFamily([(1, (1, 0, F(2, 5))), (2, (0, 1, 0)), ("a", (1, 1, 1))])
        assert parse_vector_family(render_vector_family(family)) == family

    def test_vector_family_duplicate_label_carries_path(self):
        with pytest.raises(SchemaError) as exc:
            parse_vector_family([[1, ["1"]], [1, ["2"]]])
        assert exc.value.path == "$[1][0]"


class TestSeedAndFamily:
    def test_seed_round_trip(self):
        seed = default_seed()
        assert parse_seed(render_seed(seed)) == seed

    def test_seed_missing_point(self):
        doc = render_seed(default_seed())
        del doc["nu"]
        with pytest.raises(SchemaError):
            parse_seed(doc)

    def test_family_round_trip(self):
        family = build(default_seed(), 3)
        assert parse_family(render_family(family)) == family

    @pytest.mark.parametrize("built, depth, rename", [
        pytest.param(0, 2, {}, id="seed-points-at-depth-2"),
        pytest.param(2, 0, {}, id="depth-2-points-at-depth-0"),
        pytest.param(1, 1, {"c1": "c2"}, id="foreign-label"),
    ])
    def test_family_points_must_match_depth(self, built, depth, rename):
        doc = render_family(build(default_seed(), built))
        doc["depth"] = depth
        doc["points"] = [[rename.get(label, label), point] for label, point in doc["points"]]
        with pytest.raises(SchemaError) as exc:
            parse_family(doc)
        assert exc.value.path == "$.points"
        assert f"depth {depth}" in str(exc.value)

    def test_seed_digest_is_stable(self):
        assert seed_digest(default_seed()) == seed_digest(default_seed())


class TestReports:
    def test_document_round_trip(self):
        report = certificate(default_seed(), 2, [1, 2])
        document = render_report(report)
        text = document_to_json(document)
        assert document_from_json(text) == document
        assert document_from_json(text).report == report

    def test_rendering_is_deterministic(self):
        report = certificate(default_seed(), 2, [1, 2])
        assert document_to_json(render_report(report)) == document_to_json(
            render_report(report)
        )

    def test_pass_flag_present(self):
        report = certificate(default_seed(), 1, [1])
        doc = json.loads(document_to_json(render_report(report)))
        assert doc["report"]["pass"] is True
        assert doc["tool"]["name"] == "omstrata"

    def test_no_floats_anywhere(self):
        report = certificate(default_seed(), 2, [1, 2])
        doc = json.loads(document_to_json(render_report(report)))

        def walk(value):
            assert not isinstance(value, float), f"float leaked: {value}"
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(k)
                    walk(v)
            elif isinstance(value, list):
                for v in value:
                    walk(v)

        walk(doc)

    def test_failing_check_named_in_summary(self):
        from test_construction import WALL_SEED
        report = certificate(WALL_SEED, 5, [1, 2])
        document = render_report(report)
        lines = [l for l in document.summary if "FAIL" in l]
        assert lines[0] == "check limits_equal: FAIL"
        assert document.summary[-1] == "overall: FAIL"
        assert json.loads(document_to_json(document))["pass"] is False

    def test_tampered_pass_flag_rejected(self):
        report = certificate(default_seed(), 1, [1])
        doc = json.loads(document_to_json(render_report(report)))
        doc["pass"] = False
        with pytest.raises(SchemaError):
            document_from_json(json.dumps(doc))


def _report_json(depth: int = 1) -> dict:
    return json.loads(document_to_json(render_report(certificate(default_seed(), depth, [1, 2]))))


def _drop_record_level(doc):
    del doc["report"]["records"][0]["i"]


def _drop_check(doc):
    del doc["report"]["checks"]["weak_maps"]


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def mutate(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


class TestReportSchemaErrors:
    """``document_from_json`` raises SchemaError at the offending JSON path
    for every departure from omstrata/schemas/report.v1.schema.json."""

    @pytest.mark.parametrize(
        "mutate, path",
        [
            pytest.param(_drop_record_level, "$.report.records[0]", id="record-without-i"),
            pytest.param(_drop_check, "$.report.checks", id="checks-without-name"),
            pytest.param(_set("report", "records", 0, "degeneration_ok", 5),
                         "$.report.records[0].degeneration_ok", id="degeneration-ok-integer"),
            pytest.param(_set("report", "records", 0, "degeneration_ok", [[1, 5]]),
                         "$.report.records[0].degeneration_ok[0][1]", id="degeneration-verdict-integer"),
            pytest.param(_set("report", "records", 0, "degeneration_ok", [[1]]),
                         "$.report.records[0].degeneration_ok[0]", id="degeneration-entry-short"),
            pytest.param(_set("input_digests", ["seed"]), "$.input_digests", id="input-digests-list"),
            pytest.param(_set("input_digests", "seed", "abc"), "$.input_digests.seed",
                         id="input-digest-not-hex"),
            pytest.param(_set("input_digests", {}), "$.input_digests", id="input-digests-without-seed"),
            pytest.param(_set("report", "depth", "two"), "$.report.depth", id="depth-string"),
            pytest.param(_set("report", "depth", 0), "$.report.depth", id="depth-zero"),
            pytest.param(_set("report", "samples", [1, True]), "$.report.samples[1]",
                         id="sample-boolean"),
            pytest.param(_set("report", "records", 0, "i", 0), "$.report.records[0].i", id="level-zero"),
            pytest.param(_set("report", "records", 0, "mi_fingerprint", 7),
                         "$.report.records[0].mi_fingerprint", id="mi-fingerprint-integer"),
            pytest.param(_set("report", "limit_fingerprint", "F" * 64), "$.report.limit_fingerprint",
                         id="limit-fingerprint-uppercase"),
            pytest.param(_set("report", "records", 0, "weak_map_ok", 1),
                         "$.report.records[0].weak_map_ok", id="weak-map-ok-integer"),
            pytest.param(_set("report", "checks", "separation", "yes"), "$.report.checks.separation",
                         id="check-string"),
            pytest.param(_set("report", "pass", 1), "$.report.pass", id="report-pass-integer"),
            pytest.param(_set("pass", "true"), "$.pass", id="pass-string"),
            pytest.param(_set("tool", {"name": "omstrata"}), "$.tool", id="tool-without-version"),
            pytest.param(_set("tool", "version", 1), "$.tool.version", id="tool-version-integer"),
            pytest.param(_set("summary", ["ok", None]), "$.summary[1]", id="summary-null-line"),
            pytest.param(_set("extra", 1), "$", id="unknown-top-level-field"),
        ],
    )
    def test_offending_path_is_named(self, mutate, path):
        doc = _report_json()
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            document_from_json(json.dumps(doc))
        assert exc.value.path == path

    def test_text_that_is_not_json(self):
        with pytest.raises(SchemaError) as exc:
            document_from_json("{not json")
        assert exc.value.path == "$"

    def test_text_nested_too_deeply(self):
        with pytest.raises(SchemaError) as exc:
            document_from_json("[" * 100_000 + "]" * 100_000)
        assert exc.value.path == "$"

    def test_value_nested_too_deeply_to_check(self):
        # a nesting that the schema check cannot recurse through, in a
        # field that the report schema allows: a SchemaError at the
        # document's path, not a RecursionError
        doc = _report_json()
        deep: list = []
        for _ in range(sys.getrecursionlimit()):
            deep = [deep]
        doc["tool"]["x"] = deep
        with pytest.raises(SchemaError) as exc:
            _validate(doc, "report.v1.schema.json", "$")
        assert exc.value.path == "$"
        assert str(exc.value) == "$: nested too deeply to check"

    def test_untouched_document_parses(self):
        doc = _report_json()
        assert document_from_json(json.dumps(doc)).report.depth == 1


def _relevel(doc):
    for record, i in zip(doc["report"]["records"], (7, 9)):
        record["i"] = i


def _fail_both_pass_flags(doc):
    doc["pass"] = doc["report"]["pass"] = False


def _resample(*samples):
    """Set the report's samples and every record's verdicts to match."""

    def mutate(doc):
        doc["report"]["samples"] = list(samples)
        for record in doc["report"]["records"]:
            record["degeneration_ok"] = [[n, True] for n in samples]

    return mutate


class TestReportContradictions:
    """``document_from_json`` rejects a report whose verdicts, summary or
    seed digest contradict its own evidence, at the path of the
    contradiction; every edit here passes the schema."""

    @pytest.mark.parametrize(
        "mutate, path",
        [
            pytest.param(_set("report", "checks", "weak_maps", False), "$.report.pass",
                         id="pass-over-a-failed-check"),
            pytest.param(_set("report", "records", 1, "weak_map_ok", False),
                         "$.report.checks.weak_maps", id="weak-maps-over-a-failed-record"),
            pytest.param(_set("report", "records", 1, "limit_fingerprint", "0" * 64),
                         "$.report.checks.limits_equal", id="limits-equal-over-two-limits"),
            pytest.param(_set("report", "depth", 5), "$.report.records", id="depth-5-with-2-records"),
            pytest.param(_relevel, "$.report.records[0].i", id="levels-7-and-9"),
            pytest.param(_set("report", "records", 0, "degeneration_ok", [[3, True]]),
                         "$.report.records[0].degeneration_ok", id="record-samples-3"),
            pytest.param(_resample(), "$.report.samples", id="no-samples"),
            pytest.param(_resample(1, 1), "$.report.samples", id="repeated-sample"),
            pytest.param(_fail_both_pass_flags, "$.report.pass", id="fail-over-passing-checks"),
            pytest.param(_set("summary", -1, "overall: FAIL"), "$.summary", id="summary-ends-fail"),
            pytest.param(_set("input_digests", "seed", "0" * 64), "$.input_digests.seed",
                         id="zero-seed-digest"),
        ],
    )
    def test_contradiction_is_named(self, mutate, path):
        doc = _report_json(2)
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            document_from_json(json.dumps(doc))
        assert exc.value.path == path

    def test_limit_fingerprint_other_than_the_first_records(self):
        # every record keeps its limit, so limits_equal still holds
        doc = _report_json(2)
        doc["report"]["limit_fingerprint"] = "0" * 64
        with pytest.raises(SchemaError, match="is not the first level's limit fingerprint$") as exc:
            document_from_json(json.dumps(doc))
        assert exc.value.path == "$.report.limit_fingerprint"

    def test_consistent_reports_parse(self):
        from test_construction import WALL_SEED
        flagship = (Path(__file__).parent / "fixtures" / "flagship_report.json").read_text(encoding="utf-8")
        rendered = [document_to_json(render_report(certificate(seed, depth)))
                    for seed, depth in ((WALL_SEED, 5), (default_seed(), 2), (default_seed(), 20))]
        for text in [flagship] + rendered:
            assert document_to_json(document_from_json(text)) == text


class TestShippedSchemas:
    """The rendered documents conform to the schema files in omstrata/schemas/."""

    @staticmethod
    def _validator(name):
        jsonschema = pytest.importorskip("jsonschema")
        from referencing import Registry, Resource

        schema_dir = SCHEMA_DIR
        registry = Registry()
        for path in schema_dir.glob("*.schema.json"):
            resource = Resource.from_contents(json.loads(path.read_text(encoding="utf-8")))
            registry = registry.with_resource(path.name, resource)
            registry = registry.with_resource(resource.contents["$id"], resource)
        schema = json.loads((schema_dir / name).read_text(encoding="utf-8"))
        return jsonschema.Draft202012Validator(schema, registry=registry)

    def test_seed_document(self):
        self._validator("seed.v1.schema.json").validate(render_seed(default_seed()))

    def test_arrangement_document(self):
        arrangement = build(default_seed(), 1).arrangement()
        self._validator("arrangement.v1.schema.json").validate(
            render_arrangement(arrangement)
        )

    def test_family_document(self):
        self._validator("family.v1.schema.json").validate(
            render_family(build(default_seed(), 2))
        )

    def test_subspace_document(self):
        subspace = Subspace(4, [[1, 0, 0, 2], [0, 1, 0, -1], [0, 0, 1, 0]])
        self._validator("subspace.v1.schema.json").validate(render_subspace(subspace))

    def test_om_document(self):
        matroid = om_of(build(default_seed(), 0).arrangement())
        self._validator("oriented-matroid.v1.schema.json").validate(render_om(matroid))

    def test_report_document(self):
        report = certificate(default_seed(), 2, [1, 2])
        doc = json.loads(document_to_json(render_report(report)))
        self._validator("report.v1.schema.json").validate(doc)

    def test_vector_family_document(self):
        family = VectorFamily([(1, (1, 0, F(2, 5))), (2, (0, 1, 0)), ("a", (1, 1, 1))])
        self._validator("vector-family.v1.schema.json").validate(render_vector_family(family))

    def test_schemas_ship_with_the_package(self, tmp_path):
        # Build an sdist from a copy of the project: every schema file is in it.
        root = Path(__file__).parent.parent
        if not (root / "pyproject.toml").is_file():
            pytest.skip("not run from a source checkout")
        (tmp_path / "pyproject.toml").write_bytes((root / "pyproject.toml").read_bytes())
        package = root / "src" / "omstrata"
        (tmp_path / "src" / "omstrata" / "schemas").mkdir(parents=True)
        for path in [*package.glob("*.py"), *package.glob("schemas/*.json")]:
            (tmp_path / path.relative_to(root)).write_bytes(path.read_bytes())
        build = "from setuptools import build_meta; print(build_meta.build_sdist('dist'))"
        done = subprocess.run([sys.executable, "-c", build], cwd=tmp_path, capture_output=True,
                              text=True, encoding="utf-8", timeout=120, check=True)
        with tarfile.open(tmp_path / "dist" / done.stdout.split()[-1]) as sdist:
            shipped = {Path(name).name for name in sdist.getnames() if "/schemas/" in name}
        assert shipped == {path.name for path in SCHEMA_DIR.glob("*.schema.json")}
        assert len(shipped) == 8


def _documents() -> dict:
    """One valid document of each type, keyed by kind: its schema file, its
    parser and the document."""
    arrangement = build(default_seed(), 1).arrangement()
    subspace = Subspace(4, [[1, 0, 0, 2], [0, 1, 0, -1], [0, 0, 1, 0]])
    family = VectorFamily([(1, (1, 0, F(2, 5))), (2, (0, 1, 0)), ("a", (1, 1, 1))])
    return {
        "seed": ("seed.v1.schema.json", parse_seed, render_seed(default_seed())),
        "om": ("oriented-matroid.v1.schema.json", parse_om, render_om(om_of(arrangement))),
        "family": ("family.v1.schema.json", parse_family, render_family(build(default_seed(), 1))),
        "subspace": ("subspace.v1.schema.json", parse_subspace, render_subspace(subspace)),
        "arrangement": ("arrangement.v1.schema.json", parse_arrangement,
                        render_arrangement(arrangement)),
        "vector-family": ("vector-family.v1.schema.json", parse_vector_family,
                          render_vector_family(family)),
        "report": ("report.v1.schema.json", lambda doc: document_from_json(json.dumps(doc)),
                   _report_json()),
    }


_REPORT_EXTRAS = [("tool",), ("report",), ("report", "records", 0)]


class TestUnknownFields:
    @pytest.mark.parametrize("kind", ["seed", "om", "family", "subspace"])
    def test_unknown_field_is_named_at_the_root(self, kind):
        _, parse, doc = _documents()[kind]
        doc["zeta"] = 1
        with pytest.raises(SchemaError) as exc:
            parse(doc)
        assert exc.value.path == "$"
        assert "'zeta'" in str(exc.value)

    @pytest.mark.parametrize("keys", _REPORT_EXTRAS, ids=lambda keys: ".".join(map(str, keys)))
    def test_extras_the_report_schema_allows(self, keys):
        doc = _report_json()
        _set(*keys, "x", 1)(doc)
        assert document_from_json(json.dumps(doc)) == document_from_json(json.dumps(_report_json()))

    def test_float_is_no_integer(self):
        # The one departure from Draft 2020-12: documents hold no floats.
        doc = render_family(build(default_seed(), 1))
        doc["depth"] = 1.0
        with pytest.raises(SchemaError) as exc:
            parse_family(doc)
        assert exc.value.path == "$.depth"
        assert TestShippedSchemas._validator("family.v1.schema.json").is_valid(doc)


class TestAgainstReferenceValidator:
    """The parsers reject a document exactly when jsonschema's Draft 2020-12
    validator rejects it against the same shipped schema file."""

    def test_verdicts_agree(self):
        (mark,) = TestReportSchemaErrors.test_offending_path_is_named.pytestmark
        cases = [("report", param.values[0]) for param in mark.args[1]]
        cases += [("report", _set(*keys, "x", 1)) for keys in _REPORT_EXTRAS]
        cases += [(kind, _set("zeta", 1)) for kind in ("seed", "om", "family", "subspace")]
        cases += [
            ("arrangement", _set(0, 1, 2, 2.5)),
            ("arrangement", _set(0, 0, "zeta9")),
            ("arrangement", lambda doc: doc[0].append(["1", "0", "1"])),
        ]
        documents = _documents()
        cases += [(kind, lambda doc: None) for kind in documents]
        verdicts = []
        for kind, mutate in cases:
            schema, parse, doc = documents[kind]
            doc = copy.deepcopy(doc)
            mutate(doc)
            try:
                parse(doc)
                rejected = False
            except SchemaError:
                rejected = True
            reference = not TestShippedSchemas._validator(schema).is_valid(doc)
            verdicts.append((kind, rejected, reference))
        assert [v for v in verdicts if v[1] != v[2]] == []
        assert sum(rejected for _, rejected, _ in verdicts) == 22 + 4 + 3

    @pytest.mark.parametrize(
        "kind, mutate, path",
        [
            pytest.param("arrangement", _set(0, 0, "b1\n"), "$[0][0]", id="label"),
            pytest.param("arrangement", _set(0, 1, 0, "1\n"), "$[0][1][0]", id="rational"),
            pytest.param("report", _set("input_digests", "seed", "0" * 64 + "\n"),
                         "$.input_digests.seed", id="input-digest"),
            pytest.param("report", _set("report", "records", 0, "mi_fingerprint", "0" * 64 + "\n"),
                         "$.report.records[0].mi_fingerprint", id="fingerprint"),
        ],
    )
    def test_final_newline_departure(self, kind, mutate, path):
        """The second recorded departure, after the float one
        (``test_float_is_no_integer``): a pattern's ``$`` is the end of the
        string, as in ECMA-262, the draft's regex dialect.  jsonschema
        matches with ``re.search``, whose ``$`` also matches before a final
        newline, so it accepts these documents."""
        schema, parse, doc = _documents()[kind]
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            parse(doc)
        assert exc.value.path == path
        assert TestShippedSchemas._validator(schema).is_valid(doc)


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            children = list(value.values())
        elif key in ("oneOf", "prefixItems"):
            children = value
        elif key == "items" or key == "additionalProperties" and value is not False:
            children = [value]
        else:
            children = []
        for child in children:
            yield from _subschemas(child)


class TestValidatorCoversSchemas:
    IMPLEMENTED = {"$ref", "oneOf", "type", "enum", "pattern", "minimum", "required", "properties",
                   "additionalProperties", "items", "prefixItems", "minItems", "maxItems"}
    ANNOTATIONS = {"$schema", "$id", "title", "description", "$defs"}
    TYPES = {"array", "object", "string", "boolean", "integer"}

    @pytest.mark.parametrize("name", sorted(p.name for p in SCHEMA_DIR.glob("*.schema.json")))
    def test_only_implemented_keywords(self, name):
        for schema in _subschemas(json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))):
            assert isinstance(schema, dict), f"{name}: boolean schema {schema}"
            assert set(schema) <= self.IMPLEMENTED | self.ANNOTATIONS, name
            assert schema.get("type", "object") in self.TYPES, name

    def test_conforms_agrees_with_check(self):
        # ``_conforms`` rejects an option of another JSON type before it
        # checks; the full check, run inside ``try``, is the reference.
        values = ["1/2", "-3", "b3", "alpha", "x", "", 0, 7, -2, True, False, None,
                  [], ["1", "2"], {}, {"x": 1}, 1.0, 2.5]
        options = [(option, path.name) for path in sorted(SCHEMA_DIR.glob("*.schema.json"))
                   for schema in _subschemas(json.loads(path.read_text(encoding="utf-8")))
                   for option in schema.get("oneOf", ())]
        assert options
        for option, base in options:
            for value in values:
                try:
                    _check(value, option, "$", base)
                    accepted = True
                except SchemaError:
                    accepted = False
                assert _conforms(value, option, base) == accepted, (option, value)


# Any Unicode string, surrogates and control characters included.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(1 << 200), 1 << 200) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=40,
)


def _indented(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=True) + "\n"


class _Text(str):
    pass


class TestDumpJson:
    """``dump_json`` writes the bytes of ``json.dumps(value, indent=2,
    ensure_ascii=True)`` plus a newline, and accepts only what documents
    hold."""

    @given(_JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_nested_values_match_json(self, value):
        assert dump_json(value) == _indented(value)

    @pytest.mark.parametrize("kind", ["seed", "om", "family", "subspace", "arrangement",
                                      "vector-family", "report"])
    def test_every_document_kind_matches_json(self, kind):
        doc = _documents()[kind][2]
        assert dump_json(doc) == _indented(doc)

    def test_written_documents_match_json(self):
        # What the CLI writes: a depth-150 family, an oriented matroid with
        # integer labels and reports with failing and passing checks.
        family = render_family(build(default_seed(), 150))
        assert dump_json(family) == _indented(family)
        arrangement = LabeledArrangement([(2, Vector3(1, 0, 0)), (7, Vector3(0, 1, 0)),
                                          (9, Vector3(0, 0, 1)), (12, Vector3(1, 1, 0))])
        om = render_om(om_of(arrangement))
        assert dump_json(om) == _indented(om)
        for report in (certificate(default_seed(), 6), certificate(default_seed(), 2, [3, 1])):
            text = document_to_json(render_report(report))
            assert text == _indented(json.loads(text))

    @pytest.mark.parametrize("value", [
        (1, 2), 1.5, F(1, 2), {1: "a"}, {("a",): 1}, {"a": {1, 2}}, [b"x"], ["a", 2.0],
        {"a": [None, (1,)]}, _Text("a"), [_Text("a")], {_Text("a"): 1},
    ], ids=repr)
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            dump_json(value)
