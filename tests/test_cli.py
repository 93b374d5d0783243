import json
import re
from pathlib import Path

import pytest

import omstrata
from omstrata import LabeledArrangement, Vector3, build, default_seed
from omstrata.cli import PERTURB_ADVICE, _build_parser, main
from omstrata.construction import DEFAULT_SAMPLES
from omstrata.serialization import render_arrangement, render_seed


@pytest.fixture
def seed_file(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(render_seed(default_seed())))
    return path


def arrangement_file(tmp_path, name, depth):
    arrangement = build(default_seed(), depth).arrangement()
    path = tmp_path / name
    path.write_text(json.dumps(render_arrangement(arrangement)))
    return path


class TestSeedValidate:
    def test_default_seed(self, capsys):
        assert main(["seed", "validate"]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_seed_file(self, seed_file, capsys):
        assert main(["seed", "validate", "--file", str(seed_file)]) == 0

    def test_invalid_seed(self, tmp_path, capsys):
        doc = render_seed(default_seed())
        doc["omega"] = ["2", "0"]
        path = tmp_path / "bad_seed.json"
        path.write_text(json.dumps(doc))
        assert main(["seed", "validate", "--file", str(path)]) == 2
        assert "invalid (apex)" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["seed", "validate", "--file", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["seed", "validate", "--file", "/nonexistent/seed.json"]) == 1


class TestBuild:
    def test_writes_family(self, tmp_path, capsys):
        out = tmp_path / "family.json"
        assert main(["build", "--depth", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["depth"] == 2
        assert len(doc["points"]) == 13

    def test_stdout(self, capsys):
        assert main(["build", "--depth", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["depth"] == 0

    def test_negative_depth(self, capsys):
        assert main(["build", "--depth", "-2"]) == 1
        assert capsys.readouterr().out == ""


class TestOmCommands:
    def test_om_of(self, tmp_path, capsys):
        arr = arrangement_file(tmp_path, "arr.json", 0)
        assert main(["om", "of", "--in", str(arr)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ground_set"][0] == "alpha"
        assert all(set(s) <= set("+-0") for s in doc["cocircuits"])

    def test_om_of_to_file_prints_fingerprint(self, tmp_path, capsys):
        arr = arrangement_file(tmp_path, "arr.json", 0)
        out = tmp_path / "om.json"
        assert main(["om", "of", "--in", str(arr), "--out", str(out)]) == 0
        assert "fingerprint: bad328f1" in capsys.readouterr().out

    def test_om_equal_arrangements(self, tmp_path, capsys):
        a = arrangement_file(tmp_path, "a.json", 1)
        b = arrangement_file(tmp_path, "b.json", 1)
        assert main(["om", "equal", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_om_equal_mixed_documents(self, tmp_path, capsys):
        arr = arrangement_file(tmp_path, "a.json", 0)
        om_file = tmp_path / "om.json"
        assert main(["om", "of", "--in", str(arr), "--out", str(om_file)]) == 0
        capsys.readouterr()
        assert main(["om", "equal", str(arr), str(om_file)]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_om_strong_map(self, tmp_path, capsys):
        a = arrangement_file(tmp_path, "a.json", 0)
        assert main(["om", "strong-map", str(a), str(a)]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_om_weak_map(self, tmp_path, capsys):
        a = arrangement_file(tmp_path, "a.json", 0)
        assert main(["om", "weak-map", str(a), str(a)]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_om_weak_map_om_documents_match_arrangements(self, tmp_path, capsys):
        # the fourth vector slides onto the plane of the first two: one basis
        # sign dies, so there is a weak map one way only
        files = {}
        for name, fourth in (("generic", (1, 1, 1)), ("degenerate", (1, 1, 0))):
            vectors = [(1, 0, 0), (0, 1, 0), (0, 0, 1), fourth]
            arr = tmp_path / f"{name}.json"
            arr.write_text(json.dumps(render_arrangement(LabeledArrangement(
                (label, Vector3(*v)) for label, v in enumerate(vectors, 1)))))
            om_file = tmp_path / f"{name}.om.json"
            assert main(["om", "of", "--in", str(arr), "--out", str(om_file)]) == 0
            files[name] = (arr, om_file)
        capsys.readouterr()
        for a, b, expected in (("generic", "degenerate", "true"),
                               ("degenerate", "generic", "false")):
            for kind in (0, 1):
                assert main(["om", "weak-map", str(files[a][kind]), str(files[b][kind])]) == 0
                assert capsys.readouterr().out.strip() == expected

    def test_cocircuits_not_closed_under_negation_are_input_error(self, tmp_path, capsys):
        arr = arrangement_file(tmp_path, "a.json", 0)
        om_file = tmp_path / "om.json"
        assert main(["om", "of", "--in", str(arr), "--out", str(om_file)]) == 0
        doc = json.loads(om_file.read_text())
        doc["cocircuits"] = [cc for cc in doc["cocircuits"] if cc.lstrip("0")[0] == "+"]
        om_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["om", "equal", str(om_file), str(om_file)]) == 1
        assert "negation" in capsys.readouterr().err

    def test_unknown_field_is_input_error(self, tmp_path, capsys):
        arr = arrangement_file(tmp_path, "a.json", 0)
        om_file = tmp_path / "om.json"
        assert main(["om", "of", "--in", str(arr), "--out", str(om_file)]) == 0
        doc = json.loads(om_file.read_text())
        doc["zeta"] = 1
        om_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["om", "equal", str(om_file), str(arr)]) == 1
        assert "unknown field 'zeta'" in capsys.readouterr().err

    def test_ground_set_mismatch_is_input_error(self, tmp_path, capsys):
        a = arrangement_file(tmp_path, "a.json", 0)
        b = arrangement_file(tmp_path, "b.json", 1)
        assert main(["om", "equal", str(a), str(b)]) == 1


class TestMu:
    def test_coordinate_plane(self, tmp_path, capsys):
        path = tmp_path / "subspace.json"
        path.write_text(json.dumps({
            "ambient": 4,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
        }))
        assert main(["mu", "--subspace", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ground_set"] == [1, 2, 3, 4]

    def test_rank_deficient_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "subspace.json"
        path.write_text(json.dumps({
            "ambient": 4,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["1", "1", "0", "0"]],
        }))
        assert main(["mu", "--subspace", str(path)]) == 1


class TestCertificate:
    def test_pass_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        figs = tmp_path / "figs"
        code = main([
            "certificate", "--depth", "2", "--samples", "1,2",
            "--out", str(out), "--svg-dir", str(figs),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["pass"] is True
        assert sorted(p.name for p in figs.iterdir()) == ["A0.svg", "A1.svg", "A2.svg"]
        assert "overall: PASS" in capsys.readouterr().out

    def test_rejected_seed(self, tmp_path, capsys):
        doc = render_seed(default_seed())
        doc["gamma"] = ["4", "1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["certificate", "--depth", "2", "--seed", str(path)]) == 2
        assert "seed rejected" in capsys.readouterr().err

    def test_degenerate_step_rejects_the_seed(self, tmp_path, capsys):
        # validate_seed accepts a = (21/5, 1), but level 1 has parallel lines
        doc = render_seed(default_seed())
        doc["a"] = ["21/5", "1"]
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["certificate", "--depth", "3", "--seed", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "seed rejected" in err and "construction" in err
        assert PERTURB_ADVICE in err
        assert not out.exists()

    def test_unknown_seed_field(self, tmp_path, capsys):
        doc = render_seed(default_seed())
        doc["zeta"] = ["1", "2"]
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["certificate", "--depth", "1", "--seed", str(path), "--out", str(out)]) == 1
        assert "unknown field 'zeta'" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_certificate_still_writes_report(self, tmp_path, capsys):
        doc = render_seed(default_seed())
        doc["nu"] = ["3", "2"]
        seed_path = tmp_path / "wall.json"
        seed_path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main([
            "certificate", "--depth", "5", "--samples", "1,2",
            "--seed", str(seed_path), "--out", str(out),
        ])
        assert code == 2
        assert json.loads(out.read_text())["report"]["pass"] is False

    def test_bad_samples(self, capsys):
        assert main(["certificate", "--depth", "1", "--samples", "1,x"]) == 1

    @pytest.mark.parametrize("samples", ["1,,2", "1,", ",1", " , "])
    def test_empty_sample_item(self, samples, capsys):
        assert main(["certificate", "--depth", "1", "--samples", samples]) == 1
        assert "samples" in capsys.readouterr().err

    def test_samples_with_spaces(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["certificate", "--depth", "1", "--samples", " 1 , 2 ", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["samples"] == [1, 2]

    def test_default_samples_are_the_library_default(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["certificate", "--depth", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["samples"] == list(DEFAULT_SAMPLES)

    def test_empty_samples(self, capsys):
        assert main(["certificate", "--depth", "1", "--samples", ","]) == 1
        assert "samples" in capsys.readouterr().err

    def test_depth_above_bound(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["certificate", "--depth", "81", "--out", str(out)]) == 1
        assert "depth" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_samples(self, capsys):
        assert main(["certificate", "--depth", "1", "--samples", "2,2"]) == 1
        assert "samples" in capsys.readouterr().err


class TestUnwritableOutput:
    """An output that cannot be written is an error line and exit 1."""

    @pytest.mark.parametrize("command", ["build", "om of", "mu", "certificate"])
    def test_out_in_missing_directory(self, command, tmp_path, capsys):
        subspace = tmp_path / "subspace.json"
        subspace.write_text(json.dumps({
            "ambient": 4,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
        }))
        args = {
            "build": ["build", "--depth", "1"],
            "om of": ["om", "of", "--in", str(arrangement_file(tmp_path, "arr.json", 0))],
            "mu": ["mu", "--subspace", str(subspace)],
            "certificate": ["certificate", "--depth", "1"],
        }[command]
        out = tmp_path / "missing" / "out.json"
        assert main(args + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == ""
        assert not out.parent.exists()

    def test_svg_dir_naming_a_file(self, tmp_path, capsys):
        taken = tmp_path / "figs"
        taken.write_text("not a directory")
        out = tmp_path / "report.json"
        assert main(["certificate", "--depth", "1", "--out", str(out), "--svg-dir", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert taken.read_text() == "not a directory"


class TestParserReuse:
    """The parser is built once per process; every call parses afresh."""

    def test_successive_calls_answer_independently(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["certificate", "--depth", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["depth"] == 1
        capsys.readouterr()
        assert main(["build", "--depth", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["depth"] == 1
        basis = tmp_path / "basis.json"
        degenerate = tmp_path / "degenerate.json"
        for path, last in ((basis, Vector3(1, 1, 1)), (degenerate, Vector3(1, 1, 0))):
            arrangement = LabeledArrangement(
                [(1, Vector3(1, 0, 0)), (2, Vector3(0, 1, 0)), (3, Vector3(0, 0, 1)), (4, last)]
            )
            path.write_text(json.dumps(render_arrangement(arrangement)))
        assert main(["om", "equal", str(basis), str(basis)]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["om", "equal", str(basis), str(degenerate)]) == 0
        assert capsys.readouterr().out.strip() == "false"
        assert _build_parser() is _build_parser()

    def test_version_exits_zero(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("omstrata ")


class TestVersion:
    def test_pyproject_version_is_the_package_version(self):
        # The report's tool.version is read from _version.py, and
        # pyproject.toml holds a second copy.  It is read with a regex, as
        # Python 3.10 has no tomllib.
        text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        versions = re.findall(r'^version = "([^"]*)"$', project, re.MULTILINE)
        assert versions == [omstrata.__version__]
