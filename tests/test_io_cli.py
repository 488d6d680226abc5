import json
import os
import pathlib
import random

import pytest

from homlong import fixtures as fx
from homlong import io as hio
from homlong.cli import REQUIRED, main
from homlong.io import FileFormatError
from homlong.linalg import Matrix, scalar, scalar_to_json
from homlong.longdimod import canonical_dimodule
from homlong.longeq import HAlphaLongDimodule, OperatorOnTensorSquare
from test_oracles import flip_matrix


@pytest.fixture()
def files(tmp_path):
    kz2 = fx.kz2()
    obj = hio.algebra_to_json(kz2)
    obj["R"] = hio.matrix_json(fx.kz2_rmatrix())
    obj["form"] = hio.matrix_json(fx.kz2_form())
    hio.dump_json(obj, tmp_path / "kz2.json")
    hio.dump_json({"kind": "context", "H": "kz2.json", "B": "kz2.json"},
                  tmp_path / "ctx.json")
    hio.save_structure(fx.sign_dimodule(), tmp_path / "sign.json")
    hio.save_structure(fx.standard_dimodules()["trivial"], tmp_path / "trivial.json")
    hio.save_structure(canonical_dimodule(kz2, kz2), tmp_path / "canonical.json")
    hio.save_structure(fx.kz4(), tmp_path / "kz4.json")
    hio.dump_json({"matrix": hio.matrix_json(fx.kz4_twist_map())}, tmp_path / "phi.json")
    hio.save_structure(OperatorOnTensorSquare(2, flip_matrix(2, 2),
                                              Matrix.diagonal([1, 2])),
                       tmp_path / "flipop.json")
    hio.dump_json({"mu": hio.matrix_json(Matrix.identity(2))}, tmp_path / "id2.json")
    sd = fx.sign_dimodule()
    hio.save_structure(HAlphaLongDimodule(kz2, 1, sd.action, sd.coaction, sd.mu,
                                          sd.basis), tmp_path / "halpha.json")
    bad = dict(obj)
    bad["gamma"] = [[1, 0], [0, 0]]
    bad.pop("R")
    bad.pop("form")
    hio.dump_json(bad, tmp_path / "broken.json")
    return tmp_path


def p(files, name):
    return str(files / name)


# ---------------------------------------------------------------------------
# io round trips

def test_structure_round_trips(tmp_path, kz2, kz4t):
    subjects = [
        kz2, kz4t, fx.sweedler_twisted(), kz2.algebra, kz2.coalgebra,
        fx.sign_module(), fx.sign_comodule(),
        fx.sign_dimodule(), canonical_dimodule(kz2, kz2),
        OperatorOnTensorSquare(2, flip_matrix(2, 2), Matrix.diagonal([1, 2])),
    ]
    for i, s in enumerate(subjects):
        path = tmp_path / ("s%d.json" % i)
        hio.save_structure(s, path)
        loaded = hio.load_structure(str(path))
        if hasattr(s, "action") and hasattr(s, "coaction"):
            assert loaded.action == s.action and loaded.coaction == s.coaction
        elif hasattr(s, "matrix"):
            assert loaded.matrix == s.matrix and loaded.structure_map == s.structure_map
        else:
            assert loaded == s


def test_scalar_strings_round_trip(tmp_path):
    m = Matrix([["1/3", "-2/7"], [0, 5]])
    hio.dump_json({"kind": "operator", "n": 1, "mu": [[1]],
                   "matrix": [["1/3"]]}, tmp_path / "op.json")
    op = hio.load_structure(str(tmp_path / "op.json"))
    from fractions import Fraction
    assert op.matrix[0, 0] == Fraction(1, 3)
    assert hio.matrix_json(m)[0][0] == "1/3"
    assert hio.matrix_json(m)[1][1] == 5


def test_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FileFormatError):
        hio.load_structure(str(bad))
    bad2 = tmp_path / "bad2.json"
    hio.dump_json({"kind": "mystery"}, bad2)
    with pytest.raises(FileFormatError):
        hio.load_structure(str(bad2))
    bad3 = tmp_path / "bad3.json"
    hio.dump_json({"kind": "hom-algebra", "dim": 2, "mult": [[[1]]], "unit": [1, 0]}, bad3)
    with pytest.raises(FileFormatError):
        hio.load_structure(str(bad3))


def test_context_inline_and_r_from_file(files):
    ctx = hio.load_context(p(files, "ctx.json"))
    assert ctx.valid and ctx.triangular and ctx.cotriangular


# ---------------------------------------------------------------------------
# CLI

def test_validate_exit_codes(files, capsys):
    assert main(["validate", p(files, "kz2.json")]) == 0
    out = capsys.readouterr().out
    assert "triangular" in out and "result: ok" in out
    assert main(["validate", p(files, "broken.json")]) == 1
    out = capsys.readouterr().out
    assert "witness" in out
    assert main(["validate", p(files, "nosuch.json")]) == 2


def test_check_commands(files, capsys):
    base = ["check", "ybe", "--ctx", p(files, "ctx.json"),
            "-U", p(files, "sign.json"), "-V", p(files, "trivial.json"),
            "-W", p(files, "canonical.json")]
    assert main(base) == 0
    assert main(["check", "hexagon", "--ctx", p(files, "ctx.json"),
                 "-U", p(files, "sign.json"), "-V", p(files, "sign.json"),
                 "-W", p(files, "trivial.json")]) == 0
    assert main(["check", "longeq", "-R", p(files, "flipop.json")]) == 1
    out = capsys.readouterr().out
    assert "witness" in out
    assert main(["check", "symmetry", "--ctx", p(files, "ctx.json"),
                 "-M", p(files, "sign.json"), "-N", p(files, "sign.json")]) == 0
    assert main(["check", "snake", "-D", p(files, "canonical.json"),
                 "--side", "right"]) == 0
    assert main(["check", "roundtrip", "-D", p(files, "canonical.json")]) == 0
    assert main(["check", "coherence", "-U", p(files, "sign.json"),
                 "-V", p(files, "trivial.json"), "-W", p(files, "sign.json")]) == 0


def test_roundtrip_over_bialgebras_without_antipode(tmp_path, capsys):
    # the smash-type algebra needs only the algebra structures, so a
    # dimodule over Hom-bialgebras passes the round trip, as it validates
    obj = json.loads((DEMO_FILES / "canonical.json").read_text())
    for side in ("H", "B"):
        del obj[side]["antipode"]
        obj[side]["kind"] = "hom-bialgebra"
    path = str(tmp_path / "bialgebras.json")
    hio.dump_json(obj, path)
    assert main(["--format", "json", "validate", path]) == 0
    capsys.readouterr()
    assert main(["--format", "json", "check", "roundtrip", "-D", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 0 and report["checks"]


def test_check_incompatible_inputs(files, tmp_path, capsys):
    hio.save_structure(fx.trivial_dimodule(fx.kz4_twisted(), fx.kz2()),
                       tmp_path / "other.json")
    code = main(["check", "ybe", "--ctx", p(files, "ctx.json"),
                 "-U", str(tmp_path / "other.json"),
                 "-V", p(files, "sign.json"), "-W", p(files, "sign.json")])
    assert code == 2


def test_build_pipeline(files, capsys):
    out = str(files / "rsol.json")
    assert main(["build", "dimodule-solution", "-D", p(files, "halpha.json"),
                 "-o", out]) == 0
    assert main(["check", "longeq", "-R", out]) == 0
    assert main(["build", "twist", "--base", p(files, "kz4.json"),
                 "--phi", p(files, "phi.json"), "-o", str(files / "kz4h.json")]) == 0
    assert main(["validate", str(files / "kz4h.json")]) == 0
    assert main(["build", "braid", "--ctx", p(files, "ctx.json"),
                 "-M", p(files, "sign.json"), "-N", p(files, "canonical.json"),
                 "-o", str(files / "braid.json")]) == 0
    braid = json.load(open(files / "braid.json"))
    assert braid["kind"] == "braid-operator"
    assert len(braid["rows"]) == 4 and len(braid["cols"]) == 4
    assert main(["build", "dual", "-D", p(files, "sign.json"),
                 "-o", str(files / "dual.json")]) == 0
    assert main(["validate", str(files / "dual.json")]) == 0
    assert main(["build", "tensor", "-M", p(files, "sign.json"),
                 "-N", p(files, "sign.json"), "-o", str(files / "t.json")]) == 0
    assert main(["build", "smash", "-D", p(files, "sign.json"),
                 "-o", str(files / "smash.json")]) == 0
    assert main(["validate", str(files / "smash.json")]) == 0


def test_build_extension(files, tmp_path):
    hio.save_structure(fx.sign_module(), tmp_path / "signmod.json")
    assert main(["build", "extension", "--base", p(files, "kz2.json"),
                 "-M", str(tmp_path / "signmod.json"),
                 "-o", str(tmp_path / "ext.json")]) == 0
    assert main(["validate", str(tmp_path / "ext.json")]) == 0


def test_search_command(files, capsys):
    assert main(["search", "--mu", p(files, "id2.json"), "--set", "0,1",
                 "--shape", "diagonal", "-o", str(files / "sols.json")]) == 0
    out = capsys.readouterr().out
    assert "16 solutions" in out
    sols = json.load(open(files / "sols.json"))
    assert len(sols["solutions"]) == 16
    assert main(["search", "--mu", p(files, "id2.json"), "--set", "",
                 "--shape", "diagonal"]) == 0
    out = capsys.readouterr().out
    assert "0 solutions" in out
    # cap violation reports the cardinality and exits 2
    mu3 = files / "id3.json"
    hio.dump_json({"mu": hio.matrix_json(Matrix.identity(3))}, mu3)
    assert main(["search", "--mu", str(mu3), "--set", "0,1", "--shape", "full"]) == 2


def test_symmetry_diagnose_exit(files, tmp_path, capsys):
    # degenerate form: context invalid, plain call exits 2
    kz2 = fx.kz2()
    obj = hio.algebra_to_json(kz2)
    obj["R"] = hio.matrix_json(fx.kz2_rmatrix())
    obj["form"] = [[1, 1], [1, 0]]
    hio.dump_json(obj, tmp_path / "kz2d.json")
    hio.dump_json({"kind": "context", "H": str(tmp_path / "kz2d.json"),
                   "B": str(tmp_path / "kz2d.json")}, tmp_path / "ctxd.json")
    code = main(["check", "symmetry", "--ctx", str(tmp_path / "ctxd.json"),
                 "-M", p(files, "sign.json"), "-N", p(files, "sign.json"),
                 "--diagnose"])
    assert code == 2


def test_symmetry_diagnose_non_triangular(tmp_path, capsys):
    # valid context whose triangular flag is false: diagnose reports the
    # composite and still exits 2 for the unmet hypothesis
    klein = fx.klein_hopf()
    obj = hio.algebra_to_json(klein)
    obj["R"] = hio.matrix_json(fx.klein_rmatrix())
    obj["form"] = hio.matrix_json(fx.trivial_form(klein))
    hio.dump_json(obj, tmp_path / "klein.json")
    hio.dump_json({"kind": "context", "H": "klein.json", "B": "klein.json"},
                  tmp_path / "ctx4.json")
    from homlong.braidcat import module_as_dimodule
    reg = module_as_dimodule(klein, fx.regular_module(klein), klein)
    hio.save_structure(reg, tmp_path / "reg.json")
    without = main(["check", "symmetry", "--ctx", str(tmp_path / "ctx4.json"),
                    "-M", str(tmp_path / "reg.json"),
                    "-N", str(tmp_path / "reg.json")])
    assert without == 2
    capsys.readouterr()
    code = main(["check", "symmetry", "--ctx", str(tmp_path / "ctx4.json"),
                 "-M", str(tmp_path / "reg.json"),
                 "-N", str(tmp_path / "reg.json"), "--diagnose"])
    out = capsys.readouterr().out
    assert code == 2
    assert "symmetry" in out and "hypothesis" in out


def test_validate_and_check_yd(files, tmp_path, capsys):
    kz2 = fx.kz2()
    from homlong.linalg import Tensor3
    from homlong.repmod import YetterDrinfeldModule
    yd = YetterDrinfeldModule(kz2, 1, Tensor3([[[1]], [[-1]]]),
                              Tensor3([[[0], [1]]]), Matrix.identity(1), ("v",))
    hio.save_structure(yd, tmp_path / "yd.json")
    assert main(["validate", str(tmp_path / "yd.json")]) == 0
    out = capsys.readouterr().out
    # the bundle keeps the Hopf structure, so the reformulation runs too
    assert "HYD-prime" in out and "hyd-consistent" in out
    assert main(["check", "yd", "-M", str(tmp_path / "yd.json")]) == 0


def test_validate_halpha_and_module_files(files, tmp_path):
    kz2 = fx.kz2()
    hio.save_structure(fx.sign_module(), tmp_path / "mod.json")
    assert main(["validate", str(tmp_path / "mod.json")]) == 0
    hio.save_structure(fx.sign_comodule(), tmp_path / "comod.json")
    assert main(["validate", str(tmp_path / "comod.json")]) == 0
    sd = fx.sign_dimodule()
    hio.save_structure(HAlphaLongDimodule(kz2, 1, sd.action, sd.coaction,
                                          sd.mu, sd.basis), tmp_path / "ha.json")
    assert main(["validate", str(tmp_path / "ha.json")]) == 0
    assert main(["validate", p(files, "sign.json")]) == 0
    assert main(["validate", p(files, "flipop.json")]) == 1


def test_verbose_and_kind_override(files, capsys):
    assert main(["--verbose", "validate", p(files, "kz2.json"),
                 "--kind", "hom-algebra"]) == 0
    out = capsys.readouterr().out
    assert "HA2-assoc" in out and "bialgebra" not in out


def test_global_diagnose_position(files, tmp_path, capsys):
    klein = fx.klein_hopf()
    obj = hio.algebra_to_json(klein)
    obj["R"] = hio.matrix_json(fx.klein_rmatrix())
    obj["form"] = hio.matrix_json(fx.trivial_form(klein))
    hio.dump_json(obj, tmp_path / "klein.json")
    hio.dump_json({"kind": "context", "H": "klein.json", "B": "klein.json"},
                  tmp_path / "ctx4.json")
    tr = fx.trivial_dimodule(klein, klein)
    hio.save_structure(tr, tmp_path / "tr.json")
    # --diagnose accepted before the subcommand as a global flag
    code = main(["--diagnose", "check", "symmetry", "--ctx",
                 str(tmp_path / "ctx4.json"), "-M", str(tmp_path / "tr.json"),
                 "-N", str(tmp_path / "tr.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert "hypothesis" in out


def test_json_format_round_trip(files, capsys):
    assert main(["--format", "json", "check", "longeq",
                 "-R", p(files, "flipop.json")]) == 1
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["exit_code"] == 1
    # re-emitting the parsed report is the identity
    assert json.dumps(parsed, indent=2, sort_keys=True, ensure_ascii=False) == out.strip()


def test_deterministic_output(files, capsys):
    main(["validate", p(files, "kz2.json")])
    first = capsys.readouterr().out
    main(["validate", p(files, "kz2.json")])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("argv, missing", [
    (["check", "symmetry", "--ctx", "ctx.json"], ["-M", "-N"]),
    (["check", "ybe", "-U", "sign.json", "-V", "sign.json", "-W", "sign.json"], ["--ctx"]),
    (["build", "twist", "--base", "kz4.json"], ["--phi"]),
] + [(name.split(), list(flags)) for name, flags in sorted(REQUIRED.items())])
def test_missing_options_exit_2(files, monkeypatch, capsys, argv, missing):
    monkeypatch.chdir(files)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in missing)
    assert main(["--format", "json"] + argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 2
    assert all(flag in report["error"] for flag in missing)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, message", [
    (["--seed", "1", "validate", "kz2.json"], "invalid choice"),
    (["check", "nosuch"], "invalid choice: 'nosuch'"),
    (["search", "--set", "0,1"], "--mu"),
])
def test_parser_errors_exit_2(files, monkeypatch, capsys, argv, message, fmt):
    monkeypatch.chdir(files)
    assert main((["--format", "json"] if fmt == "json" else []) + argv) == 2
    captured = capsys.readouterr()
    if fmt == "json":
        report = json.loads(captured.out)
        assert report["exit_code"] == 2 and message in report["error"]
    else:
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err


@pytest.mark.parametrize("before, after", [([], []), (["--format", "json"], ["--verbose"])])
def test_unknown_option_before_command_is_named(files, monkeypatch, capsys, before, after):
    # argparse reads "1" as the command; the message names --seed instead
    monkeypatch.chdir(files)
    assert main(before + ["--seed", "1"] + after + ["validate", "kz2.json"]) == 2
    captured = capsys.readouterr()
    if before:
        report = json.loads(captured.out)
        assert report["exit_code"] == 2 and report["command"] is None
        assert report["error"].startswith("unrecognized option --seed before the command")
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized option --seed before the command")


def test_help_exits_0(capsys):
    for argv in (["--help"], ["--format", "json", "check", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: homlong" in capsys.readouterr().out


def test_search_set_zero_denominator(files, capsys):
    assert main(["search", "--mu", p(files, "id2.json"), "--set", "0,1/0"]) == 2
    assert "--set" in capsys.readouterr().err


def test_singular_mu_fails_operator_checks(tmp_path, capsys):
    path = str(tmp_path / "singular.json")
    hio.dump_json({"kind": "operator", "n": 1, "matrix": [[1]], "mu": [[0]]}, path)
    for argv in (["validate", path], ["check", "longeq", "-R", path]):
        assert main(["--format", "json"] + argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks == [["mu-invertible", "fail", None], ["hom-long-eq", "pass", None]]


def test_demo_files_validate_reports_match_snapshot(monkeypatch, capsys):
    here = pathlib.Path(__file__).resolve().parent
    expected = json.loads((here / "data" / "demo_validate.json").read_text())
    monkeypatch.chdir(here.parent / "demos" / "demo_files")
    names = sorted(os.listdir("."))
    assert names == sorted(expected)
    for name in names:
        code = main(["--format", "json", "validate", name])
        assert json.loads(capsys.readouterr().out) == expected[name]
        assert code == expected[name]["exit_code"]


DEMO_FILES = pathlib.Path(__file__).resolve().parent.parent / "demos" / "demo_files"
CARRIERS = ("sign.json", "canonical.json")


def demo_build_cases():
    """build braid|tensor|dual and check ybe|hexagon|symmetry|coherence on the
    demo carriers, as argument lists relative to a copy of demos/demo_files."""
    cases = []
    for m in CARRIERS:
        for n in CARRIERS:
            cases.append(["build", "braid", "--ctx", "ctx.json", "-M", m, "-N", n,
                          "-o", "out.json"])
            cases.append(["build", "tensor", "-M", m, "-N", n, "-o", "out.json"])
            cases.append(["check", "symmetry", "--ctx", "ctx.json", "-M", m, "-N", n])
            cases.append(["check", "symmetry", "--diagnose", "--ctx", "ctx.json",
                          "-M", m, "-N", n])
    for d in CARRIERS:
        for side in ("left", "right"):
            cases.append(["build", "dual", "-D", d, "--side", side, "-o", "out.json"])
    for u in CARRIERS:
        for v in CARRIERS:
            for w in CARRIERS:
                for subject in ("ybe", "hexagon"):
                    cases.append(["check", subject, "--ctx", "ctx.json",
                                  "-U", u, "-V", v, "-W", w])
                cases.append(["check", "coherence", "-U", u, "-V", v, "-W", w])
    return cases


def run_demo_build_cases(capsys):
    """{argv joined by spaces: {"exit_code", "report", "written"}} for every
    demo build case, run in the current directory on copies of the demo
    files; "written" is the text of the file a build wrote, or None."""
    for name in ("kz2.json", "ctx.json") + CARRIERS:
        pathlib.Path(name).write_bytes((DEMO_FILES / name).read_bytes())
    out = {}
    for argv in demo_build_cases():
        code = main(["--format", "json"] + argv)
        written = pathlib.Path("out.json")
        out[" ".join(argv)] = {
            "exit_code": code,
            "report": json.loads(capsys.readouterr().out),
            "written": written.read_text() if written.exists() else None,
        }
        if written.exists():
            written.unlink()
    return out


def test_demo_files_build_and_braid_reports_match_snapshot(tmp_path, monkeypatch, capsys):
    expected = json.loads((pathlib.Path(__file__).resolve().parent / "data"
                           / "demo_build.json").read_text())
    monkeypatch.chdir(tmp_path)
    got = run_demo_build_cases(capsys)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


PERTURBED_FILES = ("canonical.json", "sign.json", "halpha.json")


def _perturbed_copy(name, part, seed):
    """The demo file name with one entry of part changed by a nonzero amount,
    written to the current directory; returns its path."""
    rng = random.Random(seed)
    obj = json.loads((DEMO_FILES / name).read_text())
    entry, key = obj, part
    while isinstance(entry[key], list):
        entry, key = entry[key], rng.randrange(len(entry[key]))
    entry[key] = scalar_to_json(scalar(entry[key]) + rng.choice((-2, -1, 1, 2)))
    path = "%s-%s-%d.json" % (name[:-5], part, seed)
    hio.dump_json(obj, path)
    return path


def perturbed_validate_reports(capsys):
    """{"<file> <part> <seed>": {"exit_code", "report"}} of validate, run in the
    current directory on copies of the demo carriers with one entry of the
    action, coaction or mu changed by a nonzero amount, for seeds 0-3."""
    out = {}
    for name in PERTURBED_FILES:
        for part in ("action", "coaction", "mu"):
            for seed in range(4):
                code = main(["--format", "json", "validate", _perturbed_copy(name, part, seed)])
                out["%s %s %d" % (name, part, seed)] = {
                    "exit_code": code, "report": json.loads(capsys.readouterr().out)}
    return out


def test_perturbed_demo_carriers_validate_reports_match_snapshot(tmp_path, monkeypatch,
                                                                 capsys):
    expected = (pathlib.Path(__file__).resolve().parent / "data"
                / "demo_validate_perturbed.json").read_text()
    monkeypatch.chdir(tmp_path)
    got = perturbed_validate_reports(capsys)
    assert json.dumps(got, indent=2, sort_keys=True) + "\n" == expected


HOMSTRUCT_PARTS = (("kz2.json", ("mult", "comult", "unit", "counit", "gamma", "antipode",
                                 "R", "form")),
                   ("kz4_twisted.json", ("mult", "comult", "gamma", "antipode")))
TWIST_PARTS = (("phi.json", "matrix"), ("kz4.json", "mult"), ("kz4.json", "comult"),
               ("kz4.json", "unit"), ("kz4.json", "counit"))


def perturbed_homstruct_reports(capsys):
    """{"<file> <part> <seed>": {"exit_code", "report"[, "written"]}} of
    validate on the demo Hom-Hopf algebras, and of build twist --base kz4.json
    --phi phi.json, with one entry of a structure map, R, the form, phi or the
    base changed by a nonzero amount, for seeds 0-3, run in the current
    directory."""
    out = {}
    for name, parts in HOMSTRUCT_PARTS:
        for part in parts:
            for seed in range(4):
                code = main(["--format", "json", "validate", _perturbed_copy(name, part, seed)])
                out["%s %s %d" % (name, part, seed)] = {
                    "exit_code": code, "report": json.loads(capsys.readouterr().out)}
    for name, part in (("kz4.json", None),) + TWIST_PARTS:
        for seed in range(1 if part is None else 4):
            files = {}
            for f in ("kz4.json", "phi.json"):
                pathlib.Path(f).write_bytes((DEMO_FILES / f).read_bytes())
                files[f] = _perturbed_copy(f, part, seed) if f == name and part else f
            code = main(["--format", "json", "build", "twist", "--base", files["kz4.json"],
                         "--phi", files["phi.json"], "-o", "out.json"])
            written = pathlib.Path("out.json")
            out["%s %s %d" % (name, part, seed)] = {
                "exit_code": code, "report": json.loads(capsys.readouterr().out),
                "written": written.read_text() if written.exists() else None}
            if written.exists():
                written.unlink()
    return out


def test_perturbed_demo_algebras_validate_and_twist_reports_match_snapshot(tmp_path,
                                                                            monkeypatch, capsys):
    expected = (pathlib.Path(__file__).resolve().parent / "data"
                / "demo_validate_homstruct_perturbed.json").read_text()
    monkeypatch.chdir(tmp_path)
    got = perturbed_homstruct_reports(capsys)
    assert json.dumps(got, indent=2, sort_keys=True) + "\n" == expected
