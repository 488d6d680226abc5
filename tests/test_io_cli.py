import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from homlong import braidcat, cli, fixtures as fx, linalg
from homlong import io as hio
from homlong.cli import SUBJECTS, main
from homlong.braidcat import check_hexagons, check_qybe
from homlong.homstruct import dual_hopf, tensor_hopf, validate_all
from homlong.io import FileFormatError
from homlong.linalg import ONE, ZERO, Matrix, scalar
from homlong.longdimod import canonical_dimodule, check_coherence, validate_long_dimodule
from homlong.longeq import (OperatorOnTensorSquare, check_long_equation, comodule_extension,
                            coordinate_criterion, dimodule_solution, module_extension,
                            operator_to_coords, search_solutions, tau_transforms)
from homlong.report import AxiomReport, Check
from test_oracles import HOPF_FIXTURES, dense_entries, flip_matrix, json_scalar, yd_module


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
    hio.save_structure(replace(sd, kind="halpha-dimodule"), tmp_path / "halpha.json")
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

def _carriers():
    """One structure of each carrier kind, keyed by its kind."""
    kz2 = fx.kz2()
    ctx = braidcat.BraidingContext(kz2, fx.kz2_rmatrix(), kz2, fx.kz2_form())
    return {"hom-module": fx.sign_module(), "hom-comodule": fx.sign_comodule(),
            "yd-module": braidcat.hb_yd_structure(ctx, fx.sign_dimodule()),
            "long-dimodule": canonical_dimodule(kz2, kz2),
            "halpha-dimodule": module_extension(kz2, fx.sign_module())}


def test_structure_round_trips(tmp_path, kz2, kz4t):
    subjects = [
        kz2, kz4t, fx.sweedler_twisted(), kz2.algebra, kz2.coalgebra, fx.sign_dimodule(),
        OperatorOnTensorSquare(2, flip_matrix(2, 2), Matrix.diagonal([1, 2])),
    ] + list(_carriers().values())
    for i, s in enumerate(subjects):
        path, again = tmp_path / ("s%d.json" % i), tmp_path / ("s%d-again.json" % i)
        hio.save_structure(s, path)
        loaded = hio.load_structure(str(path))
        if hasattr(s, "matrix"):
            assert loaded.matrix == s.matrix and loaded.structure_map == s.structure_map
        else:
            assert loaded == s
        # saving what was loaded writes the same bytes
        hio.save_structure(loaded, again)
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("build", HOPF_FIXTURES, ids=lambda f: f.__name__)
def test_units_and_counits_are_flat_lists_read_by_one_index(tmp_path, build):
    # a unit or counit is a one-column Matrix: the file holds its flat list
    # (what bench/oracle.py reads), and unit[i] reads its i-th coordinate
    # (what bench/workloads.py reads)
    h = build()
    for i, s in enumerate((h, h.algebra, h.coalgebra, dual_hopf(h), tensor_hopf(h, fx.kz2()))):
        obj = hio.algebra_to_json(s)
        for key in ("unit", "counit"):
            v = getattr(s, key)
            if v is None:
                assert key not in obj
                continue
            assert (v.rows, v.cols) == (s.dim, 1)
            assert [v[k] for k in range(s.dim)] == [row[0] for row in dense_entries(v)]
            assert obj[key] == [json_scalar(v[k]) for k in range(s.dim)]
        path = tmp_path / ("a%d.json" % i)
        hio.dump_json(obj, path)
        assert hio.load_structure(str(path)) == s


# What the reader says of a carrier or operator file with the fields given
# as None removed, or with an algebra field replaced by that part of kz2,
# taken from the commit before the carrier kinds were read from one table,
# but a missing map, named as a missing algebra is; a file with two bad
# fields names the one read first.
READER_ERRORS = {
    "hom-module": [
        ({"over": None}, "missing 'over' ({})"),
        ({"action": None}, "missing 'action' ({})"),
        ({"nu": None}, "missing 'nu' ({})"),
        ({"action": None, "over": None}, "missing 'over' ({})"),
        ({"nu": None, "dim": None}, "missing or invalid 'dim': expected an integer ({})"),
        ({"over": "coalgebra"}, "module 'over' must carry an algebra ({})"),
    ],
    "hom-comodule": [
        ({"over": None}, "missing 'over' ({})"),
        ({"coaction": None}, "missing 'coaction' ({})"),
        ({"mu": None}, "missing 'mu' ({})"),
        ({"over": "algebra"}, "comodule 'over' must carry a coalgebra ({})"),
    ],
    "yd-module": [
        ({"over": None}, "missing 'over' ({})"),
        ({"action": None}, "missing 'action' ({})"),
        ({"coaction": None}, "missing 'coaction' ({})"),
        ({"structure_map": None}, "missing 'structure_map' ({})"),
        ({"over": "algebra"}, "expected a hom-bialgebra or hom-hopf structure ({}.over)"),
    ],
    "long-dimodule": [
        ({"H": None}, "missing 'H' ({})"),
        ({"B": None}, "missing 'B' ({})"),
        ({"action": None}, "missing 'action' ({})"),
        ({"coaction": None}, "missing 'coaction' ({})"),
        ({"mu": None}, "missing 'mu' ({})"),
        ({"action": None, "B": None}, "missing 'B' ({})"),
        ({"B": "coalgebra"}, "expected a hom-bialgebra or hom-hopf structure ({}.B)"),
    ],
    "halpha-dimodule": [
        ({"H": None}, "missing 'H' ({})"),
        ({"action": None}, "missing 'action' ({})"),
        ({"coaction": None}, "missing 'coaction' ({})"),
        ({"mu": None}, "missing 'mu' ({})"),
        ({"mu": None, "dim": None}, "missing or invalid 'dim': expected an integer ({})"),
        ({"H": "algebra"}, "expected a hom-bialgebra or hom-hopf structure ({}.H)"),
    ],
    "operator": [
        ({"matrix": None}, "missing 'matrix' ({})"),
        ({"mu": None}, "missing 'mu' ({})"),
        ({"mu": None, "n": None}, "missing or invalid 'n': expected an integer ({})"),
    ],
}


@pytest.mark.parametrize("kind", list(READER_ERRORS))
def test_carrier_reader_errors_are_pinned(tmp_path, kind):
    assert set(READER_ERRORS) == set(hio._CARRIERS) | {"operator"}
    obj = hio.structure_to_json(dict(_carriers(), operator=OperatorOnTensorSquare(
        2, flip_matrix(2, 2), Matrix.diagonal([1, 2])))[kind])
    assert obj["kind"] == kind
    path = str(tmp_path / "bad.json")
    for edit, expected in READER_ERRORS[kind]:
        bad = {k: v for k, v in obj.items() if k not in edit}
        bad.update((k, hio.algebra_to_json(getattr(fx.kz2(), part)))
                   for k, part in edit.items() if part)
        hio.dump_json(bad, path)
        with pytest.raises(FileFormatError) as exc:
            hio.load_structure(path)
        assert str(exc.value) == expected.format(path)


@pytest.mark.parametrize("key, ragged", [("action", [[[1]], [[1, 2]]]),
                                          ("coaction", [[[1], [1, 2]]])])
def test_a_ragged_tensor_names_its_file_and_field(tmp_path, capsys, key, ragged):
    path = str(tmp_path / "ragged.json")
    obj = hio.structure_to_json(fx.sign_dimodule())
    obj[key] = ragged
    hio.dump_json(obj, path)
    message = "ragged tensor data (%s.%s)" % (path, key)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert main(["--format", "json", "validate", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == message and report["exit_code"] == 2


@pytest.mark.parametrize("source, name, key, value, message", [
    ("canonical.json", "bad_dimod.json", "mu", [[1, 0, 0, 0]] * 3,
     "structure map is 3x4, expected 4x4 ({})"),
    ("canonical.json", "bad_action.json", "action", [[[0] * 4] * 4],
     "action is 1x4x4, expected 2x4x4 ({}.action)"),
    # the same 4 x 8 entries nested as (dim, H.dim, dim): refused as the
    # file enters, where rows x cols alone would agree
    ("canonical.json", "swapped_action.json", "action", [[[0] * 4] * 2] * 4,
     "action is 4x2x4, expected 2x4x4 ({}.action)"),
    ("kz2.json", "flat_mult.json", "mult", [[[1, 0], [0, 1], [0, 1], [1, 0]]],
     "mult is 1x4x2, expected 2x2x2 ({}.mult)"),
    ("flipop.json", "bad_op.json", "mu", [[1, 0, 0], [0, 2, 0]],
     "structure map is 2x3, expected 2x2 ({})"),
])
def test_a_misshaped_map_names_its_file(files, capsys, source, name, key, value, message):
    # a carrier or an operator is refused as an algebra is: the file named,
    # and for a three-leg map read against the nesting its structure fixes,
    # the field
    obj = json.loads((files / source).read_text())
    obj[key] = value
    path = str(files / name)
    hio.dump_json(obj, path)
    message = message.format(path)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert main(["--format", "json", "validate", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == message and report["exit_code"] == 2


# a command whose input file holds a map of the wrong shape for the
# structure beside it: the file, its content and the refusal
MISSHAPED_INPUTS = {
    "validate-R": ("validate {f}", "bad_r.json", dict(R=[[1, 0, 0], [0, 1, 0]]),
                   "R is 2x3, expected 2x2"),
    "validate-form": ("validate {f}", "bad_form.json", dict(form=[[1, 0], [0, 1], [0, 0]]),
                      "form is 3x2, expected 2x2"),
    "check-ybe-R": ("check ybe --ctx {f} -U sign.json -V sign.json -W sign.json",
                    "bad_ctx.json", {"kind": "context", "H": "kz2.json", "B": "kz2.json",
                                     "R": [[1, 0, 0], [0, 1, 0]]},
                    "R is 2x3, expected 2x2"),
    "search-mu": ("search --mu {f} --set 0,1", "bad_mu.json", {"mu": [[1, 0, 0], [0, 1, 0]]},
                  "structure map is 2x3, expected 2x2"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPED_INPUTS))
def test_a_misshaped_map_beside_a_structure_names_its_file(files, monkeypatch, capsys, case):
    # an algebra file's R or form, a context's R and a search's mu are
    # refused as a carrier's maps are: the file named, exit 2
    command, name, fields, message = MISSHAPED_INPUTS[case]
    monkeypatch.chdir(files)
    obj = json.loads((files / "kz2.json").read_text()) if case.startswith("validate") else {}
    hio.dump_json(dict(obj, **fields), files / name)
    argv = command.format(f=name).split()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s (%s)\n" % (message, name)
    assert main(["--format", "json"] + argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "%s (%s)" % (message, name) and report["exit_code"] == 2


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
    for kind in ("mystery", ["hom-module"], {}):
        hio.dump_json({"kind": kind}, bad2)
        with pytest.raises(FileFormatError, match="unknown kind"):
            hio.load_structure(str(bad2))
    bad3 = tmp_path / "bad3.json"
    hio.dump_json({"kind": "hom-algebra", "dim": 2, "mult": [[[1]]], "unit": [1, 0]}, bad3)
    with pytest.raises(FileFormatError):
        hio.load_structure(str(bad3))


def test_scalar_returns_the_shared_zero_and_one():
    assert scalar(0) is ZERO and scalar(1) is ONE
    assert scalar(2) == 2 and scalar(-1) == -1


@pytest.mark.parametrize("bad", ["1/0", True, "x"])
@pytest.mark.parametrize("keys, location", [
    (("action", 1, 0, 1), ".action[1][0][1]"),
    (("mu", 1, 0), ".mu"),
    (("H", "unit", 1), ".H.unit"),
])
def test_rejected_entry_is_named(tmp_path, kz2, bad, keys, location):
    # the message is the scalar's own error and where the entry sits: the
    # tensor index for an action, the field for a matrix or a vector
    obj = hio.structure_to_json(canonical_dimodule(kz2, kz2))
    field = obj
    for key in keys[:-1]:
        field = field[key]
    field[keys[-1]] = bad
    path = str(tmp_path / "bad.json")
    hio.dump_json(obj, path)
    with pytest.raises((TypeError, ValueError, ZeroDivisionError)) as cause:
        scalar(bad)
    with pytest.raises(FileFormatError) as exc:
        hio.load_structure(path)
    assert str(exc.value) == "%s (%s%s)" % (cause.value, path, location)


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


def test_validate_bialgebra_checks_r_and_form(files, capsys):
    # QHA1-5 and CHA1-5 read no antipode, so a hom-bialgebra file's R and
    # form are validated too
    obj = json.load(open(files / "kz2.json"))
    obj.pop("antipode")
    obj["kind"] = "hom-bialgebra"
    obj["R"] = [[0, 1], [0, 0]]
    obj["form"] = [[5, 0], [0, 0]]
    hio.dump_json(obj, files / "kz2b.json")
    assert main(["--format", "json", "validate", p(files, "kz2b.json")]) == 1
    checks = {a: v for a, v, _ in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["R:QHA1"] == "fail"
    assert any(a.startswith("form:") for a in checks)


def test_validate_reads_a_hopf_file_once(monkeypatch, capsys):
    # R and form come from the same parse of the file as the algebra
    reads, read = [], hio._read
    monkeypatch.setattr(hio, "_read", lambda path: reads.append(path) or read(path))
    assert main(["validate", str(DEMO_FILES / "kz2.json")]) == 0
    out = capsys.readouterr().out
    assert "R:QHA1" in out and "form:CHA1" in out
    assert reads == [str(DEMO_FILES / "kz2.json")]


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


def test_file_that_is_not_an_object_exits_2(files, capsys):
    # an algebra field naming a file whose JSON is a list, or a context file
    # that is a list, is an input error that names that file: for a
    # module's 'over', a context's H and B, and the context itself
    listed = p(files, "list.json")
    hio.dump_json([1, 2], listed)
    hio.dump_json(["H", "B"], files / "listed_ctx.json")
    hio.dump_json({"kind": "hom-module", "over": "list.json", "dim": 1},
                  files / "module.json")
    hio.dump_json({"kind": "context", "H": "list.json", "B": "list.json"},
                  files / "listctx.json")
    sign = p(files, "sign.json")
    for name, bad, args, load in (
            ("module.json", listed, ["validate"], hio.load_structure),
            ("listctx.json", listed, ["check", "ybe", "--ctx"], hio.load_context),
            ("listed_ctx.json", p(files, "listed_ctx.json"), ["check", "ybe", "--ctx"],
             hio.load_context)):
        tail = ["-U", sign, "-V", sign, "-W", sign] if load is hio.load_context else []
        assert main(args + [p(files, name)] + tail) == 2
        err = capsys.readouterr().err
        assert "expected a JSON object" in err and bad in err
        with pytest.raises(FileFormatError) as exc:
            load(p(files, name))
        assert exc.value.path == bad


def test_coherence_refuses_mismatched_base(files, capsys):
    kz2 = fx.kz2()
    hio.save_structure(canonical_dimodule(kz2, dual_hopf(kz2)), files / "other.json")
    args = ["check", "coherence", "-U", p(files, "sign.json"),
            "-V", p(files, "sign.json"), "-W", p(files, "other.json")]
    assert main(args) == 2
    assert "different algebra pairs" in capsys.readouterr().err
    assert main(["--format", "json"] + args) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "tensor of dimodules over different algebra pairs"


def test_coherence_refuses_x_over_another_pair(files, capsys):
    kz3 = fx.group_hopf(3)
    hio.save_structure(fx.trivial_dimodule(kz3, kz3), files / "kz3_trivial.json")
    sign = p(files, "sign.json")
    args = ["check", "coherence", "-U", sign, "-V", sign, "-W", sign,
            "-X", p(files, "kz3_trivial.json")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "different algebra pairs" in captured.err and "result: ok" not in captured.out
    assert main(["--format", "json"] + args) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "tensor of dimodules over different algebra pairs"


DIMODULE_COMMANDS = [
    "check snake -D {d}", "check snake --side right -D {d}", "check roundtrip -D {d}",
    "check coherence -U {d} -V {d} -W {d} -X {d}",
    "check hexagon --ctx ctx.json -U {d} -V canonical.json -W {d}",
    "check ybe --ctx ctx.json -U {d} -V {d} -W canonical.json",
    "check symmetry --ctx ctx.json -M {d} -N canonical.json",
    "build braid --ctx ctx.json -M {d} -N canonical.json -o {out}",
    "build dual -D {d} -o {out}", "build dual --side right -D {d} -o {out}",
    "build tensor -M {d} -N {d} -o {out}", "build smash -D {d} -o {out}",
]


@pytest.mark.parametrize("command", DIMODULE_COMMANDS)
def test_dimodule_commands_read_a_halpha_dimodule_as_its_long_dimodule(
        command, tmp_path, monkeypatch, capsys):
    # halpha.json holds the sign dimodule of sign.json as a halpha-dimodule
    for name in ("sign.json", "halpha.json", "canonical.json", "ctx.json", "kz2.json"):
        (tmp_path / name).write_bytes((DEMO_FILES / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    runs = []
    for d in ("sign.json", "halpha.json"):
        out = "built-from-" + d
        code = main(["--format", "json"] + command.format(d=d, out=out).split())
        report = json.loads(capsys.readouterr().out)
        written = pathlib.Path(out).read_bytes() if "{out}" in command else None
        del report["inputs"], report["notes"]
        runs.append((code, report, written))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1]["checks"]


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [["validate"], ["check", "roundtrip", "-D"],
                                     ["build", "smash", "-D"]])
def test_a_dimodule_over_algebra_parts_exits_2(tmp_path, capsys, command, fmt):
    # the pair under a dimodule must be bialgebras: over an algebra-only H
    # and a coalgebra-only B these commands ended in a traceback
    obj = json.loads((DEMO_FILES / "sign.json").read_text())
    obj["H"] = hio.algebra_to_json(fx.kz2().algebra)
    obj["B"] = hio.algebra_to_json(fx.kz2().coalgebra)
    path = str(tmp_path / "parts.json")
    hio.dump_json(obj, path)
    message = "expected a hom-bialgebra or hom-hopf structure (%s.H)" % path
    assert main((["--format", "json"] if fmt == "json" else []) + command + [path]) == 2
    captured = capsys.readouterr()
    if fmt == "json":
        assert json.loads(captured.out)["error"] == message
    else:
        assert captured.err == "error: %s\n" % message


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("path, variant, kind", [("signmod.json", "comodule", "module"),
                                                 ("signcomod.json", "module", "comodule")])
def test_extension_variant_of_the_other_kind_exits_2(files, monkeypatch, capsys,
                                                      path, variant, kind, fmt):
    # --variant names the kind of -M it builds from; the other kind is refused
    # by name before anything is built, where it used to end in a traceback
    monkeypatch.chdir(files)
    hio.save_structure(fx.sign_module(), files / "signmod.json")
    hio.save_structure(fx.sign_comodule(), files / "signcomod.json")
    argv = ["build", "extension", "--base", "kz2.json", "-M", path, "--variant", variant,
            "-o", "ext.json"]
    message = "build extension --variant %s needs a hom-%s -M, not a hom-%s file" % (
        variant, variant, kind)
    assert main((["--format", "json"] if fmt == "json" else []) + argv) == 2
    captured = capsys.readouterr()
    if fmt == "json":
        assert json.loads(captured.out) == {"command": "build extension",
                                            "inputs": [path, "kz2.json"],
                                            "error": message, "exit_code": 2}
    else:
        assert captured.out == "" and captured.err == "error: %s\n" % message
    assert not (files / "ext.json").exists()
    assert main(argv[:-4] + ["--variant", kind]) == 0


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
    # an empty grid has nothing to search, on either shape
    for shape in ("diagonal", "full"):
        capsys.readouterr()
        assert main(["search", "--mu", str(mu3), "--set", ",", "--shape", shape]) == 0
        assert "0 solutions" in capsys.readouterr().out


def test_search_reads_a_bare_map_an_object_without_kind_and_an_operator_file(files, capsys):
    hio.dump_json(hio.matrix_json(Matrix.identity(2)), files / "bare.json")
    hio.dump_json({"kind": "operator", "n": 2, "mu": hio.matrix_json(Matrix.identity(2)),
                   "matrix": hio.matrix_json(Matrix.identity(4))}, files / "op.json")
    for name in ("bare.json", "id2.json", "op.json"):
        assert main(["search", "--mu", p(files, name), "--set", "0,1"]) == 0
        assert "16 solutions" in capsys.readouterr().out


def test_search_command_over_signs(files, capsys):
    # 3^16 candidates, above the cap, searched within the node budget;
    # "--set=" because argparse reads a bare -1,0,1 as an option
    assert main(["--format", "json", "search", "--mu", p(files, "id2.json"),
                 "--set=-1,0,1", "--shape", "full", "-o", str(files / "sols.json")]) == 0
    assert "665 solutions" in json.loads(capsys.readouterr().out)["notes"]
    assert len(json.load(open(files / "sols.json"))["solutions"]) == 665


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
    yd = yd_module(kz2, 1, Matrix.from_tensor([[[1]], [[-1]]]),
                   Matrix.from_tensor([[[0], [1]]]), Matrix.identity(1), ("v",))
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
    hio.save_structure(replace(sd, kind="halpha-dimodule"), tmp_path / "ha.json")
    assert main(["validate", str(tmp_path / "ha.json")]) == 0
    assert main(["validate", p(files, "sign.json")]) == 0
    assert main(["validate", p(files, "flipop.json")]) == 1


def test_verbose_and_kind_override(files, capsys):
    assert main(["--verbose", "validate", p(files, "kz2.json"),
                 "--kind", "hom-algebra"]) == 0
    out = capsys.readouterr().out
    assert "HA2-assoc" in out and "bialgebra" not in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, kind, message", [
    ("kz2.json", "hom-coalgebr", "invalid choice: 'hom-coalgebr'"),
    ("alg.json", "hom-coalgebra", "alg.json: no hom-coalgebra part to validate"),
    ("coalg.json", "hom-algebra", "coalg.json: no hom-algebra part to validate"),
    ("canonical.json", "hom-algebra", "canonical.json: no hom-algebra part to validate"),
])
def test_validate_kind_refuses_a_part_it_cannot_validate(files, monkeypatch, capsys,
                                                         name, kind, message, fmt):
    hio.save_structure(fx.kz2().algebra, files / "alg.json")
    hio.save_structure(fx.kz2().coalgebra, files / "coalg.json")
    monkeypatch.chdir(files)
    assert main((["--format", "json"] if fmt == "json" else [])
                + ["validate", name, "--kind", kind]) == 2
    captured = capsys.readouterr()
    if fmt == "json":
        report = json.loads(captured.out)
        assert report["exit_code"] == 2 and message in report["error"]
    else:
        assert captured.out == "" and message in captured.err


def test_validate_kind_on_the_part_a_file_has(files, capsys):
    hio.save_structure(fx.kz2().coalgebra, files / "coalg.json")
    for path in (p(files, "coalg.json"), p(files, "kz2.json")):
        assert main(["validate", path, "--kind", "hom-coalgebra"]) == 0
        out = capsys.readouterr().out
        assert "HC2-coassoc" in out and "HA2-assoc" not in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, message", [
    (["build", "twist", "--base", "alg.json", "--phi", "phi.json"],
     "alg.json: expected a hom-bialgebra or hom-hopf file"),
    (["build", "extension", "--base", "alg.json", "-M", "mod.json"],
     "alg.json: expected a hom-bialgebra or hom-hopf file"),
    (["build", "extension", "--base", "kz4.json", "-M", "sign.json"],
     "sign.json: expected a hom-module or hom-comodule file"),
    (["build", "twist", "--base", "kz4.json", "--phi", "kz4.json"],
     "kz4.json: missing 'matrix'"),
    (["check", "snake", "-D", "mod.json"],
     "mod.json: expected a long-dimodule or halpha-dimodule file"),
    (["build", "dimodule-solution", "-D", "sign.json"],
     "sign.json: expected a halpha-dimodule file"),
    (["check", "yd", "-M", "sign.json"], "sign.json: expected a yd-module file"),
    (["check", "longeq", "-R", "kz2.json"], "kz2.json: expected an operator file"),
    # the kind is read before the file is built: a malformed file of another
    # kind is refused for its kind, and one that is no object as before
    (["check", "longeq", "-R", "hollow.json"], "hollow.json: expected an operator file"),
    (["check", "longeq", "-R", "list.json"], "expected a JSON object (list.json)"),
    (["search", "--mu", "sign.json", "--set", "0,1"],
     "sign.json: expected an operator file, not a long-dimodule file"),
])
def test_inputs_of_the_wrong_kind_exit_2_naming_the_kind(files, monkeypatch, capsys,
                                                         argv, message, fmt):
    hio.save_structure(fx.kz4().algebra, files / "alg.json")
    hio.save_structure(fx.sign_module(), files / "mod.json")
    hio.dump_json({"kind": "long-dimodule", "dim": 2}, files / "hollow.json")
    hio.dump_json([1, 2], files / "list.json")
    monkeypatch.chdir(files)
    assert main((["--format", "json"] if fmt == "json" else []) + argv) == 2
    captured = capsys.readouterr()
    if fmt == "json":
        report = json.loads(captured.out)
        assert report["exit_code"] == 2 and report["error"] == message
    else:
        assert captured.out == "" and captured.err == "error: %s\n" % message


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
] + [(name.split(), [flag for flag, _ in s.files if flag not in s.optional])
      for name, s in sorted(SUBJECTS.items())])
def test_missing_options_exit_2(files, monkeypatch, capsys, argv, missing):
    monkeypatch.chdir(files)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in missing)
    assert main(["--format", "json"] + argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 2
    assert all(flag in report["error"] for flag in missing)


# Every option the check and build parsers declare after the subject, in the
# order a report lists input files.
COMMAND_OPTIONS = {
    "check": ["--ctx", "-U", "-V", "-W", "-X", "-M", "-N", "-R", "-D", "--side", "--diagnose"],
    "build": ["--ctx", "-M", "-N", "-D", "--base", "--phi", "--variant", "--side", "-o"],
}
# A command line each subject runs on, giving every option it takes.
SUBJECT_RUNS = {
    "check ybe": "--ctx ctx.json -U sign.json -V trivial.json -W canonical.json",
    "check hexagon": "--ctx ctx.json -U sign.json -V sign.json -W trivial.json",
    "check symmetry": "--ctx ctx.json -M sign.json -N canonical.json --diagnose",
    "check longeq": "-R rsol.json",
    "check yd": "-M yd.json",
    "check snake": "-D canonical.json --side right",
    "check roundtrip": "-D canonical.json",
    "check coherence": "-U sign.json -V trivial.json -W sign.json -X trivial.json",
    "build braid": "--ctx ctx.json -M sign.json -N canonical.json -o out.json",
    "build dual": "-D sign.json --side left -o out.json",
    "build tensor": "-M sign.json -N canonical.json -o out.json",
    "build twist": "--base kz4.json --phi phi.json -o out.json",
    "build dimodule-solution": "-D halpha.json -o out.json",
    "build extension": "--base kz2.json -M signmod.json --variant module -o out.json",
    "build smash": "-D sign.json -o out.json",
}
VALUES = {"--side": ["left"], "--variant": ["module"], "--diagnose": [], "-o": ["out.json"]}


def _takes(name):
    s = SUBJECTS[name]
    return list(dict.fromkeys([flag for flag, _ in s.files] + list(s.optional)
                              + (["-o"] if name.startswith("build") else [])))


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_each_subject_takes_only_its_options(files, monkeypatch, capsys, name):
    monkeypatch.chdir(files)
    hio.save_structure(fx.sign_module(), files / "signmod.json")
    hio.save_structure(yd_module(
        fx.kz2(), 1, Matrix.from_tensor([[[1]], [[-1]]]), Matrix.from_tensor([[[0], [1]]]),
        Matrix.identity(1), ("v",)), files / "yd.json")
    assert main(["build", "dimodule-solution", "-D", "halpha.json", "-o", "rsol.json"]) == 0
    capsys.readouterr()
    command = name.split()
    argv = command + SUBJECT_RUNS[name].split()
    given = dict(zip(argv[2::2], argv[3::2]))
    # inputs: the files given, in the order of COMMAND_OPTIONS
    inputs = [given[flag] for flag in COMMAND_OPTIONS[command[0]]
              if flag in given and flag not in VALUES]
    assert main(["--format", "json"] + argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["command"], report["inputs"]) == (name, inputs)
    assert sorted(flag for flag in argv if flag.startswith("-")) == sorted(_takes(name))
    refused = [flag for flag in COMMAND_OPTIONS[command[0]] if flag not in _takes(name)]
    assert len(refused) == len(COMMAND_OPTIONS[command[0]]) - len(_takes(name))
    for flag in refused:
        extra = [flag] + VALUES.get(flag, ["nosuch.json"])
        message = "%s does not take %s" % (name, flag)
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % message
        assert main(["--format", "json"] + command + extra + argv[2:]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report == {"command": name, "inputs": inputs, "error": message, "exit_code": 2}


def test_readme_synopsis_lists_each_subjects_options():
    # each "homlong check|build <subject>" line of the README's CLI block:
    # its bare flags are the subject's required file options (and -o on a
    # build), its bracketed ones the options it may leave out
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    seen = set()
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[1:2] not in (["check"], ["build"]):
            continue
        name = " ".join(words[1:3])
        s = SUBJECTS[name]
        bare = [w for w in words[3:] if w.startswith("-")]
        bracketed = [w.strip("[]") for w in words[3:] if w.startswith("[-")]
        assert bare == [flag for flag, _ in s.files if flag not in s.optional] + (
            ["-o"] if name.startswith("build") else []), line
        assert bracketed == list(s.optional), line
        seen.add(name)
    assert seen == set(SUBJECTS)
    assert sum(len(_takes(name)) for name in SUBJECTS) == 42


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


def _run_alone(argv, cwd):
    """(stdout, stderr, exit code) of homlong run on argv in a fresh
    interpreter."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from homlong.cli import main; sys.exit(main(sys.argv[1:]))"] + argv,
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    return proc.stdout, proc.stderr, proc.returncode


def test_parser_kept_across_calls_gives_each_call_its_own_output(files, monkeypatch, capsys):
    # one process parses a usage error, --help, a check and a build in turn;
    # each prints what it prints when run alone
    monkeypatch.chdir(files)
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        ["check", "nosuch"],
        ["--format", "json", "check", "nosuch"],
        ["--help"],
        ["check", "symmetry", "--ctx", "ctx.json", "-M", "sign.json", "-N", "canonical.json"],
        ["build", "braid", "--ctx", "ctx.json", "-M", "sign.json", "-N", "canonical.json",
         "-o", "braid.json"],
    ]
    codes = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        alone = _run_alone(argv, files)
        assert (captured.out, captured.err, code) == alone
        codes.append(code)
    assert codes == [2, 2, 0, 0, 0]


def test_search_set_zero_denominator(files, capsys):
    assert main(["search", "--mu", p(files, "id2.json"), "--set", "0,1/0"]) == 2
    assert "--set" in capsys.readouterr().err


def test_an_exponent_is_refused_at_once_in_a_set_and_in_a_file(files, capsys):
    # Fraction would expand 1e4000000 as 10**4000000, for seconds, before
    # any check ran
    message = "'1e4000000' is not an int or a p/q string"
    start = time.perf_counter()
    assert main(["search", "--mu", p(files, "id2.json"), "--set", "1e4000000"]) == 2
    err = capsys.readouterr().err
    assert message in err and "--set" in err
    path = str(files / "exponent.json")
    hio.dump_json({"kind": "operator", "n": 1, "mu": [[1]], "matrix": [["1e4000000"]]}, path)
    assert main(["validate", path]) == 2
    assert message in capsys.readouterr().err
    assert time.perf_counter() - start < 0.5


def test_singular_mu_fails_operator_checks(tmp_path, capsys):
    # an operator refuses a singular mu where it is built, so its file, or
    # the H-alpha dimodule file that induces it, is refused where it loads,
    # named in the error
    path, dimodule = str(tmp_path / "singular.json"), str(tmp_path / "singular_halpha.json")
    hio.dump_json({"kind": "operator", "n": 1, "matrix": [[1]], "mu": [[0]]}, path)
    sd = fx.sign_dimodule()
    hio.save_structure(replace(sd, kind="halpha-dimodule", mu=Matrix.zeros(sd.dim, sd.dim)),
                       dimodule)
    for path, argv in ((path, ["validate", path]), (path, ["check", "longeq", "-R", path]),
                       (dimodule, ["build", "dimodule-solution", "-D", dimodule])):
        assert main(["--format", "json"] + argv) == 2
        assert json.loads(capsys.readouterr().out)["error"] == (
            "structure map is singular (%s)" % path)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: structure map is singular (%s)\n" % path


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


def test_no_cli_path_builds_a_dense_view(tmp_path, monkeypatch, capsys, ctx, dimodules):
    # an entry of a Matrix is read as a Fraction only by indexing
    # or by to_lists; the commands, and the library calls the benchmark
    # times, read and write the int columns only
    h, mu = fx.kz2(), Matrix([[1, 1], [0, 1]])
    sign, canonical = dimodules["sign"], dimodules["canonical"]
    module, comodule = fx.trivial_module(h, mu), fx.sign_comodule(h)

    def refuse(*args):
        raise AssertionError("an entry was read as a Fraction")

    monkeypatch.setattr(Matrix, "to_lists", refuse)
    monkeypatch.setattr(Matrix, "__getitem__", refuse)
    with pytest.raises(AssertionError):
        mu[0, 0]
    test_demo_files_validate_reports_match_snapshot(monkeypatch, capsys)
    test_demo_files_build_and_braid_reports_match_snapshot(tmp_path, monkeypatch, capsys)
    assert validate_all(h).ok and validate_all(fx.sweedler_hopf()).ok
    assert check_qybe(ctx, sign, canonical, canonical).ok
    assert check_hexagons(ctx, canonical, sign, canonical).ok
    assert check_coherence(sign, canonical, canonical).ok
    for extension in (module_extension(h, module), comodule_extension(h, comodule)):
        assert validate_long_dimodule(extension).ok
        assert check_long_equation(dimodule_solution(extension)).ok
    solutions = search_solutions(mu, [0, 1], "full")
    assert solutions
    for op in solutions:
        assert check_long_equation(op).ok and tau_transforms(op)[1].ok
        x = operator_to_coords(op)
        assert coordinate_criterion(x, x, mu).flags["self-case"]


PERTURBED_FILES = ("canonical.json", "sign.json", "halpha.json")


def _perturbed_copy(name, part, seed):
    """The demo file name with one entry of part changed by a nonzero amount,
    written to the current directory; returns its path."""
    rng = random.Random(seed)
    obj = json.loads((DEMO_FILES / name).read_text())
    entry, key = obj, part
    while isinstance(entry[key], list):
        entry, key = entry[key], rng.randrange(len(entry[key]))
    entry[key] = json_scalar(scalar(entry[key]) + rng.choice((-2, -1, 1, 2)))
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


def test_search_refuses_an_empty_structure_map(files, capsys):
    path = str(files / "mu0.json")
    hio.dump_json({"mu": []}, path)
    assert main(["search", "--mu", path, "--set", "0,1"]) == 2
    assert "0x0" in capsys.readouterr().err
    assert main(["--format", "json", "search", "--mu", path, "--set", "0,1"]) == 2
    assert "0x0" in json.loads(capsys.readouterr().out)["error"]


def _basis_carriers():
    """One structure of every kind whose file carries a basis."""
    kz2, sd = fx.kz2(), fx.sign_dimodule()
    return [kz2, kz2.algebra, kz2.coalgebra, fx.sign_module(), fx.sign_comodule(),
            yd_module(kz2, 1, sd.action, sd.coaction, sd.mu, sd.basis),
            canonical_dimodule(kz2, kz2),
            replace(sd, kind="halpha-dimodule")]


@pytest.mark.parametrize("bad", ["short", "long", "ints", "not-a-list"])
def test_a_basis_must_be_dim_strings(bad):
    for s in _basis_carriers():
        obj = hio.structure_to_json(s)
        dim = obj["dim"]
        obj["basis"] = {"short": ["a"] * (dim - 1), "long": ["a"] * (dim + 1),
                        "ints": list(range(dim)), "not-a-list": "ab"[:dim]}[bad]
        with pytest.raises(FileFormatError, match="basis"):
            hio.structure_from_json(obj)
        # a missing basis is named by default
        del obj["basis"]
        assert len(hio.structure_from_json(obj).basis) == dim


def test_validate_and_dual_refuse_a_bad_basis(files, capsys):
    obj = json.load(open(p(files, "canonical.json")))
    assert obj["dim"] == 4
    for basis in (["a"], [1, 2, 3, 4]):
        obj["basis"] = basis
        path = str(files / "badbasis.json")
        hio.dump_json(obj, path)
        assert main(["validate", path]) == 2
        assert "basis" in capsys.readouterr().err
        assert main(["build", "dual", "-D", path, "-o", str(files / "dual.json")]) == 2
        assert "basis" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# integer fields

def _with_field(obj, key, literal):
    """The JSON text of obj with obj[key] written as the literal text given."""
    obj = dict(obj, **{key: "@@"})
    return json.dumps(obj).replace('"@@"', literal)


INT_FIELDS = [
    (lambda: hio.structure_to_json(fx.kz2()), "dim"),
    (lambda: hio.structure_to_json(fx.sign_dimodule()), "dim"),
    (lambda: hio.structure_to_json(OperatorOnTensorSquare(2, flip_matrix(2, 2),
                                                          Matrix.identity(2))), "n"),
]


@pytest.mark.parametrize("literal", ["1e999", "2.5", "2.0", "true", '"2"', "null"])
@pytest.mark.parametrize("make, key", INT_FIELDS)
def test_dim_and_n_must_be_json_integers(tmp_path, capsys, make, key, literal):
    path = tmp_path / "bad.json"
    path.write_text(_with_field(make(), key, literal))
    with pytest.raises(FileFormatError, match="'%s': expected an integer" % key):
        hio.load_structure(str(path))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'%s'" % key in err and "Traceback" not in err


@pytest.mark.parametrize("make, key", INT_FIELDS)
def test_a_missing_dim_or_n_is_named(make, key):
    obj = make()
    del obj[key]
    with pytest.raises(FileFormatError, match="missing or invalid '%s'" % key):
        hio.structure_from_json(obj)


@pytest.mark.parametrize("exc", [OverflowError("too big"), ZeroDivisionError("by zero")])
def test_arithmetic_errors_exit_2_with_a_message(files, monkeypatch, capsys, exc):
    def fail(*args):
        raise exc
    monkeypatch.setattr("homlong.cli.check_qybe", fail)
    argv = ["check", "ybe", "--ctx", p(files, "ctx.json"), "-U", p(files, "sign.json"),
            "-V", p(files, "sign.json"), "-W", p(files, "sign.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % exc
    assert main(["--format", "json"] + argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == str(exc)


# ---------------------------------------------------------------------------
# the JSON writer

scalars = (st.none() | st.booleans() | st.integers(-2 ** 130, 2 ** 130)
           | st.floats() | st.text())
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values, st.booleans())
@example([1, True, 0, False, None, 2 ** 64, -2 ** 70, 1.5, [], {}, "é\n\"\\\x00"], False)
@example({"": {}, "b": [[]], "a": [1, [2, [3, {"é": "⊗"}]]]}, True)
def test_json_text_is_json_dumps_byte_for_byte(obj, ensure_ascii):
    assert hio.json_text(obj, ensure_ascii) == json.dumps(
        obj, indent=2, sort_keys=True, ensure_ascii=ensure_ascii)


@pytest.mark.parametrize("obj", [{"a": 1, 2: 3}, {(1, 2): 3}, [object()]])
def test_json_text_refuses_keys_other_than_str_and_unknown_types(obj):
    with pytest.raises(TypeError):
        hio.json_text(obj)


def test_json_text_writes_an_int_key_as_json_dumps_does():
    text = hio.json_text({1: 2})
    assert text == json.dumps({1: 2}, indent=2, sort_keys=True) == '{\n  "1": 2\n}'


DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_committed_json_files_re_emit_byte_for_byte():
    # every file here was written with indent=2 and sorted keys, non-ASCII
    # text as it is or escaped, except demo_build.json (indent=1), whose
    # "written" entries are the files the builds wrote
    written = [w for case in json.loads((DATA / "demo_build.json").read_text()).values()
               for w in [case["written"]] if w is not None]
    texts = [path.read_text() for path in sorted(DATA.glob("*.json"))
             + sorted(DEMO_FILES.glob("*.json")) if path.name != "demo_build.json"]
    assert len(written) > 10 and len(texts) == 16
    for text in texts + written:
        assert hio.json_text(json.loads(text), ensure_ascii=text.isascii()) + "\n" == text


def test_check_entries_compare_hash_print_and_render_as_before():
    witness = ("1⊗1", "1⊗g", "1⊗1")
    c = Check("QYBE", False, witness)
    assert c == Check("QYBE", False, witness) and hash(c) == hash(Check("QYBE", False, witness))
    assert c != Check("QYBE", True, witness) and Check("QYBE", True).witness is None
    assert repr(c) == "Check(axiom='QYBE', passed=False, witness=('1⊗1', '1⊗g', '1⊗1'))"
    assert c.as_tuple() == ("QYBE", "fail", witness)
    with pytest.raises(AttributeError):
        c.passed = True
    rep = AxiomReport().add("QYBE", False, witness).add("hom-long-eq", True, (0, 1, 0))
    rep.set_flag("agreement", True)
    assert str(rep) == ("QYBE                         FAIL  witness=('1⊗1', '1⊗g', '1⊗1')\n"
                        "hom-long-eq                  pass\n"
                        "[flag] agreement             True")
    run = cli.RunReport("check", ["x.json"]).extend(rep)
    assert json.loads(run.render("json"))["checks"] == [
        ["QYBE", "fail", list(witness)], ["hom-long-eq", "pass", [0, 1, 0]]]


def test_reports_and_errors_print_json_dumps_bytes(files, capsys):
    for argv, ensure_ascii in [
            (["check", "ybe", "--ctx", p(files, "ctx.json"), "-U", p(files, "sign.json"),
              "-V", p(files, "trivial.json"), "-W", p(files, "canonical.json")], False),
            (["check", "longeq", "-R", p(files, "flipop.json")], False),
            (["validate", p(files, "broken.json")], False),
            (["validate", p(files, "néant⊗.json")], True)]:
        main(["--format", "json"] + argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True,
                                 ensure_ascii=ensure_ascii) + "\n"
    assert "\\u00e9" in out and "\\u2297" in out


# ---------------------------------------------------------------------------
# one call reads and builds each input once

def test_one_call_reads_each_path_once_and_builds_one_object(monkeypatch, capsys):
    reads, read = [], hio._read
    monkeypatch.setattr(hio, "_read", lambda path: reads.append(os.path.abspath(path))
                        or read(path))
    seen, check_qybe = [], cli.check_qybe
    monkeypatch.setattr(cli, "check_qybe",
                        lambda *args: seen.append(args) or check_qybe(*args))
    monkeypatch.chdir(DEMO_FILES)
    assert main(["check", "ybe", "--ctx", "ctx.json", "-U", "canonical.json",
                 "-V", "./canonical.json", "-W", str(DEMO_FILES / "canonical.json")]) == 0
    assert sorted(reads) == sorted(str(DEMO_FILES / name)
                                   for name in ("ctx.json", "kz2.json", "canonical.json"))
    [(ctx, u, v, w)] = seen
    assert u is v is w
    assert ctx.H is ctx.B      # the context names kz2.json for both
    # a second call reads everything again and builds new objects
    assert main(["check", "ybe", "--ctx", "ctx.json", "-U", "canonical.json",
                 "-V", "canonical.json", "-W", "canonical.json"]) == 0
    assert len(reads) == 6
    assert seen[1][1] is not u and seen[1][0].H is not ctx.H


def test_library_loads_read_and_build_afresh_on_each_call(monkeypatch):
    reads, read = [], hio._read
    monkeypatch.setattr(hio, "_read", lambda path: reads.append(path) or read(path))
    ctx = hio.load_context(str(DEMO_FILES / "ctx.json"))
    first = list(reads)
    assert hio.load_context(str(DEMO_FILES / "ctx.json")).H is not ctx.H
    assert reads == first + first
    path = str(DEMO_FILES / "canonical.json")
    assert hio.load_structure(path) is not hio.load_structure(path)


ALGEBRA_FIELDS = ("kind", "dim", "basis", "mult", "unit", "comult", "counit", "gamma",
                  "antipode")


def _algebra_key(obj):
    return json.dumps({k: obj[k] for k in ALGEBRA_FIELDS if k in obj}, sort_keys=True)


def test_one_call_builds_each_distinct_algebra_once(files, monkeypatch, capsys):
    # the context names kz2.json (with R and form) for H and B; every
    # dimodule file carries its H and B inline
    monkeypatch.chdir(files)
    names = ("canonical", "trivial", "canonical")
    argv = ["--format", "json", "check", "hexagon", "--ctx", "ctx.json"]
    for option, name in zip(("-U", "-V", "-W"), names):
        argv += [option, name + ".json"]
    definitions = [json.loads(pathlib.Path("kz2.json").read_text())]
    for name in names:
        obj = json.loads(pathlib.Path(name + ".json").read_text())
        definitions += [obj["H"], obj["B"]]
    built, build = [], hio.algebra_from_json
    monkeypatch.setattr(hio, "algebra_from_json",
                        lambda obj, *rest: built.append(_algebra_key(obj)) or build(obj, *rest))
    seen, check_hexagons = [], cli.check_hexagons
    monkeypatch.setattr(cli, "check_hexagons",
                        lambda *args: seen.append(args) or check_hexagons(*args))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert sorted(built) == sorted({_algebra_key(obj) for obj in definitions})
    [(ctx, u, v, w)] = seen
    assert ctx.H is ctx.B is u.H is u.B is v.H is v.B     # all kz2
    # library loads, each building its algebras afresh (once per load, as
    # H and B are equal), give the same bytes
    built.clear()
    ctx = hio.load_context("ctx.json")
    dimodules = [hio.load_structure(name + ".json") for name in names]
    assert ctx.H is not dimodules[0].H is not dimodules[2].H
    assert len(built) == 1 + len(names)
    rep = braidcat.check_hexagons(ctx, *dimodules)
    expected = cli.RunReport(*(json.loads(out)[k] for k in ("command", "inputs"))).extend(rep)
    assert out == expected.render("json") + "\n"


def test_algebra_definitions_that_are_not_plain_json_are_built_afresh():
    obj = hio.algebra_to_json(fx.kz2())
    obj["gamma"] = [[ONE, ZERO], [ZERO, ONE]]
    files = hio.Files()
    assert files.algebra(obj, None, "<inline>") is not files.algebra(obj, None, "<inline>")
    plain = hio.algebra_to_json(fx.kz2())
    assert files.algebra(plain, None, "<inline>") is files.algebra(dict(plain), None, "x")


def test_a_file_rewritten_between_calls_is_read_afresh(tmp_path, capsys):
    path = tmp_path / "canonical.json"
    path.write_bytes((DEMO_FILES / "canonical.json").read_bytes())
    assert main(["validate", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["mu"][0][0] = json_scalar(scalar(obj["mu"][0][0]) + 1)
    hio.dump_json(obj, path)
    assert main(["validate", str(path)]) == 1
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: %s: invalid JSON at line 1 column 2\n" % path)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_malformed_second_input_exits_2_with_its_message(files, capsys, fmt):
    bad = p(files, "bad.json")
    pathlib.Path(bad).write_text("{not json")
    argv = ["--format", fmt, "check", "ybe", "--ctx", p(files, "ctx.json"),
            "-U", p(files, "sign.json"), "-V", bad, "-W", p(files, "sign.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    message = "%s: invalid JSON at line 1 column 2" % bad
    if fmt == "text":
        assert captured.err == "error: %s\n" % message
    else:
        assert json.loads(captured.out)["error"] == message


@pytest.mark.parametrize("side, argv", [
    ("H", ["check", "ybe", "-U", "sign.json", "-V", "sign.json", "-W", "sign.json"]),
    ("H", ["check", "hexagon", "-U", "sign.json", "-V", "sign.json", "-W", "sign.json"]),
    ("H", ["check", "symmetry", "-M", "sign.json", "-N", "sign.json"]),
    ("H", ["build", "braid", "-M", "sign.json", "-N", "sign.json", "-o", "out.json"]),
    ("B", ["check", "ybe", "-U", "sign.json", "-V", "sign.json", "-W", "sign.json"]),
])
def test_a_context_with_a_singular_antipode_exits_2(files, monkeypatch, capsys, side, argv):
    # kz2 with antipode [[1, 1], [1, 1]] keeps its R and form valid, and
    # validate flags the antipode; a context over it is refused
    monkeypatch.chdir(files)
    obj = json.loads((files / "kz2.json").read_text())
    obj["antipode"] = [[1, 1], [1, 1]]
    hio.dump_json(obj, files / "singular.json")
    pair = {"H": "kz2.json", "B": "kz2.json", side: "singular.json"}
    hio.dump_json(dict(kind="context", **pair), files / "ctxs.json")
    assert main(["validate", "singular.json"]) == 1
    assert "[flag] hopf:antipode-invertible    False" in capsys.readouterr().out
    argv = argv[:2] + ["--ctx", "ctxs.json"] + argv[2:]
    message = "context needs bijective antipodes on both sides"
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert main(["--format", "json"] + argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == message and report["exit_code"] == 2
    assert not (files / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["check", "ybe", "-U", "sign.json", "-V", "sign.json", "-W", "sign.json"],
    ["check", "symmetry", "-M", "sign.json", "-N", "sign.json"],
    ["build", "braid", "-M", "sign.json", "-N", "sign.json", "-o", "out.json"],
])
def test_a_context_whose_axioms_fail_exits_2(files, monkeypatch, capsys, argv):
    # over kz2, R = [[1, 1], [1, -1]] fails QHA1-QHA3 and the form is valid
    monkeypatch.chdir(files)
    hio.dump_json(dict(kind="context", H="kz2.json", B="kz2.json", R=[[1, 1], [1, -1]]),
                  files / "badr.json")
    argv = argv[:2] + ["--ctx", "badr.json"] + argv[2:]
    message = "context axioms fail: QHA1, QHA2, QHA3"
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert main(["--format", "json"] + argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == message and report["exit_code"] == 2
    assert not (files / "out.json").exists()


# ---------------------------------------------------------------------------
# one braiding per repeated pair

@pytest.mark.parametrize("subject, files_by_option, builds", [
    ("ybe", {"-U": "canonical", "-V": "canonical", "-W": "canonical"}, 1),
    ("symmetry", {"-M": "canonical", "-N": "canonical"}, 1),
    ("hexagon", {"-U": "trivial", "-V": "canonical", "-W": "trivial"}, 3 + 2),
    ("ybe", {"-U": "trivial", "-V": "trivial", "-W": "canonical"}, 2),
])
def test_a_repeated_pair_is_braided_once(files, monkeypatch, capsys, subject, files_by_option,
                                         builds):
    # check hexagon also braids U with V (x) W and U (x) V with W, once each
    monkeypatch.chdir(files)
    argv = ["--format", "json", "--diagnose", "check", subject, "--ctx", "ctx.json"]
    for option, name in files_by_option.items():
        argv += [option, name + ".json"]
    braided, braiding = [], braidcat._braiding
    monkeypatch.setattr(braidcat, "_braiding",
                        lambda ctx, m, n, *rest: braided.append((m, n))
                        or braiding(ctx, m, n, *rest))
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert len(braided) == builds
    # the same check as a library call, on one object per option, braids
    # every pair anew and gives the same report
    braided.clear()
    ctx = hio.load_context("ctx.json")
    dimodules = [hio.load_structure(name + ".json") for name in files_by_option.values()]
    if subject == "symmetry":
        rep = braidcat.check_symmetry(ctx, *dimodules, diagnose=True)
    else:
        rep = {"ybe": braidcat.check_qybe, "hexagon": braidcat.check_hexagons}[subject](
            ctx, *dimodules)
    assert len(braided) == (2 if subject == "symmetry" else 3 if subject == "ybe" else 5)
    expected = cli.RunReport(report["command"], report["inputs"]).extend(rep).to_json()
    assert report == expected and code == expected["exit_code"] == 0


# ---------------------------------------------------------------------------
# fuzzed operator files

# what an entry of a file may hold besides an int: bools, floats, null,
# nested lists, p/q strings, exponents, zero denominators, other strings
fuzz_entries = st.one_of(
    st.integers(-2, 2), st.booleans(), st.floats(), st.none(),
    st.lists(st.integers(-1, 1), max_size=2),
    st.sampled_from(("1/2", "-3/4", "1e9", "1/0", "2.5", "", "x")), st.just(10 ** 9))


@st.composite
def fuzz_matrices(draw, size, entry, square=False):
    """A size x size matrix of entry; unless square, perhaps rows of any
    shape, or a value that is not a list of rows."""
    kind = "square" if square else draw(st.sampled_from(("square", "any", "scalar")))
    if kind == "square" and isinstance(size, int) and not isinstance(size, bool) \
            and 0 <= size <= 9:
        return [[draw(entry) for _ in range(size)] for _ in range(size)]
    if kind == "scalar":
        return draw(fuzz_entries | st.dictionaries(st.sampled_from(("matrix", "mu")),
                                                   fuzz_entries, max_size=1))
    return draw(st.lists(st.lists(entry, max_size=3), max_size=3))


@st.composite
def operator_files(draw):
    """Operator JSON: half of them an operator on a carrier of dim 1 to 3
    with int entries, perhaps with one entry of any kind; the other half of
    any shape: n from 0 to 3 or not an int, a matrix and a mu each square
    for that n or of any shape, perhaps a field dropped, and the kind
    "operator", absent or another."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        ints = st.integers(-2, 2)
        obj = {"kind": "operator", "n": n, "matrix": draw(fuzz_matrices(n * n, ints, True)),
               "mu": draw(fuzz_matrices(n, ints, True))}
        if draw(st.booleans()):
            rows = obj[draw(st.sampled_from(("matrix", "mu")))]
            rows[draw(st.integers(0, len(rows) - 1))][0] = draw(fuzz_entries)
        return obj
    n = draw(st.integers(0, 3) | st.sampled_from((-1, True, 1.0, "2", None, [2])))
    entry = draw(st.sampled_from((st.integers(-2, 2), fuzz_entries)))
    obj = {"kind": draw(st.sampled_from(("operator", "operator", None, "hom-module"))),
           "n": n,
           "matrix": draw(fuzz_matrices(n * n if isinstance(n, int) else n, entry)),
           "mu": draw(fuzz_matrices(n, entry))}
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=1)):
        del obj[key]
    if obj.get("kind", "") is None:
        del obj["kind"]
    return obj


@settings(max_examples=150, deadline=None)
@given(operator_files(), st.sampled_from(("diagonal", "full")))
def test_fuzzed_operator_files_exit_0_1_or_2_without_a_traceback(tmp_path_factory, obj, shape):
    # check longeq, validate and search --mu, in both formats: the exit code
    # is 0, 1 or 2, nothing prints a traceback, and a json run prints one
    # object whose exit_code is the return value
    path = str(tmp_path_factory.mktemp("fuzz") / "op.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    for argv in (["check", "longeq", "-R", path], ["validate", path],
                 ["search", "--mu", path, "--set", "0,1", "--shape", shape]):
        for fmt in ("text", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--format", fmt] + argv)
            assert code in (0, 1, 2), (argv, obj)
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if fmt == "json":
                assert json.loads(out.getvalue())["exit_code"] == code, (argv, obj)


# ---------------------------------------------------------------------------
# fuzzed files of the other kinds

def _fuzz_bases():
    """A valid file of each other kind over kz2, every algebra inline: an
    algebra with R and form, a context, and the five carrier kinds."""
    kz2, sd = fx.kz2(), fx.sign_dimodule()
    alg = dict(hio.algebra_to_json(kz2), R=hio.matrix_json(fx.kz2_rmatrix()),
               form=hio.matrix_json(fx.kz2_form()))
    return {
        "algebra": alg,
        "context": {"kind": "context", "H": alg, "B": alg},
        "hom-module": hio.structure_to_json(fx.sign_module(kz2)),
        "hom-comodule": hio.structure_to_json(fx.sign_comodule(kz2)),
        "yd-module": hio.structure_to_json(
            yd_module(kz2, 1, sd.action, sd.coaction, sd.mu, sd.basis)),
        "halpha-dimodule": hio.structure_to_json(
            replace(sd, kind="halpha-dimodule")),
        "long-dimodule": hio.structure_to_json(
            fx.trivial_dimodule(kz2, kz2, Matrix.diagonal([1, 3]))),
    }


FUZZ_BASES = _fuzz_bases()


@st.composite
def fuzzed_files(draw):
    """(kind, JSON): a valid file of a kind, then one or two changes, each
    at a random place in it, mostly a leaf: an int entry moved by one (so
    the file reads, and its checks may fail), a value replaced by an entry
    or a list of any kind, or a key dropped."""
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    obj = json.loads(json.dumps(FUZZ_BASES[kind]))
    for _ in range(draw(st.integers(1, 2))):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and (parent is None
                                                            or draw(st.integers(0, 4))):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        change = draw(st.sampled_from(("bump", "bump", "replace", "drop")))
        if change == "bump" and isinstance(node, int) and not isinstance(node, bool):
            parent[key] = node + draw(st.sampled_from((-1, 1)))
        elif change == "drop" and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = draw(fuzz_entries | st.lists(st.lists(fuzz_entries, max_size=2),
                                                       max_size=2))
    return kind, obj


@settings(max_examples=60, deadline=None)
@given(fuzzed_files())
def test_fuzzed_files_of_every_kind_exit_0_1_or_2_without_a_traceback(tmp_path_factory, drawn):
    # validate and one check or build per kind, in both formats: the exit
    # code is 0, 1 or 2, nothing prints a traceback, and a json run prints
    # one object whose exit_code is the return value
    kind, obj = drawn
    d = tmp_path_factory.mktemp("fuzz")
    good = str(d / "good.json")
    hio.save_structure(fx.trivial_dimodule(fx.kz2(), fx.kz2(), Matrix.diagonal([1, 3])), good)
    base = str(d / "base.json")
    hio.save_structure(fx.kz2(), base)
    path, out = str(d / "fuzzed.json"), str(d / "out.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    ctx = path
    if kind == "algebra":
        ctx = str(d / "ctx.json")
        with open(ctx, "w") as fh:
            json.dump({"kind": "context", "H": "fuzzed.json", "B": "fuzzed.json"}, fh)
    subject = {
        "algebra": ["check", "symmetry", "--ctx", ctx, "-M", good, "-N", good, "--diagnose"],
        "context": ["check", "symmetry", "--ctx", ctx, "-M", good, "-N", good, "--diagnose"],
        "hom-module": ["build", "extension", "--base", base, "-M", path, "-o", out],
        "hom-comodule": ["build", "extension", "--base", base, "-M", path, "-o", out],
        "yd-module": ["check", "yd", "-M", path],
        "halpha-dimodule": ["build", "dimodule-solution", "-D", path, "-o", out],
        "long-dimodule": ["check", "snake", "-D", path],
    }[kind]
    for argv in (["validate", path], subject):
        for fmt in ("text", "json"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["--format", fmt] + argv)
            assert code in (0, 1, 2), (argv, obj)
            assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
            if fmt == "json":
                assert json.loads(stdout.getvalue())["exit_code"] == code, (argv, obj)
