"""JSON serialization of every structure the tools exchange.

All scalars are integers or "p/q" strings in canonical form (q > 0).  Files
carry a "kind" discriminator; fields holding another structure (an algebra
under a module, the pair under a dimodule) may be inline objects or paths
relative to the referencing file.
"""

import dataclasses
import json
import os

from .linalg import Matrix, Tensor3, Vector, scalar, scalar_to_json
from .homstruct import HomAlgebra, HomCoalgebra, HomBialgebra
from .repmod import HomModule, HomComodule, YetterDrinfeldModule
from .longdimod import HomLongDimodule
from .longeq import HAlphaLongDimodule, OperatorOnTensorSquare


class FileFormatError(Exception):
    def __init__(self, message, path=None):
        if path:
            message = "%s: %s" % (path, message)
        super().__init__(message)
        self.path = path


def _ctx(where, what):
    return "%s (%s)" % (what, where)


def load_scalar(v, where="scalar"):
    try:
        return scalar(v)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(_ctx(where, str(exc)))


def load_matrix(rows, where="matrix"):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FileFormatError(_ctx(where, "expected a list of rows"))
    # Matrix reads the entries straight into its int columns, each with
    # scalar as load_scalar does
    try:
        return Matrix(rows)
    except Exception as exc:
        raise FileFormatError(_ctx(where, str(exc)))


def load_vector(entries, where="vector"):
    if not isinstance(entries, list):
        raise FileFormatError(_ctx(where, "expected a list"))
    try:
        return Vector(entries)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(_ctx(where, str(exc)))


def load_tensor3(data, where="tensor", coproduct=False):
    """The Tensor3 in data, its entries read straight into the int columns of
    the reading its field needs: product-like (mult, action) or, with
    coproduct set, coproduct-like (comult, coaction)."""
    if not isinstance(data, list):
        raise FileFormatError(_ctx(where, "expected a triply nested list"))
    try:
        return Tensor3(data, coproduct=coproduct)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    # a rejected entry or a bad nesting: read again, naming each entry
    try:
        return Tensor3([[[load_scalar(x, "%s[%d][%d][%d]" % (where, i, j, k))
                          for k, x in enumerate(row)]
                         for j, row in enumerate(plane)]
                        for i, plane in enumerate(data)], coproduct=coproduct)
    except TypeError:
        raise FileFormatError(_ctx(where, "expected a triply nested list"))


def load_basis(obj, dim, where):
    """The basis names in obj, exactly dim strings, or None when it gives
    none."""
    names = obj.get("basis")
    if names is None:
        return None
    if not (isinstance(names, list) and len(names) == dim
            and all(isinstance(x, str) for x in names)):
        raise FileFormatError(_ctx(where + ".basis", "expected a list of %d names" % dim))
    return tuple(names)


def matrix_json(m):
    return m.to_json()


def vector_json(v):
    return [scalar_to_json(x) for x in v]


def tensor3_json(t):
    return t.to_json()


def _read(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FileFormatError("no such file", path)
    except json.JSONDecodeError as exc:
        raise FileFormatError("invalid JSON at line %d column %d"
                              % (exc.lineno, exc.colno), path)


def _resolve(obj, base_dir, where):
    """A field may be a path (string) or an inline object."""
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(base_dir or ".", obj)
        return _read(path), os.path.dirname(path), path
    if isinstance(obj, dict):
        return obj, base_dir, where
    raise FileFormatError(_ctx(where, "expected a path or an inline object"))


# ---------------------------------------------------------------------------
# algebras

def algebra_from_json(obj, base_dir=None, where="<inline>"):
    kind = obj.get("kind")
    if kind not in ("hom-algebra", "hom-coalgebra", "hom-bialgebra", "hom-hopf"):
        raise FileFormatError(_ctx(where, "unknown algebra kind %r" % (kind,)))
    try:
        dim = int(obj["dim"])
    except (KeyError, TypeError, ValueError):
        raise FileFormatError(_ctx(where, "missing or invalid 'dim'"))
    basis = load_basis(obj, dim, where) or tuple("e%d" % i for i in range(dim))
    gamma = load_matrix(obj["gamma"], where + ".gamma") if "gamma" in obj \
        else Matrix.identity(dim)

    def algebra_part():
        if "mult" not in obj or "unit" not in obj:
            raise FileFormatError(_ctx(where, "algebra needs 'mult' and 'unit'"))
        return HomAlgebra(dim, load_tensor3(obj["mult"], where + ".mult"),
                          load_vector(obj["unit"], where + ".unit"), gamma, basis)

    def coalgebra_part():
        if "comult" not in obj or "counit" not in obj:
            raise FileFormatError(_ctx(where, "coalgebra needs 'comult' and 'counit'"))
        return HomCoalgebra(dim, load_tensor3(obj["comult"], where + ".comult", coproduct=True),
                            load_vector(obj["counit"], where + ".counit"), gamma, basis)

    try:
        if kind == "hom-algebra":
            return algebra_part()
        if kind == "hom-coalgebra":
            return coalgebra_part()
        bi = HomBialgebra(algebra_part(), coalgebra_part())
        if kind == "hom-bialgebra":
            return bi
        if "antipode" not in obj:
            raise FileFormatError(_ctx(where, "hom-hopf needs 'antipode'"))
        return dataclasses.replace(bi, antipode=load_matrix(obj["antipode"],
                                                           where + ".antipode"))
    except FileFormatError:
        raise
    except Exception as exc:
        raise FileFormatError(_ctx(where, str(exc)))


def algebra_to_json(h):
    out = {}
    if isinstance(h, HomAlgebra):
        out.update(kind="hom-algebra", dim=h.dim, basis=list(h.basis),
                   mult=tensor3_json(h.mult), unit=vector_json(h.unit),
                   gamma=matrix_json(h.alpha))
        return out
    if isinstance(h, HomCoalgebra):
        out.update(kind="hom-coalgebra", dim=h.dim, basis=list(h.basis),
                   comult=tensor3_json(h.comult), counit=vector_json(h.counit),
                   gamma=matrix_json(h.beta))
        return out
    out.update(kind=h.kind, dim=h.dim, basis=list(h.basis),
               mult=tensor3_json(h.mult), unit=vector_json(h.unit),
               comult=tensor3_json(h.comult), counit=vector_json(h.counit),
               gamma=matrix_json(h.gamma))
    if h.antipode is not None:
        out["antipode"] = matrix_json(h.antipode)
    return out


def _load_algebra_field(obj, key, base_dir, where, expect_hopf=False):
    if key not in obj:
        raise FileFormatError(_ctx(where, "missing '%s'" % key))
    sub, sub_dir, sub_where = _resolve(obj[key], base_dir, where + "." + key)
    alg = algebra_from_json(sub, sub_dir, sub_where)
    if expect_hopf and not (isinstance(alg, HomBialgebra) and alg.antipode is not None):
        raise FileFormatError(_ctx(sub_where, "expected a hom-hopf structure"))
    return alg, sub


# ---------------------------------------------------------------------------
# modules, dimodules, contexts, operators

def structure_from_json(obj, base_dir=None, where="<inline>"):
    """Dispatch on 'kind'; returns the loaded structure."""
    if not isinstance(obj, dict):
        raise FileFormatError(_ctx(where, "expected a JSON object"))
    kind = obj.get("kind")
    if kind in ("hom-algebra", "hom-coalgebra", "hom-bialgebra", "hom-hopf"):
        return algebra_from_json(obj, base_dir, where)
    if kind == "hom-module":
        over, _ = _load_algebra_field(obj, "over", base_dir, where)
        alg = over.algebra if not isinstance(over, (HomAlgebra, HomCoalgebra)) else over
        if isinstance(alg, HomCoalgebra):
            raise FileFormatError(_ctx(where, "module 'over' must carry an algebra"))
        dim = int(obj["dim"])
        return HomModule(alg, dim, load_tensor3(obj["action"], where + ".action"),
                         load_matrix(obj["nu"], where + ".nu"),
                         load_basis(obj, dim, where))
    if kind == "hom-comodule":
        over, _ = _load_algebra_field(obj, "over", base_dir, where)
        coa = over.coalgebra if not isinstance(over, (HomAlgebra, HomCoalgebra)) else over
        if isinstance(coa, HomAlgebra):
            raise FileFormatError(_ctx(where, "comodule 'over' must carry a coalgebra"))
        dim = int(obj["dim"])
        return HomComodule(coa, dim, load_tensor3(obj["coaction"], where + ".coaction",
                                                  coproduct=True),
                           load_matrix(obj["mu"], where + ".mu"),
                           load_basis(obj, dim, where))
    if kind == "yd-module":
        over, _ = _load_algebra_field(obj, "over", base_dir, where)
        if not isinstance(over, HomBialgebra):
            raise FileFormatError(_ctx(where, "yd-module 'over' must be a bialgebra"))
        dim = int(obj["dim"])
        return YetterDrinfeldModule(over, dim,
                                    load_tensor3(obj["action"], where + ".action"),
                                    load_tensor3(obj["coaction"], where + ".coaction",
                                                 coproduct=True),
                                    load_matrix(obj["structure_map"], where + ".structure_map"),
                                    load_basis(obj, dim, where))
    if kind == "long-dimodule":
        h, _ = _load_algebra_field(obj, "H", base_dir, where)
        b, _ = _load_algebra_field(obj, "B", base_dir, where)
        dim = int(obj["dim"])
        return HomLongDimodule(h, b, dim,
                               load_tensor3(obj["action"], where + ".action"),
                               load_tensor3(obj["coaction"], where + ".coaction", coproduct=True),
                               load_matrix(obj["mu"], where + ".mu"),
                               load_basis(obj, dim, where))
    if kind == "halpha-dimodule":
        h, _ = _load_algebra_field(obj, "H", base_dir, where)
        dim = int(obj["dim"])
        return HAlphaLongDimodule(h, dim,
                                  load_tensor3(obj["action"], where + ".action"),
                                  load_tensor3(obj["coaction"], where + ".coaction",
                                               coproduct=True),
                                  load_matrix(obj["mu"], where + ".mu"),
                                  load_basis(obj, dim, where))
    if kind == "operator":
        n = int(obj["n"])
        op = OperatorOnTensorSquare(n, load_matrix(obj["matrix"], where + ".matrix"),
                                    load_matrix(obj["mu"], where + ".mu"))
        return op
    raise FileFormatError(_ctx(where, "unknown kind %r" % (kind,)))


def load_structure(path, obj=None):
    """The structure in the file at path; obj, when given, is that file's
    JSON as already read, so the file is not read again."""
    if obj is None:
        obj = _read(path)
    try:
        return structure_from_json(obj, os.path.dirname(path), path)
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(str(exc), path)


def load_context(path):
    """Context file: H, B (paths or inline), R and form (inline matrices or
    taken from the referenced algebra files)."""
    from .braidcat import BraidingContext
    obj = _read(path)
    where = path
    h, h_raw = _load_algebra_field(obj, "H", os.path.dirname(path), where, expect_hopf=True)
    b, b_raw = _load_algebra_field(obj, "B", os.path.dirname(path), where, expect_hopf=True)
    r_field = obj.get("R", h_raw.get("R"))
    if r_field is None:
        raise FileFormatError(_ctx(where, "no 'R' in context or in the H file"))
    form_field = obj.get("form", b_raw.get("form"))
    if form_field is None:
        raise FileFormatError(_ctx(where, "no 'form' in context or in the B file"))
    return BraidingContext(h, load_matrix(r_field, where + ".R"),
                           b, load_matrix(form_field, where + ".form"))


def structure_to_json(s):
    if isinstance(s, (HomAlgebra, HomCoalgebra, HomBialgebra)):
        return algebra_to_json(s)
    if isinstance(s, HomModule):
        return {"kind": "hom-module", "over": algebra_to_json(s.over),
                "dim": s.dim, "basis": list(s.basis),
                "action": tensor3_json(s.action), "nu": matrix_json(s.nu)}
    if isinstance(s, HomComodule):
        return {"kind": "hom-comodule", "over": algebra_to_json(s.over),
                "dim": s.dim, "basis": list(s.basis),
                "coaction": tensor3_json(s.coaction), "mu": matrix_json(s.mu)}
    if isinstance(s, YetterDrinfeldModule):
        return {"kind": "yd-module", "over": algebra_to_json(s.over),
                "dim": s.dim, "basis": list(s.basis),
                "action": tensor3_json(s.action), "coaction": tensor3_json(s.coaction),
                "structure_map": matrix_json(s.structure_map)}
    if isinstance(s, HomLongDimodule):
        return {"kind": "long-dimodule", "H": algebra_to_json(s.H),
                "B": algebra_to_json(s.B), "dim": s.dim, "basis": list(s.basis),
                "action": tensor3_json(s.action), "coaction": tensor3_json(s.coaction),
                "mu": matrix_json(s.mu)}
    if isinstance(s, HAlphaLongDimodule):
        return {"kind": "halpha-dimodule", "H": algebra_to_json(s.H),
                "dim": s.dim, "basis": list(s.basis),
                "action": tensor3_json(s.action), "coaction": tensor3_json(s.coaction),
                "mu": matrix_json(s.mu)}
    if isinstance(s, OperatorOnTensorSquare):
        return {"kind": "operator", "n": s.carrier_dim,
                "mu": matrix_json(s.structure_map), "matrix": matrix_json(s.matrix)}
    raise TypeError("cannot serialize %r" % (type(s),))


def save_structure(s, path):
    dump_json(structure_to_json(s), path)


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
