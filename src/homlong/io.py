"""JSON serialization of every structure the tools exchange.

All scalars are integers or "p/q" strings in canonical form (q > 0).  Files
carry a "kind" discriminator; fields holding another structure (an algebra
under a module, the pair under a dimodule) may be inline objects or paths
relative to the referencing file.  The five carrier kinds, modules to
dimodules, are each a repmod.Carrier, read, written and validated from one
table, _CARRIERS, which keeps each kind's file keys.  A three-leg map is
written nested, T[i][j][k], as its structure fixes (_nesting), and read
once against that nesting into the int columns of its product-like Matrix.
A Files object lets one command read each file, and build each structure
in it, once; in_file builds each, so a shape refusal names the file.
json_text, one json.dumps call, is the one JSON writer.
"""

import collections
import json
import os

from .linalg import Matrix, DimensionMismatch, LinalgError, scalar
from .homstruct import HomStructure
from .repmod import (Carrier, validate_hom_module, validate_hom_comodule,
                     validate_yd_module)
from .longdimod import validate_long_dimodule
from .longeq import OperatorOnTensorSquare


class FileFormatError(Exception):
    def __init__(self, message, path=None):
        if path:
            message = "%s: %s" % (path, message)
        super().__init__(message)
        self.path = path


def _ctx(where, what):
    return "%s (%s)" % (what, where)


def in_file(where, make, *args, **kwargs):
    """make(*args, **kwargs), a structure a file holds or a check of one; a
    LinalgError (a map of the wrong shape) is refused as the
    FileFormatError naming where."""
    try:
        return make(*args, **kwargs)
    except LinalgError as exc:
        raise FileFormatError(_ctx(where, str(exc)))


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
    """The flat list entries (a unit, a counit) as a one-column Matrix."""
    if not isinstance(entries, list):
        raise FileFormatError(_ctx(where, "expected a list"))
    try:
        return Matrix([[x] for x in entries], cols=1)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(_ctx(where, str(exc)))


def _required(obj, key, where):
    """obj[key], refused naming key and where when obj, the object at
    where, lacks it."""
    if key not in obj:
        raise FileFormatError(_ctx(where, "missing '%s'" % key))
    return obj[key]


def load_tensor(obj, key, where, dims):
    """The three-leg map nested in obj[key] as T[i][j][k], which must nest as
    dims: the Matrix of its product-like map, its entries read straight into
    its int columns (linalg.Matrix.from_tensor).  Ragged or otherwise nested
    data and a bad entry are refused naming the field."""
    data, where = _required(obj, key, where), "%s.%s" % (where, key)
    if not isinstance(data, list):
        raise FileFormatError(_ctx(where, "expected a triply nested list"))
    try:
        return Matrix.from_tensor(data, dims, key)
    except DimensionMismatch as exc:     # every entry read, the nesting wrong
        raise FileFormatError(_ctx(where, str(exc)))
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    # a rejected entry or a bad nesting: read again, naming each entry
    try:
        return Matrix.from_tensor([[[load_scalar(x, "%s[%d][%d][%d]" % (where, i, j, k))
                                     for k, x in enumerate(row)]
                                    for j, row in enumerate(plane)]
                                   for i, plane in enumerate(data)], dims, key)
    except TypeError:
        raise FileFormatError(_ctx(where, "expected a triply nested list"))


def tensor_json(m, dims):
    """The product-like Matrix m of a three-leg map as the nested lists
    T[i][j][k] for its dims, the entries as to_json writes them."""
    cols, d1 = m.transpose().to_json(), dims[1]
    return [cols[i * d1:(i + 1) * d1] for i in range(dims[0])]


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


def _read(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FileFormatError("no such file", path)
    except json.JSONDecodeError as exc:
        raise FileFormatError("invalid JSON at line %d column %d"
                              % (exc.lineno, exc.colno), path)


class Files:
    """What one command reads: each file is read, and each structure in it
    built, at most once for as long as this object lives, and equal algebra
    definitions, inline or in a file, build one algebra.  A path is keyed
    by its absolute form.  cli.main makes one per call; a loader given none
    makes its own for that call alone."""

    def __init__(self):
        self._made = {}

    def _once(self, key, make):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def once(self, what, path, make):
        """make(), the first time what is asked of path."""
        return self._once((what, os.path.abspath(path)), make)

    def read(self, path):
        """The JSON in the file at path."""
        return self.once("json", path, lambda: _read(path))

    def algebra(self, obj, base_dir, where):
        """algebra_from_json(obj, base_dir, where), built once for all
        definitions with the same canonical JSON of the algebra's own
        fields (an algebra file's R and form are not among them).  A
        definition that is not plain JSON is built afresh."""
        try:
            key = json.dumps({k: obj[k] for k in _ALGEBRA_FIELDS if k in obj},
                             sort_keys=True)
        except TypeError:
            return algebra_from_json(obj, base_dir, where)
        return self._once(("algebra", key), lambda: algebra_from_json(obj, base_dir, where))


def _resolve(obj, base_dir, where, files):
    """A field may be a path (string) to a file holding an object, or an
    inline object."""
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(base_dir or ".", obj)
        sub = files.read(path)
        if not isinstance(sub, dict):
            raise FileFormatError("expected a JSON object", path)
        return sub, os.path.dirname(path), path
    if isinstance(obj, dict):
        return obj, base_dir, where
    raise FileFormatError(_ctx(where, "expected a path or an inline object"))


def _int_field(obj, key, where):
    """obj[key], which must be a JSON integer (a bool is not one)."""
    value = obj.get(key)
    if type(value) is not int:
        raise FileFormatError(_ctx(where, "missing or invalid %r: expected an integer"
                                   % key))
    return value


# ---------------------------------------------------------------------------
# algebras

_ALGEBRA_FIELDS = ("kind", "dim", "basis", "mult", "unit", "comult", "counit", "gamma",
                   "antipode")


def algebra_from_json(obj, base_dir=None, where="<inline>"):
    kind = obj.get("kind")
    if kind not in ("hom-algebra", "hom-coalgebra", "hom-bialgebra", "hom-hopf"):
        raise FileFormatError(_ctx(where, "unknown algebra kind %r" % (kind,)))
    dim = _int_field(obj, "dim", where)
    basis = load_basis(obj, dim, where)
    gamma = load_matrix(obj["gamma"], where + ".gamma") if "gamma" in obj \
        else Matrix.identity(dim)
    parts = {}
    if kind != "hom-coalgebra":
        if "mult" not in obj or "unit" not in obj:
            raise FileFormatError(_ctx(where, "algebra needs 'mult' and 'unit'"))
        parts.update(mult=load_tensor(obj, "mult", where, (dim, dim, dim)),
                     unit=load_vector(obj["unit"], where + ".unit"))
    if kind != "hom-algebra":
        if "comult" not in obj or "counit" not in obj:
            raise FileFormatError(_ctx(where, "coalgebra needs 'comult' and 'counit'"))
        parts.update(comult=load_tensor(obj, "comult", where, (dim, dim, dim)),
                     counit=load_vector(obj["counit"], where + ".counit"))
    if kind == "hom-hopf":
        if "antipode" not in obj:
            raise FileFormatError(_ctx(where, "hom-hopf needs 'antipode'"))
        parts["antipode"] = load_matrix(obj["antipode"], where + ".antipode")
    return in_file(where, HomStructure, dim, gamma, basis=basis, **parts)


def algebra_to_json(h):
    out = {"kind": h.kind, "dim": h.dim, "basis": list(h.basis)}
    for key in ("mult", "unit", "comult", "counit", "gamma", "antipode"):
        value = getattr(h, key)
        if key in ("mult", "comult") and value is not None:
            out[key] = tensor_json(value, (h.dim, h.dim))
        elif value is not None:
            rows = value.to_json()
            # the unit and counit, one-column matrices, as load_vector reads them
            out[key] = [x for x, in rows] if key in ("unit", "counit") else rows
    return out


_BIALGEBRA_KINDS = ("hom-bialgebra", "hom-hopf")


def _load_algebra_field(obj, key, base_dir, where, files, kinds=None):
    """The algebra in obj[key] and its JSON; with kinds given, its kind
    must be one of them."""
    sub, sub_dir, sub_where = _resolve(_required(obj, key, where), base_dir,
                                       where + "." + key, files)
    alg = files.algebra(sub, sub_dir, sub_where)
    if kinds and alg.kind not in kinds:
        raise FileFormatError(_ctx(sub_where, "expected a %s structure" % " or ".join(kinds)))
    return alg, sub


# ---------------------------------------------------------------------------
# modules, dimodules, contexts, operators

# A carrier kind's file keys and its validator: the algebras as (key, the
# Carrier fields it holds, part), part None standing for the whole
# structure, of a bialgebra kind; the maps' keys in file order, each the
# Carrier field of its name but the structure map's, which is mu.
_Kind = collections.namedtuple("_Kind", "algebras maps validate")
_CARRIERS = {
    "hom-module": _Kind((("over", "H", "algebra"),), ("action", "nu"), validate_hom_module),
    "hom-comodule": _Kind((("over", "B", "coalgebra"),), ("coaction", "mu"),
                          validate_hom_comodule),
    "yd-module": _Kind((("over", "H B", None),), ("action", "coaction", "structure_map"),
                       validate_yd_module),
    "halpha-dimodule": _Kind((("H", "H B", None),), ("action", "coaction", "mu"),
                             validate_long_dimodule),
    "long-dimodule": _Kind((("H", "H", None), ("B", "B", None)), ("action", "coaction", "mu"),
                           validate_long_dimodule),
}


def _field(key):
    """The Carrier field of a map's file key."""
    return key if key in ("action", "coaction") else "mu"


def _nesting(key, dim, h, b):
    """How a file nests the action or coaction of a carrier of dim over h
    and b: action[h][i][j] is the coefficient of m_j in e_h . m_i and
    coaction[i][a][j] that of b_a (x) m_j in rho(m_i)."""
    return (h.dim, dim, dim) if key == "action" else (dim, b.dim, dim)


def _carrier_algebra(obj, kind, key, part, base_dir, where, files):
    """What a carrier of this kind is built over, from obj[key] (see _CARRIERS)."""
    if part is None:
        return _load_algebra_field(obj, key, base_dir, where, files, _BIALGEBRA_KINDS)[0]
    alg, _ = _load_algebra_field(obj, key, base_dir, where, files)
    needs, words = ("mult", "an algebra") if part == "algebra" else ("comult", "a coalgebra")
    if getattr(alg, needs) is None:
        raise FileFormatError(_ctx(where, "%s '%s' must carry %s" % (kind[4:], key, words)))
    return getattr(alg, part)


def structure_from_json(obj, base_dir=None, where="<inline>", files=None):
    """Dispatch on 'kind'; returns the loaded structure.  An algebra field
    given as a path is read and built through files (a Files)."""
    files = files or Files()
    if not isinstance(obj, dict):
        raise FileFormatError(_ctx(where, "expected a JSON object"))
    kind = obj.get("kind")
    if kind in ("hom-algebra", "hom-coalgebra", "hom-bialgebra", "hom-hopf"):
        return files.algebra(obj, base_dir, where)
    if isinstance(kind, str) and kind in _CARRIERS:
        fields = dict(H=None, B=None, action=None, coaction=None)
        for key, names, part in _CARRIERS[kind].algebras:
            alg = _carrier_algebra(obj, kind, key, part, base_dir, where, files)
            fields.update(dict.fromkeys(names.split(), alg))
        dim = _int_field(obj, "dim", where)
        for key in _CARRIERS[kind].maps:
            fields[_field(key)] = (
                load_matrix(_required(obj, key, where), where + "." + key)
                if _field(key) == "mu" else
                load_tensor(obj, key, where, _nesting(key, dim, fields["H"], fields["B"])))
        return in_file(where, Carrier, dim=dim, basis=load_basis(obj, dim, where), kind=kind,
                       **fields)
    if kind == "operator":
        n = _int_field(obj, "n", where)
        return in_file(where, OperatorOnTensorSquare, n,
                       load_matrix(_required(obj, "matrix", where), where + ".matrix"),
                       load_matrix(_required(obj, "mu", where), where + ".mu"))
    raise FileFormatError(_ctx(where, "unknown kind %r" % (kind,)))


def load_structure(path, files=None):
    """The structure in the file at path.  Given files (a Files), a file
    they hold is not read again, and a structure they hold is returned as
    it is."""
    files = files or Files()

    def build():
        obj = files.read(path)
        try:
            return structure_from_json(obj, os.path.dirname(path), path, files)
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(str(exc), path)

    return files.once("structure", path, build)


def load_context(path, files=None):
    """Context file: H, B (paths or inline), R and form (inline matrices or
    taken from the referenced algebra files).  Each file is read, and each
    algebra file built, through files (a Files) when given."""
    from .braidcat import BraidingContext
    files = files or Files()
    obj = files.read(path)
    if not isinstance(obj, dict):
        raise FileFormatError("expected a JSON object", path)
    where = path
    h, h_raw = _load_algebra_field(obj, "H", os.path.dirname(path), where, files,
                                   ("hom-hopf",))
    b, b_raw = _load_algebra_field(obj, "B", os.path.dirname(path), where, files,
                                   ("hom-hopf",))
    r_field = obj.get("R", h_raw.get("R"))
    if r_field is None:
        raise FileFormatError(_ctx(where, "no 'R' in context or in the H file"))
    form_field = obj.get("form", b_raw.get("form"))
    if form_field is None:
        raise FileFormatError(_ctx(where, "no 'form' in context or in the B file"))
    return in_file(where, BraidingContext, h, load_matrix(r_field, where + ".R"),
                   b, load_matrix(form_field, where + ".form"))


def structure_to_json(s):
    if isinstance(s, HomStructure):
        return algebra_to_json(s)
    if isinstance(s, Carrier):
        spec = _CARRIERS[s.kind]
        out = {"kind": s.kind, "dim": s.dim, "basis": list(s.basis)}
        out.update((key, algebra_to_json(getattr(s, names.split()[0])))
                   for key, names, _ in spec.algebras)
        out.update((key, s.mu.to_json() if _field(key) == "mu" else
                    tensor_json(getattr(s, key), _nesting(key, s.dim, s.H, s.B)))
                   for key in spec.maps)
        return out
    if isinstance(s, OperatorOnTensorSquare):
        return {"kind": "operator", "n": s.carrier_dim,
                "mu": matrix_json(s.structure_map), "matrix": matrix_json(s.matrix)}
    raise TypeError("cannot serialize %r" % (type(s),))


def save_structure(s, path):
    dump_json(structure_to_json(s), path)


def dump_json(obj, path):
    text = json_text(obj)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def json_text(obj, ensure_ascii=False):
    """obj as JSON text in the one format of every report and written file."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=ensure_ascii)
