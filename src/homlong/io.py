"""JSON serialization of every structure the tools exchange.

All scalars are integers or "p/q" strings in canonical form (q > 0).  Files
carry a "kind" discriminator; fields holding another structure (an algebra
under a module, the pair under a dimodule) may be inline objects or paths
relative to the referencing file.  The four algebra kinds and the five
carrier kinds, modules to dimodules, are read, written and validated from
one table, _KINDS, which keeps each kind's algebras, map keys and
validator; an operator's two maps are read by hand.  Every map of every
file, a context's R and form and the maps the CLI reads and writes among
them, is read by load_matrix and written by matrix_json, nested as its key
fixes (_nesting): a product, coproduct, action or coaction as T[i][j][k],
read once into the int columns of its product-like Matrix; a unit or
counit as a flat list; any other map as rows.  A rejected entry is named
by its index.  A Files object lets one command read each file, and build
each structure in it, once; in_file builds each, so a shape refusal names
the file.  json_text, one json.dumps call, is the one JSON writer.
"""

import collections
import json
import os

from .linalg import Matrix, DimensionMismatch, LinalgError, int_columns, scalar
from .homstruct import (HomStructure, require_shape, validate_hom_algebra,
                        validate_hom_coalgebra, validate_all)
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


# How a refusal words a map that is no list, by the number of its legs
_NESTED = {1: "expected a list", 2: "expected a list of rows", 3: "expected a triply nested list"}


def load_matrix(value, where="matrix", nesting=2):
    """The map in value, nested as nesting says (_nesting): 2, a list of
    rows; 1, a flat list (a unit, a counit), read as one column; dims
    (d0, d1, d2), the lists T[i][j][k] of a three-leg map, read as the
    Matrix of its product-like map (Matrix.from_tensor), which must nest as
    dims.  The entries are read once, straight into the Matrix's int
    columns.  A refusal names where, and only a refusal walks value again,
    to name the first rejected entry, or the first item that is no list
    where a list belongs, by its index."""
    try:
        if not isinstance(value, list):
            pass
        elif nesting == 2:
            if all(isinstance(r, list) for r in value):
                return Matrix(value)
        elif nesting == 1:          # one column, read as int_columns reads every map
            return Matrix.from_int_columns(*int_columns([value]), len(value))
        else:                       # a refused nesting names the map by its key
            return Matrix.from_tensor(value, nesting, where.rpartition(".")[2])
    except DimensionMismatch as exc:     # every entry read, the shape wrong
        raise FileFormatError(_ctx(where, str(exc)))
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    legs = nesting if isinstance(nesting, int) else len(nesting)
    if isinstance(value, list):
        _refuse_first(value, legs, where)
    raise FileFormatError(_ctx(where, _NESTED[legs]))


def _refuse_first(value, legs, where):
    """Refuse the first item of the lists value, nested legs deep, that is
    no list where a list belongs or no scalar where an entry does, named by
    its index."""
    for i, x in enumerate(value):
        at = "%s[%d]" % (where, i)
        if legs == 1:
            load_scalar(x, at)
        elif not isinstance(x, list):
            raise FileFormatError(_ctx(at, "expected a list"))
        else:
            _refuse_first(x, legs - 1, at)


def matrix_json(m, nesting=2):
    """The map m as load_matrix reads it with nesting: its rows, the one
    column of a unit or counit as a flat list, or a three-leg map as the
    lists T[i][j][k]; every entry an int or a "p/q" string."""
    if nesting == 2:
        return m.to_json()
    if nesting == 1:
        return [x for x, in m.to_json()]
    # the columns of the product-like map, T[i][j] at i * d1 + j
    cols, d1 = [list(c) for c in zip(*m.to_json())] or [[] for _ in range(m.cols)], nesting[1]
    return [cols[i * d1:(i + 1) * d1] for i in range(nesting[0])]


def _required(obj, key, where):
    """obj[key], refused naming key and where when obj, the object at
    where, lacks it."""
    if key not in obj:
        raise FileFormatError(_ctx(where, "missing '%s'" % key))
    return obj[key]


def load_map_file(path, key, files):
    """The map in the file at path, read through files (a Files): the
    file's own rows, or those of the object in it under key."""
    raw = files.read(path)
    if isinstance(raw, dict):
        return load_matrix(_required(raw, key, path), "%s.%s" % (path, key))
    return load_matrix(raw, path)


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


def _read(path):
    """The JSON value in the UTF-8 file at path; a file that cannot be read
    or decoded is refused as the FileFormatError naming path once."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FileFormatError("no such file", path)
    except json.JSONDecodeError as exc:
        raise FileFormatError("invalid JSON at line %d column %d"
                              % (exc.lineno, exc.colno), path)
    except OSError as exc:
        raise FileFormatError(exc.strerror or str(exc), path)
    except ValueError as exc:
        raise FileFormatError(str(exc), path)


class Files:
    """What one command reads: each file is read, and each structure in it
    built, at most once for as long as this object lives.  A path is keyed
    by its absolute form.  cli.main makes one per call; a loader given none
    makes its own for that call alone."""

    def __init__(self):
        self._made = {}

    def once(self, what, path, make):
        """make(), the first time what is asked of path."""
        key = (what, os.path.abspath(path))
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def read(self, path):
        """The JSON in the file at path."""
        return self.once("json", path, lambda: _read(path))


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
# algebras, modules, dimodules, contexts, operators

# A kind's file keys and its validator: the algebras it is built over, as
# (key, the Carrier fields it holds, part), part None standing for the whole
# structure, of a bialgebra kind; none for an algebra kind; the maps' keys in
# file order, each the field of its name but a carrier's structure map's,
# which is mu (_FIELD).
_Kind = collections.namedtuple("_Kind", "algebras maps validate")
_KINDS = {
    "hom-algebra": _Kind((), ("gamma", "mult", "unit"), validate_hom_algebra),
    "hom-coalgebra": _Kind((), ("gamma", "comult", "counit"), validate_hom_coalgebra),
    "hom-bialgebra": _Kind((), ("gamma", "mult", "unit", "comult", "counit"), validate_all),
    "hom-hopf": _Kind((), ("gamma", "mult", "unit", "comult", "counit", "antipode"),
                      validate_all),
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
_ALGEBRA_KINDS = tuple(kind for kind, spec in _KINDS.items() if not spec.algebras)
_BIALGEBRA_KINDS = ("hom-bialgebra", "hom-hopf")


# the field of a structure that holds the map of a file key, when it is
# not the key itself
_FIELD = {"nu": "mu", "structure_map": "mu"}


def _nesting(key, dim, h=None, b=None):
    """How a file nests the map under key of a structure of dim over h and
    b: a product or coproduct as T[i][j][k] = the coefficient of e_k in
    e_i e_j, or of e_j (x) e_k in Delta(e_i); action[h][i][j] the
    coefficient of m_j in e_h . m_i and coaction[i][a][j] that of
    b_a (x) m_j in rho(m_i); a unit or counit as a flat list; any other map
    as rows."""
    if key in ("mult", "comult"):
        return (dim, dim, dim)
    if key == "action":
        return (h.dim, dim, dim)
    if key == "coaction":
        return (dim, b.dim, dim)
    return 1 if key in ("unit", "counit") else 2


def _load_maps(maps, obj, keys, dim, where, h=None, b=None):
    """maps, with the maps under keys in obj, of a structure of dim over h
    and b, added by field, each read with its key's nesting; a gamma left
    out is the identity, and any other map is required."""
    for key in keys:
        maps[_FIELD.get(key, key)] = (
            load_matrix(obj[key], where + "." + key, _nesting(key, dim, h, b)) if key in obj
            else Matrix.identity(dim) if key == "gamma" else _required(obj, key, where))
    return maps


def algebra_from_json(obj, base_dir=None, where="<inline>"):
    kind = obj.get("kind")
    if kind not in _ALGEBRA_KINDS:
        raise FileFormatError(_ctx(where, "unknown algebra kind %r" % (kind,)))
    dim = _int_field(obj, "dim", where)
    basis = load_basis(obj, dim, where)
    return in_file(where, HomStructure, dim, basis=basis,
                   **_load_maps({}, obj, _KINDS[kind].maps, dim, where))


def _load_algebra_field(obj, key, base_dir, where, files, kinds=None):
    """The algebra in obj[key], its JSON and where that is; with kinds
    given, its kind must be one of them.  An algebra in a file is built once
    per path through files, an inline one where it is read."""
    value = _required(obj, key, where)
    sub, sub_dir, sub_where = _resolve(value, base_dir, where + "." + key, files)
    if isinstance(value, str):
        alg = files.once("algebra", sub_where, lambda: algebra_from_json(sub, sub_dir, sub_where))
    else:
        alg = algebra_from_json(sub, sub_dir, sub_where)
    if kinds and alg.kind not in kinds:
        raise FileFormatError(_ctx(sub_where, "expected a %s structure" % " or ".join(kinds)))
    return alg, sub, sub_where


def _carrier_algebra(obj, kind, key, part, base_dir, where, files):
    """What a carrier of this kind is built over, from obj[key] (see _KINDS)."""
    if part is None:
        return _load_algebra_field(obj, key, base_dir, where, files, _BIALGEBRA_KINDS)[0]
    alg = _load_algebra_field(obj, key, base_dir, where, files)[0]
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
    if kind in _ALGEBRA_KINDS:
        return algebra_from_json(obj, base_dir, where)
    if isinstance(kind, str) and kind in _KINDS:
        fields = dict(H=None, B=None, action=None, coaction=None)
        for key, names, part in _KINDS[kind].algebras:
            alg = _carrier_algebra(obj, kind, key, part, base_dir, where, files)
            fields.update(dict.fromkeys(names.split(), alg))
        dim = _int_field(obj, "dim", where)
        _load_maps(fields, obj, _KINDS[kind].maps, dim, where, fields["H"], fields["B"])
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
    taken from the referenced algebra files, and then named there, their
    shape refusals too).  Each file is read, and each algebra file built,
    through files (a Files) when given."""
    from .braidcat import BraidingContext
    files = files or Files()
    obj = files.read(path)
    if not isinstance(obj, dict):
        raise FileFormatError("expected a JSON object", path)
    algebras = {side: _load_algebra_field(obj, side, os.path.dirname(path), path, files,
                                          ("hom-hopf",)) for side in "HB"}
    maps = []
    for key, side in (("R", "H"), ("form", "B")):
        alg, raw, where = algebras[side]
        if key in obj:
            raw, where = obj, path
        if raw.get(key) is None:
            raise FileFormatError(_ctx(path, "no '%s' in context or in the %s file"
                                       % (key, side)))
        m = load_matrix(raw[key], "%s.%s" % (where, key))
        in_file(where, require_shape, m, (alg.dim, alg.dim), key)
        maps += [alg, m]
    return in_file(path, BraidingContext, *maps)


def structure_to_json(s):
    """The JSON of an algebra, a carrier or an operator, as
    structure_from_json reads it back."""
    if isinstance(s, OperatorOnTensorSquare):
        return {"kind": "operator", "n": s.carrier_dim,
                "mu": matrix_json(s.structure_map), "matrix": matrix_json(s.matrix)}
    if not isinstance(s, (HomStructure, Carrier)):
        raise TypeError("cannot serialize %r" % (type(s),))
    spec, h, b = _KINDS[s.kind], getattr(s, "H", None), getattr(s, "B", None)
    out = {"kind": s.kind, "dim": s.dim, "basis": list(s.basis)}
    out.update((key, structure_to_json(getattr(s, names.split()[0])))
               for key, names, _ in spec.algebras)
    out.update((key, matrix_json(getattr(s, _FIELD.get(key, key)), _nesting(key, s.dim, h, b)))
               for key in spec.maps)
    return out


algebra_to_json = structure_to_json


def save_structure(s, path):
    dump_json(structure_to_json(s), path)


def dump_json(obj, path):
    text = json_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def json_text(obj, ensure_ascii=False):
    """obj as JSON text in the one format of every report and written file."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=ensure_ascii)
