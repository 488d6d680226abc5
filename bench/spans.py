"""Span recorder for the traced run.

Spans are recorded only from the benchmark's own files: `Tracer.install`
replaces each listed public homlong function with a wrapper, in its defining
module and in every homlong module that imported it by name (for example
`homlong.longeq.kron`), and replaces the listed `Matrix`, `Tensor3` and
`Vector` methods on the classes. A name that a later version of homlong no
longer has is skipped and its metrics read 0.

Each span is (name, start, end, parent, op id), kept in memory and reduced
when the run ends. A span's self time is its duration minus the durations of
its child spans and minus the bookkeeping the recorder did inside it (operand
density scans), so self times partition the traced op wall time exactly,
together with the benchmark's own time inside ops.
"""

import os
import sys
import time

# (span name, homlong submodule, attribute or Class.method)
TARGETS = [
    ("linalg.mul", "linalg", "Matrix.__mul__"),
    ("linalg.kron", "linalg", "kron"),
    ("linalg.init", "linalg", "Matrix.__init__"),
    ("linalg.init", "linalg", "Tensor3.__init__"),
    ("linalg.init", "linalg", "Vector.__init__"),
    ("linalg.inv", "linalg", "Matrix.inv"),
    ("linalg.det", "linalg", "Matrix.det"),
    ("linalg.solve_exact", "linalg", "solve_exact"),
    ("linalg.permute", "linalg", "perm_matrix"),
    ("linalg.permute", "linalg", "permute_output_legs"),
    ("linalg.permute", "linalg", "permute_input_legs"),
    ("report.matrices_equal", "report", "matrices_equal_report"),
    ("longeq.check_long_equation", "longeq", "check_long_equation"),
    ("longeq.extension", "longeq", "module_extension"),
    ("longeq.extension", "longeq", "comodule_extension"),
    ("longeq.dimodule_solution", "longeq", "dimodule_solution"),
    ("longeq.validate_halpha", "longeq", "validate_halpha_dimodule"),
    ("longeq.search", "longeq", "search_solutions"),
    ("longeq.coordinate_criterion", "longeq", "coordinate_criterion"),
    ("longeq.tau_transforms", "longeq", "tau_transforms"),
    ("braidcat.long_braiding", "braidcat", "long_braiding"),
    ("braidcat.check_hexagons", "braidcat", "check_hexagons"),
    ("braidcat.check_qybe", "braidcat", "check_qybe"),
    ("braidcat.check_symmetry", "braidcat", "check_symmetry"),
    ("longdimod.associator", "longdimod", "associator"),
    ("longdimod.tensor_dimodule", "longdimod", "tensor_dimodule"),
    ("longdimod.check_coherence", "longdimod", "check_coherence"),
    ("longdimod.check_snake", "longdimod", "check_snake"),
    ("longdimod.validate", "longdimod", "validate_long_dimodule"),
    ("longdimod.duals", "longdimod", "left_dual"),
    ("longdimod.duals", "longdimod", "right_dual"),
    ("homstruct.validate_quasitriangular", "homstruct", "validate_quasitriangular"),
    ("homstruct.validate_coquasitriangular", "homstruct", "validate_coquasitriangular"),
    ("homstruct.validate_all", "homstruct", "validate_all"),
    ("repmod.validate", "repmod", "validate_hom_module"),
    ("repmod.validate", "repmod", "validate_hom_comodule"),
    ("io.load", "io", "load_structure"),
    ("io.load", "io", "load_context"),
    ("io.read", "io", "_read"),
    ("io.dump", "io", "dump_json"),
    ("cli.main", "cli", "main"),
]

# Per-layer metrics, in the order BENCHMARK.json lists them. Counts and
# times are per traced cycle, so runs with different cycle counts compare.
CALLS_AND_SELF = [
    "linalg.mul", "linalg.kron", "linalg.inv", "report.matrices_equal",
    "longeq.check_long_equation",
    "braidcat.long_braiding", "braidcat.check_hexagons", "braidcat.check_qybe",
    "braidcat.check_symmetry",
    "longdimod.associator", "longdimod.tensor_dimodule", "longdimod.check_coherence",
    "longdimod.check_snake", "longdimod.validate", "longdimod.duals",
]
SELF_ONLY = [
    "linalg.init", "linalg.det", "linalg.solve_exact", "linalg.permute",
    "longeq.extension", "longeq.dimodule_solution", "longeq.validate_halpha",
    "longeq.search", "longeq.coordinate_criterion", "longeq.tau_transforms",
    "homstruct.validate_quasitriangular", "homstruct.validate_coquasitriangular",
    "homstruct.validate_all", "repmod.validate", "io.dump", "cli.main",
]
EXTRA = [
    ("linalg.mul.out_entries", "count"),
    ("linalg.mul.operand_density", "ratio"),
    ("linalg.kron.out_entries", "count"),
    ("linalg.coerced_entries", "count"),
    ("linalg.inv.max_dim", "count"),
    ("report.columns_examined", "count"),
    ("longeq.search.candidates", "count"),
    ("longeq.search.hit_ratio", "ratio"),
    ("braidcat.ctx_validations_per_op", "count"),
    ("io.load.calls", "count"),
    ("io.load.self_s", "s"),
    ("io.load.bytes", "B"),
    ("io.dump.bytes", "B"),
    ("share.mul", "ratio"),
    ("share.kron", "ratio"),
    ("share.coercion", "ratio"),
    ("trace.spans", "count"),
    ("trace.op_wall_s", "s"),
    ("trace.layer_self_frac", "ratio"),
    ("trace.bench_own_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("calib.fraction_muladd_ns", "ns"),
]


def metric_units():
    """Every per-layer metric name with its unit."""
    out = []
    for name in CALLS_AND_SELF:
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [(name + ".self_s", "s") for name in SELF_ONLY]
    return out + EXTRA


def _entries(m):
    rows, cols = getattr(m, "rows", None), getattr(m, "cols", None)
    if isinstance(rows, int) and isinstance(cols, int):
        return rows * cols
    dims = getattr(m, "dims", None)
    if isinstance(dims, tuple):
        n = 1
        for d in dims:
            n *= d
        return n
    try:
        return len(m)
    except TypeError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.bookkeeping = {}        # span index -> recorder seconds inside it
        self.counts = {}
        self.current = None
        self.op_id = None
        self.active = False
        self._zero = None

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed target in the loaded homlong modules."""
        linalg = sys.modules.get("homlong.linalg")
        self._zero = getattr(linalg, "ZERO", None)
        for name, modname, attr in TARGETS:
            mod = sys.modules.get("homlong." + modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                setattr(cls, meth, self._wrap(name, vars(cls)[meth], attr))
                continue
            f = getattr(mod, attr, None)
            if f is None:
                continue
            w = self._wrap(name, f, attr)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("homlong"):
                    for k, v in list(vars(m).items()):
                        if v is f:
                            setattr(m, k, w)

    def _wrap(self, name, f, attr):
        counter = _COUNTERS.get(attr)
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return f(*args, **kwargs)
            parent = tracer.current
            idx = len(spans)
            spans.append(None)
            tracer.current = idx
            t0 = clock()
            try:
                out = f(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.current = parent
                spans[idx] = (name, t0, t1, parent, tracer.op_id)
            if counter is not None:
                counter(tracer, args, out)
                if parent is not None:
                    tracer.bookkeeping[parent] = (tracer.bookkeeping.get(parent, 0.0)
                                                  + clock() - t1)
            return out

        wrapper.__wrapped__ = f
        wrapper.__name__ = getattr(f, "__name__", attr)
        return wrapper

    # -- reduction ----------------------------------------------------------

    def nonzeros(self, m):
        data = getattr(m, "data", None)
        if self._zero is None or not isinstance(data, tuple):
            return None
        return sum(len(row) - row.count(self._zero) for row in data)

    def self_times(self):
        """Self time and call count per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s, calls = {}, {}
        for i, (name, t0, t1, _, _) in enumerate(spans):
            s = t1 - t0 - child[i] - self.bookkeeping.get(i, 0.0)
            self_s[name] = self_s.get(name, 0.0) + s
            calls[name] = calls.get(name, 0) + 1
        top = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent is None)
        return self_s, calls, top

    def metrics(self, cycles, ops, op_wall, untraced_wall, calib_ns):
        """Per-layer metrics per traced cycle (see metric_units)."""
        self_s, calls, top = self.self_times()
        c = self.counts
        per = 1.0 / max(cycles, 1)
        out = {}
        for name in CALLS_AND_SELF:
            out[name + ".calls"] = calls.get(name, 0) * per
            out[name + ".self_s"] = self_s.get(name, 0.0) * per
        for name in SELF_ONLY:
            out[name + ".self_s"] = self_s.get(name, 0.0) * per
        mul_entries = c.get("mul.operand_entries", 0)
        failing = c.get("columns.failing_checks", 0)
        out.update({
            "linalg.mul.out_entries": c.get("mul.out_entries", 0) * per,
            "linalg.mul.operand_density": (c.get("mul.operand_nonzeros", 0) / mul_entries
                                           if mul_entries else 0.0),
            "linalg.kron.out_entries": c.get("kron.out_entries", 0) * per,
            "linalg.coerced_entries": c.get("coerced_entries", 0) * per,
            "linalg.inv.max_dim": c.get("inv.max_dim", 0),
            "report.columns_examined": (c.get("columns.examined", 0) / failing
                                        if failing else 0.0),
            "longeq.search.candidates": c.get("search.candidates", 0) * per,
            "longeq.search.hit_ratio": (c.get("search.solutions", 0)
                                        / c["search.candidates"]
                                        if c.get("search.candidates") else 0.0),
            "braidcat.ctx_validations_per_op": (
                (calls.get("homstruct.validate_quasitriangular", 0)
                 + calls.get("homstruct.validate_coquasitriangular", 0)) / max(ops, 1)),
            "io.load.calls": calls.get("io.load", 0) * per,
            "io.load.self_s": (self_s.get("io.load", 0.0) + self_s.get("io.read", 0.0)) * per,
            "io.load.bytes": c.get("io.load.bytes", 0) * per,
            "io.dump.bytes": c.get("io.dump.bytes", 0) * per,
        })
        layer_self = sum(self_s.values())
        denom = layer_self or 1.0
        out["share.mul"] = self_s.get("linalg.mul", 0.0) / denom
        out["share.kron"] = self_s.get("linalg.kron", 0.0) / denom
        out["share.coercion"] = self_s.get("linalg.init", 0.0) / denom
        wall = op_wall or 1.0
        out["trace.spans"] = len(self.spans) * per
        out["trace.op_wall_s"] = op_wall * per
        out["trace.layer_self_frac"] = layer_self / wall
        # the benchmark's own time: client code between library calls and
        # the recorder's bookkeeping, which self_times left out of every span
        out["trace.bench_own_frac"] = (op_wall - top + sum(self.bookkeeping.values())) / wall
        out["trace.overhead_frac"] = (op_wall * per / untraced_wall - 1.0
                                      if untraced_wall else 0.0)
        out["calib.fraction_muladd_ns"] = calib_ns
        return out


# -- counters at span boundaries ---------------------------------------------

def _count_mul(tracer, args, out):
    tracer.count("mul.out_entries", _entries(out))
    for m in args:
        nz = tracer.nonzeros(m)
        if nz is not None:
            tracer.count("mul.operand_nonzeros", nz)
            tracer.count("mul.operand_entries", _entries(m))


def _count_kron(tracer, args, out):
    tracer.count("kron.out_entries", _entries(out))


def _count_init(tracer, args, out):
    tracer.count("coerced_entries", _entries(args[0]))


def _count_inv(tracer, args, out):
    dim = getattr(args[0], "rows", 0)
    if dim > tracer.counts.get("inv.max_dim", 0):
        tracer.counts["inv.max_dim"] = dim


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_read(tracer, args, out):
    tracer.count("io.load.bytes", _file_size(args[0]) if args else 0)


def _count_dump(tracer, args, out):
    tracer.count("io.dump.bytes", _file_size(args[1]) if len(args) > 1 else 0)


_COUNTERS = {
    "Matrix.__mul__": _count_mul,
    "kron": _count_kron,
    "Matrix.__init__": _count_init,
    "Tensor3.__init__": _count_init,
    "Vector.__init__": _count_init,
    "Matrix.inv": _count_inv,
    "_read": _count_read,
    "dump_json": _count_dump,
}
