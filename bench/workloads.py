"""The three benchmark workloads.

A workload is built in `__init__` (the timed set-up: fixture construction and,
for the CLI, definition-file writing and the first load), then `prepare`
does the untimed oracle work, and `cycle(rng)` yields the ops of one cycle.
Every cycle holds the same mix of ops, so a run of whole cycles measures the
same work whatever the seed; the seed picks op order, perturbations and
samples. An op's `run(t)` makes its library calls through `t`, which times
them; `verify(result, tracer)` runs afterwards, outside the timed region, and
returns the number of verdicts or raises `Mismatch`.

Why each workload, which layers it loads and what each is predicted to move
are recorded in workloads.json beside this file.
"""

import contextlib
import io
import json
import os

import oracle


class Mismatch(Exception):
    """A verdict, witness, flag or exit code differs from the expected outcome."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Op:
    __slots__ = ("kind", "run", "verify")

    def __init__(self, kind, run, verify):
        self.kind, self.run, self.verify = kind, run, verify


def _witness(rep):
    failed = [c for c in rep if not c.passed]
    return tuple(failed[0].witness) if failed else None


def _verify_longeq(rep, col, n, tracer):
    """check_long_equation's verdict and witness against the oracle's first
    failing column col (None for a solution) on a carrier of dimension n."""
    expect(rep.ok == (col is None), "hom-long verdict %s, oracle column %s" % (rep.ok, col))
    if col is not None:
        expect(_witness(rep) == oracle.unflat3(col, n),
               "witness %r, oracle %r" % (_witness(rep), oracle.unflat3(col, n)))
        if tracer is not None:
            tracer.count("columns.examined", col + 1)
            tracer.count("columns.failing_checks")
    return len(list(rep))


# ---------------------------------------------------------------------------

class LongeqCarriers:
    """Extension carrier -> validation -> induced operator -> Hom-Long check,
    with half of the operators perturbed in one entry."""

    name = "longeq-carriers"
    CYCLE_S = 11.5
    modules = ("fixtures", "linalg", "repmod", "longeq")

    def __init__(self, lib, workdir):
        self.lib = lib
        fx, la, lq = lib.fixtures, lib.linalg, lib.longeq
        mu8 = (la.Matrix.diagonal([1, 2]), la.Matrix.diagonal([2, 1]))
        mu12 = la.Matrix.diagonal([1, 2, 3])
        self.carriers = []
        for fam, h in (("kz4t", fx.kz4_twisted()), ("klein", fx.klein_hopf()),
                       ("swt", fx.sweedler_scaled_twisted(2))):
            # extensions are named, not held, so the traced run's wrappers apply
            self.carriers.append(("%s/module/n12" % fam, "module_extension", h,
                                  fx.trivial_module(h, mu12)))
            for k, mu in enumerate(mu8):
                self.carriers.append(("%s/module/n8.%d" % (fam, k), "module_extension",
                                      h, fx.trivial_module(h, mu)))
                self.carriers.append(("%s/comodule/n8.%d" % (fam, k), "comodule_extension",
                                      h, self._trivial_comodule(h, mu)))

    def _trivial_comodule(self, h, mu):
        """rho(m) = 1_H (x) mu(m)."""
        la = self.lib.linalg
        d, unit = mu.rows, h.unit
        coaction = la.Tensor3.from_function(d, h.dim, d,
                                            lambda i, a, j: unit[a] * mu[j, i])
        return self.lib.repmod.HomComodule(h.coalgebra, d, coaction, mu)

    def prepare(self):
        """Each carrier's induced operator, confirmed a solution by the oracle."""
        lq = self.lib.longeq
        self.solutions = []
        for label, ext, h, m in self.carriers:
            op = lq.dimodule_solution(getattr(lq, ext)(h, m))
            rows, mu_rows = op.matrix.to_lists(), op.structure_map.to_lists()
            expect(oracle.longeq_first_failure(rows, mu_rows) is None,
                   "%s: induced operator fails the oracle" % label)
            self.solutions.append((rows, mu_rows))

    def _perturbation(self, rng, rows, mu_rows):
        """A seeded one-entry change that breaks the equation, with the
        oracle's first failing column."""
        size = len(rows)
        for _ in range(200):
            i, j, delta = rng.randrange(size), rng.randrange(size), rng.choice((1, -1))
            bent = [list(r) for r in rows]
            bent[i][j] += delta
            col = oracle.longeq_first_failure(bent, mu_rows)
            if col is not None:
                return (i, j, delta), bent, col
        raise Mismatch("no breaking perturbation found")

    def cycle(self, rng):
        la, lq = self.lib.linalg, self.lib.longeq
        order = list(range(len(self.carriers)))
        rng.shuffle(order)
        bent_ops = set(rng.sample(order, len(order) // 2))
        for c in order:
            label, ext, h, m = self.carriers[c]
            rows, mu_rows = self.solutions[c]
            pert = self._perturbation(rng, rows, mu_rows) if c in bent_ops else None

            def run(t, ext=ext, h=h, m=m, pert=pert):
                d = t(getattr(lq, ext), h, m)
                valid = t(lq.validate_halpha_dimodule, d)
                op = t(lq.dimodule_solution, d)
                if pert is not None:
                    (i, j, delta), _, _ = pert
                    bent = op.matrix.to_lists()
                    bent[i][j] += delta
                    op = lq.OperatorOnTensorSquare(op.carrier_dim, la.Matrix(bent),
                                                   op.structure_map)
                return valid, t(lq.check_long_equation, op)

            def verify(result, tracer, label=label, mu_rows=mu_rows, pert=pert):
                valid, rep = result
                expect(valid.ok, "%s: carrier fails validation" % label)
                col = None if pert is None else pert[2]
                return len(list(valid)) + _verify_longeq(rep, col, len(mu_rows), tracer)

            yield Op(label + ("/perturbed" if pert else ""), run, verify)


# ---------------------------------------------------------------------------

class SearchGrid:
    """Grid searches, then every solution and a sample of grid operators
    through the one-operator checks."""

    name = "search-grid"
    CYCLE_S = 24.0
    modules = ("linalg", "longeq")
    SAMPLES = {"full": 700, "diagonal": 600}

    def __init__(self, lib, workdir):
        self.lib = lib

    def grids(self, rng):
        """The cycle's structure maps; seeded within families of equal cost
        (a lower unipotent map would make the search 1.7x slower)."""
        M = self.lib.linalg.Matrix
        b, c = rng.choice((1, 2)), rng.choice((1, 2))
        return [
            ("diagonal-mu", "full", M.diagonal([1, rng.choice((2, 3))]), (0, 1)),
            ("identity-mu", "full", M.identity(2), (0, 1)),
            ("unipotent-mu", "full", M([[1, rng.choice((1, -1))], [0, 1]]), (0, 1)),
            ("n3", "diagonal", M([[1, b, 0], [0, 1, c], [0, 0, 1]]), (0, 1, 2)),
        ]

    def prepare(self):
        pass

    def _grid_operator(self, rng, shape, mu, values):
        n = mu.rows
        n2 = n * n
        if shape == "full":
            rows = [[rng.choice(values) for _ in range(n2)] for _ in range(n2)]
        else:
            rows = [[0] * n2 for _ in range(n2)]
            for r in range(n2):
                rows[r][r] = rng.choice(values)
        return rows

    def cycle(self, rng):
        la, lq = self.lib.linalg, self.lib.longeq
        grids = self.grids(rng)
        rng.shuffle(grids)
        for label, shape, mu, values in grids:
            n = mu.rows
            slots = n ** 4 if shape == "full" else n * n
            candidates = len(values) ** slots
            mu_rows = mu.to_lists()
            found = {}

            def run(t, mu=mu, values=values, shape=shape):
                return t(lq.search_solutions, mu, list(values), shape)

            def verify(sols, tracer, found=found, values=values, shape=shape,
                       candidates=candidates):
                for s in sols:
                    rows = s.matrix.to_lists()
                    expect(all(x in values for r in rows for x in r), "solution off the grid")
                    expect(shape == "full" or all(x == 0 for i, r in enumerate(rows)
                                                  for j, x in enumerate(r) if i != j),
                           "non-diagonal solution on the diagonal grid")
                    key = tuple(map(tuple, rows))
                    expect(key not in found, "solution listed twice")
                    found[key] = s
                expect(found, "search found no solution")
                if tracer is not None:
                    tracer.count("search.candidates", candidates)
                    tracer.count("search.solutions", len(sols))
                return candidates

            yield Op("search/" + label, run, verify)
            if not found:
                continue
            ops = []
            for key, s in found.items():
                ops.append(Op("longeq/solution", lambda t, s=s: t(lq.check_long_equation, s),
                              lambda rep, tracer, key=key, mu_rows=mu_rows: _verify_longeq(
                                  rep, oracle.longeq_first_failure(key, mu_rows), n, tracer)))
                coords = lq.operator_to_coords(s)

                def verify_cc(rep, tracer, coords=coords, mu_rows=mu_rows):
                    index = oracle.index_identity_holds(coords, mu_rows)
                    expect(rep.passed("operator-identity"), "operator identity fails")
                    expect(rep.passed("index-identity") == index, "index identity verdict")
                    expect(rep.flags["agreement"] == index, "agreement flag")
                    return len(list(rep))

                ops.append(Op("criterion/solution",
                              lambda t, c=coords, mu=mu: t(lq.coordinate_criterion, c, c, mu),
                              verify_cc))

                def verify_tau(result, tracer):
                    _, rep = result
                    expect(rep.ok, "a flip transform fails on a solution")
                    expect(rep.flags["all-agree"], "flip transforms disagree")
                    return len(list(rep))

                ops.append(Op("tau/solution", lambda t, s=s: t(lq.tau_transforms, s),
                              verify_tau))
            for _ in range(self.SAMPLES[shape]):
                rows = self._grid_operator(rng, shape, mu, values)
                op = lq.OperatorOnTensorSquare(n, la.Matrix(rows), mu)

                def verify_sample(rep, tracer, rows=rows, found=found, mu_rows=mu_rows):
                    member = tuple(map(tuple, rows)) in found
                    expect(rep.ok == member, "sample verdict %s, in search result %s"
                           % (rep.ok, member))
                    return _verify_longeq(rep, oracle.longeq_first_failure(rows, mu_rows),
                                          n, tracer)

                ops.append(Op("longeq/sample", lambda t, op=op: t(lq.check_long_equation, op),
                              verify_sample))
            rng.shuffle(ops)
            yield from ops


# ---------------------------------------------------------------------------

class BraidCli:
    """The homlong CLI, in-process through cli.main, on definition files."""

    name = "braid-cli"
    CYCLE_S = 7.0
    modules = ("fixtures", "linalg", "longdimod", "braidcat", "io", "cli")
    CONTEXTS = ("kk", "sk")

    def __init__(self, lib, workdir):
        self.lib = lib
        self.dir = workdir
        fx, la, hio = lib.fixtures, lib.linalg, lib.io
        ld = lib.longdimod
        kz2, swt = fx.kz2(), fx.sweedler_scaled_twisted(2)
        obj = hio.algebra_to_json(kz2)
        obj["R"] = hio.matrix_json(fx.kz2_rmatrix())
        obj["form"] = hio.matrix_json(fx.kz2_form())
        hio.dump_json(obj, self.path("kz2.json"))
        obj = hio.algebra_to_json(swt)
        obj["R"] = hio.matrix_json(fx.sweedler_rmatrix())
        hio.dump_json(obj, self.path("swt.json"))
        hio.dump_json({"kind": "context", "H": "kz2.json", "B": "kz2.json"},
                      self.path("ctx_kk.json"))
        hio.dump_json({"kind": "context", "H": "swt.json", "B": "kz2.json"},
                      self.path("ctx_sk.json"))
        diag13 = la.Matrix.diagonal([1, 3])
        for tag, h in (("kk", kz2), ("sk", swt)):
            hio.save_structure(ld.canonical_dimodule(h, kz2), self.path("can_%s.json" % tag))
            hio.save_structure(ld.trivial_dimodule(h, kz2, diag13), self.path("tr_%s.json" % tag))
        hio.save_structure(fx.sign_dimodule(kz2, kz2), self.path("sign_kk.json"))
        self.ctx = {tag: hio.load_context(self.path("ctx_%s.json" % tag))
                    for tag in self.CONTEXTS}
        self.dimods = {name: hio.load_structure(self.path(name + ".json"))
                       for name in ("can_kk", "tr_kk", "sign_kk", "can_sk", "tr_sk")}

    def path(self, name):
        return os.path.join(self.dir, name)

    def _argvs(self):
        """(kind, argv, expectation) for one cycle, before the validation of
        the files the cycle writes."""
        p = self.path
        out = []
        for tag in self.CONTEXTS:
            ctx = p("ctx_%s.json" % tag)
            can, tr = p("can_%s.json" % tag), p("tr_%s.json" % tag)
            out += [
                ("validate", ["validate", p("kz2.json" if tag == "kk" else "swt.json")], None),
                ("validate", ["validate", can], None),
                ("validate", ["validate", tr], None),
                ("symmetry", ["check", "symmetry", "--ctx", ctx, "-M", can, "-N", tr], None),
                ("snake", ["check", "snake", "-D", can], None),
                ("snake", ["check", "snake", "-D", can, "--side", "right"], None),
                ("roundtrip", ["check", "roundtrip", "-D", can], None),
                ("hexagon", ["check", "hexagon", "--ctx", ctx, "-U", tr, "-V", can, "-W", tr],
                 None),
                ("ybe", ["check", "ybe", "--ctx", ctx, "-U", tr, "-V", tr, "-W", can], None),
                ("ybe", ["check", "ybe", "--ctx", ctx, "-U", can, "-V", can, "-W", can], None),
                ("build-braid", ["build", "braid", "--ctx", ctx, "-M", can, "-N", tr,
                                 "-o", p("braid_%s_can_tr.json" % tag)], (tag, "can", "tr")),
                ("build-braid", ["build", "braid", "--ctx", ctx, "-M", tr, "-N", can,
                                 "-o", p("braid_%s_tr_can.json" % tag)], (tag, "tr", "can")),
                ("build-dual", ["build", "dual", "-D", can, "--side",
                                "left" if tag == "kk" else "right",
                                "-o", p("dual_%s.json" % tag)], None),
                ("build-tensor", ["build", "tensor", "-M", can, "-N", tr,
                                  "-o", p("tensor_%s.json" % tag)], None),
            ]
        sign = p("sign_kk.json")
        can, tr = p("can_kk.json"), p("tr_kk.json")
        out += [
            ("validate", ["validate", sign], None),
            ("symmetry", ["check", "symmetry", "--ctx", p("ctx_kk.json"), "-M", sign,
                          "-N", can], None),
            ("hexagon", ["check", "hexagon", "--ctx", p("ctx_kk.json"),
                         "-U", can, "-V", can, "-W", can], None),
            ("symmetry", ["check", "symmetry", "--ctx", p("ctx_sk.json"),
                          "-M", p("can_sk.json"), "-N", p("can_sk.json")], None),
            ("build-braid", ["build", "braid", "--ctx", p("ctx_sk.json"), "-M",
                             p("can_sk.json"), "-N", p("can_sk.json"),
                             "-o", p("braid_sk_can_can.json")], ("sk", "can", "can")),
        ]
        for u, v, w in (("sign", "tr", "can"), ("can", "sign", "tr"), ("tr", "can", "sign")):
            out.append(("coherence", ["check", "coherence"] + self._uvw("kk", u, v, w),
                        ("kk", u, v)))
        for u, v, w in (("tr", "can", "tr"), ("can", "tr", "tr"), ("tr", "tr", "tr")):
            out.append(("coherence", ["check", "coherence"] + self._uvw("sk", u, v, w),
                        ("sk", u, v)))
        return out

    def _uvw(self, tag, u, v, w):
        return ["-U", self.path("%s_%s.json" % (u, tag)), "-V", self.path("%s_%s.json" % (v, tag)),
                "-W", self.path("%s_%s.json" % (w, tag))]

    def prepare(self):
        """Braid inverses for the written braids, and the README's coherence
        findings evaluated from the definition files."""
        bc = self.lib.braidcat
        self.inverses = {}
        self.coherence = {}
        raw = {}
        for name in self.dimods:
            with open(self.path(name + ".json")) as fh:
                raw[name] = json.load(fh)
        for kind, argv, key in self._argvs():
            if kind == "build-braid":
                tag, m, n = key
                inv = bc.long_braiding_inverse(self.ctx[tag], self.dimods["%s_%s" % (m, tag)],
                                               self.dimods["%s_%s" % (n, tag)])
                self.inverses[key] = inv.matrix.to_lists()
            elif kind == "coherence":
                tag, u, v = key
                ru, rv = raw["%s_%s" % (u, tag)], raw["%s_%s" % (v, tag)]
                h = rv["H"]
                alpha = oracle.read_matrix(h["gamma"])
                twist_order_gt2 = not oracle.is_identity(oracle.matmul(alpha, alpha))
                counital = oracle.action_is_counital(
                    [oracle.read_matrix(plane) for plane in rv["action"]],
                    [oracle.read_scalar(x) for x in h["counit"]],
                    oracle.read_matrix(rv["mu"]))
                self.coherence[key] = {
                    "triangle": oracle.triangle_holds(oracle.read_matrix(ru["mu"]),
                                                      oracle.read_matrix(rv["mu"])),
                    "unit-H-linear": not (twist_order_gt2 and not counital),
                }

    def cycle(self, rng):
        cli = self.lib.cli
        ops = self._argvs()
        rng.shuffle(ops)
        written = [("validate", ["validate", self.path(name)], None)
                   for name in ("dual_kk.json", "tensor_kk.json", "dual_sk.json",
                                "tensor_sk.json")]
        rng.shuffle(written)
        for kind, argv, key in ops + written:
            argv = ["--format", "json"] + argv

            def run(t, argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    try:
                        code = t(cli.main, argv)
                    except SystemExit as exc:    # argparse rejected the command line
                        code = exc.code
                return code, buf.getvalue()

            def verify(result, tracer, kind=kind, argv=argv, key=key):
                code, text = result
                report = json.loads(text)
                checks = {axiom: verdict == "pass" for axiom, verdict, _ in report["checks"]}
                expected = {axiom: True for axiom in checks}
                if kind == "coherence":
                    found = self.coherence[key]
                    expected["triangle"] = found["triangle"]
                    for side in ("left", "right"):
                        expected["%s-unit-H-linear" % side] = found["unit-H-linear"]
                expect(checks == expected, "%s: verdicts %r, expected %r"
                       % (" ".join(argv), checks, expected))
                expect(code == report["exit_code"] == (0 if all(expected.values()) else 1),
                       "%s: exit code %r" % (" ".join(argv), code))
                if kind == "symmetry":
                    expect(report["flags"].get("hypothesis-met") is True, "symmetry hypothesis")
                if kind == "build-braid":
                    with open(argv[-1]) as fh:
                        braid = oracle.read_matrix(json.load(fh)["matrix"])
                    expect(oracle.is_identity(oracle.matmul(self.inverses[key], braid)),
                           "written braid times long_braiding_inverse is not the identity")
                return len(report["checks"])

            yield Op(kind, run, verify)


WORKLOADS = {w.name: w for w in (LongeqCarriers, SearchGrid, BraidCli)}
