"""A tour of the command-line interface.

Writes a set of definition files into ./demo_files and drives the CLI
in-process: validate, check, build and search, including the exit codes.
"""

import os

from homlong import fixtures as fx
from homlong import io as hio
from homlong.cli import main
from homlong.linalg import Matrix
from homlong.longdimod import canonical_dimodule
from homlong.longeq import HAlphaLongDimodule, OperatorOnTensorSquare

out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "demo_files")
os.makedirs(out, exist_ok=True)


def path(name):
    return os.path.join(out, name)


kz2 = fx.kz2()
obj = hio.algebra_to_json(kz2)
obj["R"] = hio.matrix_json(fx.kz2_rmatrix())
obj["form"] = hio.matrix_json(fx.kz2_form())
hio.dump_json(obj, path("kz2.json"))
hio.dump_json({"kind": "context", "H": "kz2.json", "B": "kz2.json"}, path("ctx.json"))
hio.save_structure(fx.sign_dimodule(), path("sign.json"))
hio.save_structure(canonical_dimodule(kz2, kz2), path("canonical.json"))
hio.save_structure(fx.kz4(), path("kz4.json"))
hio.dump_json({"matrix": hio.matrix_json(fx.kz4_twist_map())}, path("phi.json"))
# the flip m_i (x) m_j -> m_j (x) m_i on k^2 (x) k^2 against mu = diag(1, 2)
flip = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
hio.save_structure(OperatorOnTensorSquare(2, flip, Matrix.diagonal([1, 2])), path("flip.json"))
hio.dump_json({"mu": hio.matrix_json(Matrix.identity(2))}, path("id2.json"))
sd = fx.sign_dimodule()
hio.save_structure(HAlphaLongDimodule(kz2, 1, sd.action, sd.coaction, sd.mu, sd.basis),
                   path("halpha.json"))

for argv in [
    ["validate", path("kz2.json")],
    ["check", "ybe", "--ctx", path("ctx.json"), "-U", path("sign.json"),
     "-V", path("sign.json"), "-W", path("canonical.json")],
    ["check", "longeq", "-R", path("flip.json")],
    ["build", "dimodule-solution", "-D", path("halpha.json"), "-o", path("rsol.json")],
    ["check", "longeq", "-R", path("rsol.json")],
    ["build", "twist", "--base", path("kz4.json"), "--phi", path("phi.json"),
     "-o", path("kz4_twisted.json")],
    ["search", "--mu", path("id2.json"), "--set", "0,1", "--shape", "diagonal",
     "-o", path("solutions.json")],
    ["check", "symmetry", "--ctx", path("ctx.json"), "-M", path("sign.json"),
     "-N", path("sign.json")],
]:
    print("\n$ homlong " + " ".join(argv))
    code = main(argv)
    print("(exit %d)" % code)
