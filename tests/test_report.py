"""report's identity compiler: its error texts, and how often it compiles."""

import sys
from unittest import mock

import pytest

from homlong import fixtures as fx, linalg, report
from homlong.braidcat import (BraidingContext, check_hexagons, check_qybe, check_symmetry,
                              long_braiding, long_braiding_inverse)
from homlong.homstruct import (tensor_hopf, validate_all, validate_coquasitriangular,
                               validate_quasitriangular)
from homlong.linalg import DimensionMismatch, Matrix, sparse_columns
from homlong.longdimod import (canonical_dimodule, check_coherence, check_snake, left_dual,
                               right_dual, tensor_dimodule, trivial_dimodule,
                               validate_long_dimodule)
from homlong.report import Identity, compose

I2, I3 = Matrix.identity(2), Matrix.identity(3)
A = dict(a=("a0", "a1"))

# each text the compiler raises, through a decision and through compose
MISMATCHES = [
    (lambda: Identity("x", A, [(I3, "a")], []).decide(),
     "map on legs of dims (3,), given ('a',) -> ('a',) of dims (2,)"),
    (lambda: compose(dict(a=2, b=2), [(I3, "b")], "a b"),
     "map on legs of dims (3,), given ('b',) -> ('b',) of dims (2,)"),
    (lambda: Identity("x", A, [(I2, "a -> b")], []).decide(),
     "legs ['a'] land where ('b',) should"),
    (lambda: compose(dict(a=2), [(I2, "a -> b")], "a"),
     "legs ['b'] land where ('a',) should"),
    (lambda: Identity("x", dict(a=2, b=2), [(I3, "a b -> c")], [(I3, "a b -> c")]).decide(),
     "3 basis vectors on legs ('a', 'b')"),
    (lambda: compose(dict(a=2, b=2), [(I3, "a b -> c")], "c"),
     "3 basis vectors on legs ('a', 'b')"),
    (lambda: Identity("x", A, [(sparse_columns(I2), "a -> c")], [(I2, "a -> c")]).decide(),
     "int columns onto new legs ('c',)"),
    (lambda: compose(dict(a=2), [(sparse_columns(I2), "a -> c")], "c"),
     "int columns onto new legs ('c',)"),
    (lambda: Identity("x", A, [(sparse_columns(I3), "a")], []).decide(),
     "map with 3 columns on legs (0,) of (2, 1)"),
    (lambda: compose(dict(a=2, b=3), [(sparse_columns(I3), "a")], "a b"),
     "map with 3 columns on legs (0,) of (2, 3, 1)"),
    (lambda: Identity("x", A, [(Matrix([[1, 0], [0, 1], [1, 1]]), "a")], []).decide(),
     "composites land in dims 3 and 2"),
]


@pytest.mark.parametrize("run, text", MISMATCHES)
def test_compiler_mismatch_texts(run, text):
    # raised at every call, not only when a table is first compiled
    for _ in range(2):
        with pytest.raises(DimensionMismatch) as err:
            run()
        assert str(err.value) == text


def _clear():
    report._arranged.cache_clear()
    report._compiled.cache_clear()


def test_each_side_text_compiles_once_across_dims():
    # the same structure kinds on carriers of two dims: the second adds one
    # table of ints per new shape and no leg moves, and the same carrier
    # again adds nothing
    kz2, sst = fx.kz2(), fx.sweedler_scaled_twisted(2)
    pairs = [(validate_all, kz2, sst),
             (validate_long_dimodule, canonical_dimodule(kz2, kz2), canonical_dimodule(sst, kz2))]
    for validate, small, large in pairs:
        _clear()
        expected = validate(small)
        texts, shapes = report._arranged.cache_info().misses, report._compiled.cache_info().misses
        assert validate(small).lines() == expected.lines()
        assert report._compiled.cache_info().misses == shapes
        validate(large)
        assert report._arranged.cache_info().misses == texts
        assert report._compiled.cache_info().misses > shapes


def test_compile_caches_stay_below_their_bounds():
    # a full validation of every fixture algebra and a pass of the CLI's
    # checks on both contexts never fill the caches, so none is evicted
    # and recompiled within such a run
    _clear()
    kz2, swt = fx.kz2(), fx.sweedler_scaled_twisted(2)
    for h in (kz2, fx.kz4_twisted(), fx.sweedler_hopf(), swt, tensor_hopf(kz2, kz2)):
        validate_all(h)
    validate_quasitriangular(kz2, fx.kz2_rmatrix())
    validate_quasitriangular(swt, fx.sweedler_rmatrix())
    validate_coquasitriangular(kz2, fx.kz2_form())
    for h, r in ((kz2, fx.kz2_rmatrix()), (swt, fx.sweedler_rmatrix())):
        ctx = BraidingContext(h, r, kz2, fx.kz2_form())
        can, tr = canonical_dimodule(h, kz2), trivial_dimodule(h, kz2, Matrix.diagonal([1, 3]))
        for d in (can, tr, tensor_dimodule(can, tr)):
            validate_long_dimodule(d)
        for dual in (left_dual, right_dual):
            duality = dual(can)
            validate_long_dimodule(duality.dual)
            check_snake(can, duality)
        check_symmetry(ctx, can, tr)
        check_hexagons(ctx, tr, can, tr)
        check_qybe(ctx, can, can, can)
        long_braiding(ctx, can, tr), long_braiding_inverse(ctx, tr, can)
        check_coherence(tr, can, tr)
    for cache in (report._arranged, report._compiled):
        info = cache.cache_info()
        assert info.misses == info.currsize < info.maxsize


def test_a_matrix_is_read_by_its_flat_coordinates_once(monkeypatch):
    # the context validators insert R and the unit and pair the counit and
    # the form in many identities; each Matrix's reading on moved legs
    # (moved_columns) moves its legs once, the first time it is read, and is
    # kept, so validating the same context again moves none; each Matrix
    # read is held, so no id is reused
    reads, real = [], linalg.move_legs

    def move_legs(*args):
        frame = sys._getframe(1)
        if frame.f_code is linalg.moved_columns.__code__:
            reads.append((frame.f_locals["m"], frame.f_locals["move"][2:]))
        return real(*args)

    monkeypatch.setattr(linalg, "move_legs", move_legs)
    kz2, swt = fx.kz2(), fx.sweedler_scaled_twisted(2)
    contexts = [(kz2, fx.kz2_rmatrix(), fx.kz2_form()),
                (swt, fx.sweedler_rmatrix(), fx.trivial_form(swt))]
    for h, r, form in contexts:
        assert validate_quasitriangular(h, r).ok
        validate_coquasitriangular(h, form)
    element, covector = ((), (1, 0)), ((1, 0), ())
    expected = {(id(m), legs) for h, r, form in contexts
                for m, legs in ((r, element), (h.unit, element),
                                (h.counit, covector), (form, covector))}
    # the coproduct reads of the products share moved_columns; every
    # element and covector read is one of the four expected
    assert sorted((id(m), legs) for m, legs in reads
                  if legs in (element, covector)) == sorted(expected)
    reads.clear()
    for h, r, form in contexts:
        validate_quasitriangular(h, r), validate_coquasitriangular(h, form)
    assert reads == []


def test_a_second_compose_lays_out_nothing():
    # compose builds its Composite from the side's compiled layout, so the
    # same text on the same shapes again lays out no step, through report's
    # name or linalg's
    layout = mock.Mock(side_effect=linalg.layout)
    steps = [(fx.kz2().mult, "x y -> x"), (Matrix([[1, 2], [0, 3]]), "x")]
    with mock.patch.object(linalg, "layout", layout), mock.patch.object(report, "layout", layout):
        first = compose(dict(x=2, y=2), steps, "x").matrix()
        layout.reset_mock()
        assert compose(dict(x=2, y=2), steps, "x").matrix() == first
    assert layout.call_count == 0


def test_compose_leaves_out_an_identity_map():
    # as a decision does: the identity on x makes no pass, and the map is mu
    mu = Matrix([[1, 2], [0, 3]])
    composite = compose(dict(x=2), [(I2, "x"), (mu, "x")], "x")
    assert len(composite._plan) == 1
    assert composite.matrix() == mu
