import numpy as np
import pytest

from loopflow.polynomials import Polynomial, from_term_list, polynomial


def test_value_and_gradient_by_hand():
    # f = 3 x^2 y + y^3
    f = polynomial({(2, 1): 3.0, (0, 3): 1.0})
    assert f.n_vars == 2
    assert f.value([2.0, 1.0]) == pytest.approx(13.0)
    grad = f.gradient([2.0, 1.0])
    assert grad == pytest.approx([12.0, 15.0])


def test_value_is_scalar_for_single_point_and_array_for_stacks():
    f = polynomial({(2,): 1.0})
    v = f.value([3.0])
    assert isinstance(v, float)
    pts = np.array([[1.0], [2.0], [3.0]])
    vals = f.value(pts)
    assert vals.shape == (3,)
    assert np.allclose(vals, [1.0, 4.0, 9.0])
    grads = f.gradient(pts)
    assert grads.shape == (3, 1)
    assert np.allclose(grads[:, 0], [2.0, 4.0, 6.0])


def test_gradient_matches_finite_differences():
    f = polynomial({(3, 1, 0): 2.0, (1, 0, 2): -1.5, (0, 2, 1): 0.7})
    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=3)
        grad = f.gradient(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd = (f.value(x + e) - f.value(x - e)) / (2.0 * step)
            assert abs(grad[j] - fd) < 1e-7


def test_term_list_round_trip():
    f = polynomial({(2, 0): 1.0, (0, 4): 2.5})
    g = from_term_list(f.term_list())
    assert g == f


def test_from_term_list_merges_duplicates():
    f = from_term_list([[[2], 1.0], [[2], 0.5], [[0], 3.0]])
    assert f.value([1.0]) == pytest.approx(4.5)
    assert len(f.terms) == 2


def test_zero_coefficients_are_dropped():
    f = polynomial({(2,): 0.0, (1,): 1.0})
    assert f.terms == (((1,), 1.0),)
    g = from_term_list([[[2], 1.0], [[2], -1.0], [[1], 1.0]])
    assert g == f


def test_builder_validation():
    with pytest.raises(ValueError, match="negative exponent"):
        polynomial({(-1,): 1.0})
    with pytest.raises(ValueError, match="arity"):
        polynomial({(1, 0): 1.0, (2,): 1.0})
    with pytest.raises(ValueError, match="arity"):
        polynomial({(1,): 1.0}, n_vars=2)
    with pytest.raises(ValueError, match="non-finite"):
        polynomial({(1,): np.inf})
    with pytest.raises(ValueError, match="arity"):
        polynomial({})
    with pytest.raises(ValueError, match="malformed"):
        from_term_list([[[1], 1.0, "extra"]])
    # a fractional exponent used to be truncated silently, 2.7 acting as 2
    for exps in ((2.7,), (2.0,), (True,)):
        with pytest.raises(ValueError, match="non-integer exponent"):
            polynomial({exps: 1.0})
    with pytest.raises(ValueError, match=r"non-integer exponent in term \(2.7,\)"):
        from_term_list([[[2.7], 1.0]])
    assert polynomial({(np.int64(2),): 1.0}).terms == (((2,), 1.0),)


def test_constant_polynomial():
    f = polynomial({(0, 0): 4.0})
    assert f.value([10.0, -3.0]) == pytest.approx(4.0)
    assert np.all(f.gradient([10.0, -3.0]) == 0.0)


def test_string_form():
    f = polynomial({(2, 0): 1.0, (0, 1): -2.0})
    s = str(f)
    assert "x0^2" in s
    assert "x1" in s
    assert str(Polynomial(n_vars=1, terms=())) == "0"
