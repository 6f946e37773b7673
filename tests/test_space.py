import numpy as np
import pytest

from edithints.space import (
    MODES,
    CorrectedSpace,
    NumericalError,
    center,
    correct_eigenvalues,
    jacobi_eigh,
    validate_sqdist,
)

from oracle_utils import (
    char_poly_exact,
    combo_sqdist,
    extend_coords_loop,
    planted_sqdist,
    poly_roots,
)


def test_center_hand_example():
    g = center(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(g, [[0.25, -0.25], [-0.25, 0.25]])


def test_center_zero_matrix():
    assert np.allclose(center(np.zeros((4, 4))), 0.0)


def test_center_reproduces_euclidean_sqdist():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(9, 2))
    d2 = planted_sqdist(pts)
    g = center(d2)
    rebuilt = np.diag(g)[:, None] + np.diag(g)[None, :] - 2 * g
    assert np.allclose(rebuilt, d2, atol=1e-10)
    assert np.allclose(g.sum(axis=0), 0.0, atol=1e-8)


def test_validate_sqdist_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_sqdist(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_sqdist(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_sqdist(np.ones((2, 3)))


def test_non_finite_sqdist_rejected():
    for bad in (np.nan, np.inf):
        d2 = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError):
            validate_sqdist(d2)
        with pytest.raises(ValueError):
            CorrectedSpace(d2)


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(42)
    for n in (0, 1, 2, 3, 7, 25, 60):
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        w, u = jacobi_eigh(a)
        assert np.all(np.diff(w) <= 0)  # descending
        assert np.allclose(w, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-9)
        assert np.allclose(u.T @ u, np.eye(n), atol=1e-9)
        assert np.allclose(u @ np.diag(w) @ u.T, a, atol=1e-9)
        # sign convention: each column's largest-magnitude entry is positive
        for k in range(n):
            assert u[np.argmax(np.abs(u[:, k])), k] > 0


def test_jacobi_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12))
    a = (a + a.T) / 2
    w1, u1 = jacobi_eigh(a)
    w2, u2 = jacobi_eigh(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(u1, u2)
    # a basis flipped column by column comes back with the same signs
    w3, u3 = jacobi_eigh(-a)
    assert np.allclose(w3, -w1[::-1], atol=1e-12)
    assert np.allclose(u3, u1[:, ::-1], atol=1e-9)


def test_jacobi_lapack_failure_is_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="did not converge"):
        jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_correct_eigenvalues_modes():
    w = np.array([3.0, 0.5, 0.0, -2.0])
    assert np.allclose(correct_eigenvalues(w, "clip"), [3, 0.5, 0, 0])
    assert np.allclose(correct_eigenvalues(w, "flip"), [3, 0.5, 0, 2])
    assert np.allclose(correct_eigenvalues(w, "shift"), [5, 2.5, 2, 0])
    psd = np.array([3.0, 1.0, 0.0])
    assert np.allclose(correct_eigenvalues(psd, "shift"), psd)
    with pytest.raises(ValueError):
        correct_eigenvalues(w, "bogus")


def test_euclidean_inputs_pass_through_all_modes():
    rng = np.random.default_rng(5)
    d2 = planted_sqdist(rng.normal(size=(8, 3)))
    for mode in ("clip", "flip", "shift"):
        space = CorrectedSpace(d2, mode)
        assert np.max(np.abs(space.corrected_sqdist() - d2)) < 1e-8


def test_star_metric_against_characteristic_polynomial_oracle():
    # center plus three leaves: d(center, leaf) = 1, d(leaf, leaf) = 2 is
    # not Euclidean, so clip must change distances
    d = np.array(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float
    )
    d2 = d**2
    space = CorrectedSpace(d2, "clip")
    # independent eigenvalue oracle: exact characteristic polynomial of the
    # centered Gram (its entries are exact multiples of 1/32, so converting
    # to rationals is lossless), roots via numpy
    coeffs = char_poly_exact(center(d2))
    roots = poly_roots(coeffs)
    assert np.allclose(np.sort(space.eigenvalues)[::-1], roots, atol=1e-6)
    assert space.eigenvalues[-1] < -1e-6  # genuinely indefinite
    # corrected distances differ from the input
    assert np.max(np.abs(space.corrected_sqdist() - d2)) > 1e-3
    # independent reconstruction of the corrected distances via numpy
    w, u = np.linalg.eigh(center(d2))
    wc = np.clip(w, 0, None)
    gram = u @ np.diag(wc) @ u.T
    expected = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram
    assert np.max(np.abs(space.corrected_sqdist() - expected)) < 1e-6


def test_clip_yields_negative_type_matrix():
    # after clipping, the corrected squared distances re-center to a PSD Gram
    d = np.array(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float
    )
    space = CorrectedSpace(d**2, "clip")
    g = center(space.corrected_sqdist())
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-8 * max(1.0, np.abs(w).max())


def test_flip_and_clip_agree_on_psd_input():
    rng = np.random.default_rng(11)
    d2 = planted_sqdist(rng.normal(size=(6, 2)))
    clip = CorrectedSpace(d2, "clip")
    flip = CorrectedSpace(d2, "flip")
    assert np.allclose(clip.corrected_sqdist(), flip.corrected_sqdist(), atol=1e-8)


def test_extend_in_sample_consistency():
    rng = np.random.default_rng(7)
    # a non-Euclidean matrix: random symmetric distances
    n = 7
    d = np.abs(rng.normal(size=(n, n))) + 1.0
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    for mode in ("clip", "flip"):
        space = CorrectedSpace(d**2, mode)
        want = space.corrected_sqdist()
        for j in range(n):
            q = space.extend(d[j] ** 2)
            assert np.max(np.abs(space.query_sqdist(q) - want[j])) < 1e-6


def test_extend_recovers_planted_holdout():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(10, 3))
    space = CorrectedSpace(planted_sqdist(pts), "clip")
    for _ in range(5):
        holdout = rng.normal(size=3)
        d2q = ((pts - holdout) ** 2).sum(axis=1)
        q = space.extend(d2q)
        assert np.max(np.abs(space.query_sqdist(q) - d2q)) < 1e-6


def test_extend_symmetric_query_has_equal_entries():
    # three equidistant training states, query equidistant from all of them
    d2 = np.full((3, 3), 1.0)
    np.fill_diagonal(d2, 0.0)
    space = CorrectedSpace(d2, "clip")
    q = space.extend(np.full(3, 4.0))
    assert np.allclose(q.cross_gram, q.cross_gram[0])
    assert np.allclose(space.query_sqdist(q), space.query_sqdist(q)[0])


def test_extend_out_of_span_distances_not_underestimated():
    # two points at distance 1, query at distance 1 from both: the query
    # sits off the training line; its distances must stay 1, not 1/2
    space = CorrectedSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), "clip")
    q = space.extend(np.array([1.0, 1.0]))
    assert np.allclose(space.query_sqdist(q), [1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("mode", MODES)
def test_extend_matches_per_eigenvalue_loop(mode):
    rng = np.random.default_rng(31)
    d = np.abs(rng.normal(size=(7, 7))) + 1.0  # indefinite: negative eigenvalues
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    # rank 2: five eigenvalues below the cutoff
    planted = planted_sqdist(rng.normal(size=(7, 2)))
    # one eigenvalue about 1e-6 of the largest, well above the cutoff
    flat = planted_sqdist(rng.normal(size=(7, 3)) * [1.0, 1.0, 1e-3])
    for d2 in (d**2, planted, flat, np.zeros((1, 1)), np.zeros((0, 0))):
        space = CorrectedSpace(d2, mode)
        for _ in range(5):
            d2q = rng.uniform(0.0, 4.0, size=space.size)
            got = space.extend(d2q).coords
            want = extend_coords_loop(space, d2q)
            assert got.shape == want.shape
            peak = max(1.0, float(np.max(np.abs(want), initial=0.0)))
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * peak
            # a dropped eigenvalue contributes nothing
            assert np.all(got[want == 0.0] == 0.0)


def test_combo_sqdist_trivial_and_unit_vectors():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(6, 2))
    space = CorrectedSpace(planted_sqdist(pts), "clip")
    a = rng.normal(size=6)
    assert combo_sqdist(space, a, a) == pytest.approx(0.0, abs=1e-12)
    e0, e3 = np.zeros(6), np.zeros(6)
    e0[0] = 1.0
    e3[3] = 1.0
    assert combo_sqdist(space, e0, e3) == pytest.approx(
        space.corrected_sqdist()[0, 3], abs=1e-8
    )


def test_combo_sqdist_matches_coordinate_oracle():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(8, 3))
    space = CorrectedSpace(planted_sqdist(pts), "clip")
    for _ in range(25):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        # centering drops out when both coefficient vectors have equal sums
        b[0] += a.sum() - b.sum()
        want = float(((pts.T @ a - pts.T @ b) ** 2).sum())
        got = combo_sqdist(space, a, b)
        assert got == pytest.approx(want, abs=1e-8)
        assert combo_sqdist(space, b, a) == pytest.approx(got, abs=1e-12)


def test_combo_sqdist_parallelogram_identity():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(7, 3))
    space = CorrectedSpace(planted_sqdist(pts), "clip")
    a, b = rng.normal(size=7), rng.normal(size=7)
    mid = (a + b) / 2
    # |a-b|^2 = 2|a-m|^2 + 2|b-m|^2 for the midpoint m
    lhs = combo_sqdist(space, a, b)
    rhs = 2 * combo_sqdist(space, a, mid) + 2 * combo_sqdist(space, b, mid)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_combo_sqdist_with_query_column():
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(6, 2))
    space = CorrectedSpace(planted_sqdist(pts), "clip")
    holdout = rng.normal(size=2)
    q = space.extend(((pts - holdout) ** 2).sum(axis=1))
    coef_q = np.zeros(7)
    coef_q[6] = 1.0
    e2 = np.zeros(7)
    e2[2] = 1.0
    want = float(((holdout - pts[2]) ** 2).sum())
    assert combo_sqdist(space, coef_q, e2, query=q) == pytest.approx(want, abs=1e-6)


def test_mds_coordinates_shape_and_geometry():
    d2 = np.full((3, 3), 1.0)
    np.fill_diagonal(d2, 0.0)
    space = CorrectedSpace(d2, "clip")
    xy = space.mds_coordinates(2)
    assert xy.shape == (3, 2)
    sides = [
        np.linalg.norm(xy[i] - xy[j]) for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    assert max(sides) - min(sides) < 1e-6
