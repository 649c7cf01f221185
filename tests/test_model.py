"""Support tuning, quasi-interpolant coefficients, and field evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hrbfsurf import kernel
from hrbfsurf.model import (
    ETA_MARGIN,
    GROWTH_FACTOR,
    ImplicitField,
    LatticeTable,
    RHO_HARD_CAP,
    ROOT_TOL,
    _BRICK,
    _candidate_pairs,
    _cubic_start,
    _eval_chunk,
    _runs,
    _segment_sums,
    _unique,
    axis_edge_roots,
    build_model,
    model_from_arrays,
    quasi_coefficients,
    quasi_lambda,
    tune_parameters,
)
from hrbfsurf.octree import build_octree, strict_counts
from hrbfsurf.pointset import normalize_to_unit_box
from hrbfsurf.sampling import sphere_points, two_density_sphere

from conftest import cells_near, random_unit_vectors, sign_change_edges, tuned_model
from oracles import kernel_evaluate


class TestTuning:
    def test_base_length_from_leaf_diagonals(self, sphere_ps):
        norm_ps, _ = normalize_to_unit_box(sphere_ps)
        idx = build_octree(norm_ps)
        tp = tune_parameters(norm_ps, idx)
        assert tp.d_bar == pytest.approx(0.75 * idx.mean_leaf_diagonal)
        assert np.all(tp.rho >= tp.d_bar - 1e-15)

    def test_amplifier_scales_base_radius(self, sphere_ps):
        norm_ps, _ = normalize_to_unit_box(sphere_ps)
        idx = build_octree(norm_ps)
        t1 = tune_parameters(norm_ps, idx, s=1.0)
        t2 = tune_parameters(norm_ps, idx, s=1.5)
        assert t2.rho.min() >= 1.5 * t1.d_bar - 1e-15
        assert t2.m >= t1.m

    def test_growth_step_back(self, sphere_ps):
        # each support is maximal: one more 5% step would exceed the cap m
        norm_ps, tp, _ = tuned_model(sphere_ps)
        idx = build_octree(norm_ps)
        counts = strict_counts(idx, norm_ps.points, tp.rho)
        assert counts.max() <= tp.m
        grown = np.minimum(tp.rho * GROWTH_FACTOR, RHO_HARD_CAP)
        over = strict_counts(idx, norm_ps.points, grown)
        at_cap = tp.rho >= RHO_HARD_CAP - 1e-12
        assert np.all((over > tp.m) | at_cap)

    def test_noisy_mode_uniform_minimum(self, sphere_ps):
        norm_ps, _ = normalize_to_unit_box(sphere_ps)
        idx = build_octree(norm_ps)
        base = tune_parameters(norm_ps, idx)
        noisy = tune_parameters(norm_ps, idx, noisy_mode=True)
        assert noisy.uniform_support
        assert np.all(noisy.rho == noisy.rho[0])
        assert noisy.rho[0] <= base.rho.min() + 1e-15

    def test_eta_sits_just_above_threshold(self, sphere_ps):
        _, tp, _ = tuned_model(sphere_ps)
        db = kernel.derivative_bounds(tp.rho_min)
        threshold = tp.m * (db.first + db.second_diag + 2.0 * db.second_mixed) - 1.0
        assert tp.eta == pytest.approx(threshold + ETA_MARGIN)
        # the contraction factor of the bound is then strictly below one
        assert tp.a_bar / (1.0 + tp.eta) < 1.0

    def test_eta_override_respected(self, sphere_ps):
        norm_ps, _ = normalize_to_unit_box(sphere_ps)
        idx = build_octree(norm_ps)
        tp = tune_parameters(norm_ps, idx, eta_override=3.5)
        assert tp.eta == 3.5

    def test_rejects_bad_args(self, sphere_ps):
        norm_ps, _ = normalize_to_unit_box(sphere_ps)
        idx = build_octree(norm_ps)
        with pytest.raises(ValueError):
            tune_parameters(norm_ps, idx, s=0.5)
        with pytest.raises(ValueError):
            tune_parameters(norm_ps.points[:1], idx)


class TestCoefficients:
    def test_closed_form(self):
        rho = np.array([0.5, 1.0, 2.0])
        normals = np.eye(3)
        eta = 7.0
        b = quasi_coefficients(normals, rho, eta)
        expect = (rho**2 / (20.0 + eta * rho**2))[:, None] * normals
        np.testing.assert_allclose(b, expect)

    def test_quasi_lambda_layout(self):
        model = model_from_arrays(np.zeros((2, 3)) + np.arange(2)[:, None], np.eye(3)[:2], 1.0, 0.0)
        lam = quasi_lambda(model)
        assert lam.shape == (8,)
        assert np.all(lam[[0, 4]] == 0.0)
        np.testing.assert_allclose(lam[1:4], model.b_coeffs[0])


class TestEvaluation:
    def test_single_kernel_hand_value(self):
        # one center at the origin, unit support, normal +z, no regularization:
        # b = (0, 0, 1/20) and f(0, 0, 0.5) = 20 (1/2)^3 (0.05 * 0.5) = 1/16
        model = model_from_arrays(np.zeros((1, 3)), [[0.0, 0.0, 1.0]], 1.0, 0.0)
        np.testing.assert_allclose(model.b_coeffs, [[0.0, 0.0, 0.05]])
        x = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        v, g, defined = ImplicitField(model).evaluate(x, want_gradient=True)
        assert v[0] == pytest.approx(0.0625)
        # on-center value is zero and the gradient points along the normal
        assert v[1] == pytest.approx(0.0)
        assert g[1, 2] > 0.0
        # no support covers the last query: not defined and nan
        assert not defined[2] and np.isnan(v[2]) and np.all(np.isnan(g[2]))

    def test_zero_at_centers_of_symmetric_pair(self):
        model = model_from_arrays(
            [[0.0, 0.0, -0.3], [0.0, 0.0, 0.3]],
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
            1.0,
            0.0,
        )
        v = ImplicitField(model).values(np.zeros((1, 3)))[0]
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self, sphere_model):
        _, _, model = sphere_model
        rng = np.random.default_rng(1)
        x = model.centers[rng.integers(0, model.n_centers, 50)]
        x = x + rng.normal(scale=0.01, size=x.shape)
        vals, grads, defined = _eval_chunk(model, x, True)
        h = 1e-6
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            vp = _eval_chunk(model, x + e, False)[0]
            vm = _eval_chunk(model, x - e, False)[0]
            fd = (vp - vm) / (2 * h)
            ok = defined & np.isfinite(vp) & np.isfinite(vm)
            assert np.max(np.abs(fd[ok] - grads[ok, a])) < 1e-5

    def test_implicit_field_matches_kernel_oracle(self):
        # brute force over every center with the kernel's own derivatives:
        # f = -sum <b, grad phi> and grad f = -sum H b
        ps = sphere_points(150, seed=4)
        _, _, model = tuned_model(ps)
        rng = np.random.default_rng(15)
        x = random_unit_vectors(40, rng) * rng.uniform(0.8, 1.2, (40, 1))
        # one query at a center (r = 0) and one outside every support
        x = np.concatenate([x, model.centers[:1], [[5.0, 5.0, 5.0]]])
        vals, grads, defined = ImplicitField(model).evaluate(x, want_gradient=True)
        ref_v, ref_g = np.full(len(x), np.nan), np.full((len(x), 3), np.nan)
        for i, q in enumerate(x):
            evs = [kernel_evaluate(c, r, q) for c, r in zip(model.centers, model.rho)]
            inside = [(ev, bj) for ev, bj in zip(evs, model.b_coeffs) if ev.inside_support]
            if inside:
                ref_v[i] = -sum(ev.gradient @ bj for ev, bj in inside)
                ref_g[i] = -sum(ev.hessian @ bj for ev, bj in inside)
        assert np.array_equal(defined, np.isfinite(ref_v))
        assert defined[-2] and not defined[-1] and np.all(np.isnan(grads[-1]))
        np.testing.assert_allclose(vals, ref_v, rtol=1e-13, atol=0, equal_nan=True)
        np.testing.assert_allclose(grads, ref_g, rtol=1e-13, atol=0, equal_nan=True)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        pts = random_unit_vectors(80, rng)
        model = model_from_arrays(pts, pts, 0.6, 2.0)
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        rmodel = model_from_arrays(pts @ rot.T, pts @ rot.T, 0.6, 2.0)
        x = random_unit_vectors(60, rng) * rng.uniform(0.9, 1.1, (60, 1))
        v1 = _eval_chunk(model, x, False)[0]
        v2 = _eval_chunk(rmodel, x @ rot.T, False)[0]
        np.testing.assert_allclose(v1, v2, atol=1e-13, equal_nan=True)

    def test_undefined_outside_supports(self, sphere_model):
        _, _, model = sphere_model
        far = np.array([[5.0, 5.0, 5.0], [0.0, 0.0, 0.0]])
        vals, _, defined = _eval_chunk(model, far, False)
        assert not defined[0] and np.isnan(vals[0])

    def test_implicit_field_worker_count_bitwise(self, sphere_model):
        _, _, model = sphere_model
        rng = np.random.default_rng(3)
        x = random_unit_vectors(40000, rng) * rng.uniform(0.85, 1.15, (40000, 1))
        v1, g1, d1 = ImplicitField(model, workers=1).evaluate(x, want_gradient=True)
        v2, g2, d2 = ImplicitField(model, workers=2).evaluate(x, want_gradient=True)
        assert v1.tobytes() == v2.tobytes()
        assert g1.tobytes() == g2.tobytes()
        assert np.array_equal(d1, d2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_implicit_field_no_queries(self, sphere_model, workers):
        _, _, model = sphere_model
        field = ImplicitField(model, workers=workers)
        v, g, defined = field.evaluate(np.empty((0, 3)), want_gradient=True)
        assert v.shape == (0,) and g.shape == (0, 3)
        assert defined.shape == (0,) and defined.dtype == bool
        v, g, defined = field.evaluate(np.empty((0, 3)))
        assert v.shape == (0,) and g is None and defined.shape == (0,) and defined.dtype == bool


class TestCandidatePairs:
    def test_pairs_cover_supports_and_are_sorted(self):
        # mixed support sizes exercise the radius-band split
        ps = two_density_sphere(800, 40, seed=5)
        norm_ps, tp, model = tuned_model(ps)
        assert len(model.bands.groups) > 1
        rng = np.random.default_rng(6)
        x = random_unit_vectors(300, rng) * rng.uniform(0.8, 1.2, (300, 1))
        qidx, cidx = _candidate_pairs(model.bands, x, 0.0)
        # sorted by query then center
        assert np.all(np.diff(qidx) >= 0)
        same_q = np.diff(qidx) == 0
        assert np.all(np.diff(cidx)[same_q] > 0)
        # every point strictly inside a support must appear as a pair
        d = np.linalg.norm(x[:, None, :] - model.centers[None, :, :], axis=2)
        inside_q, inside_c = np.nonzero(d < model.rho[None, :])
        have = set(zip(qidx.tolist(), cidx.tolist()))
        missing = [qc for qc in zip(inside_q.tolist(), inside_c.tolist()) if qc not in have]
        assert not missing
        # and no pair may lie beyond its own band radius
        dp = np.linalg.norm(x[qidx] - model.centers[cidx], axis=1)
        assert np.all(dp <= model.rho_max + 1e-12)


class TestIsosurfaceHelpers:
    def test_axis_edge_roots_match_scalar_bisection(self, sphere_model):
        _, _, model = sphere_model
        w = 0.05
        origin = model.centers.min(axis=0) - 2 * w
        table = LatticeTable(model, origin, w)
        corner, p_neg, p_pos, f_neg, f_pos = sign_change_edges(table, cells_near(model.centers, origin, w, 1))
        assert len(corner) > 100
        roots, grads = axis_edge_roots(table, corner, p_neg, p_pos, f_neg, f_pos, tol=1e-13)
        rv = _eval_chunk(model, roots, False)[0]
        assert np.nanmax(np.abs(rv)) < 1e-6
        # scalar oracle: plain bisection on the field evaluation
        for i in range(0, len(corner), 25):
            a, b = p_neg[i].copy(), p_pos[i].copy()
            for _ in range(40):
                mid = 0.5 * (a + b)
                v = _eval_chunk(model, mid[None], False)[0][0]
                if np.isfinite(v) and v < 0:
                    a = mid
                else:
                    b = mid
            np.testing.assert_allclose(roots[i], 0.5 * (a + b), atol=1e-9)

    def test_axis_edge_roots_within_root_tol(self, sphere_model):
        # every root at the default stop lies inside its edge and within
        # ROOT_TOL edge lengths of a 52-step bisection run to the end
        _, _, model = sphere_model
        w = 0.05
        origin = model.centers.min(axis=0) - 2 * w
        table = LatticeTable(model, origin, w)
        corner, p_neg, p_pos, f_neg, f_pos = sign_change_edges(table, cells_near(model.centers, origin, w, 1))
        roots, _ = axis_edge_roots(table, corner, p_neg, p_pos, f_neg, f_pos, ROOT_TOL)
        s = np.einsum("ij,ij->i", roots - p_neg, p_pos - p_neg) / w**2
        assert np.all((s >= 0.0) & (s <= 1.0))
        np.testing.assert_allclose(p_neg + s[:, None] * (p_pos - p_neg), roots, rtol=0, atol=1e-15)
        a, b = p_neg.copy(), p_pos.copy()
        for _ in range(52):
            mid = 0.5 * (a + b)
            v = _eval_chunk(model, mid, False)[0]
            neg = np.isfinite(v) & (v < 0)
            a = np.where(neg[:, None], mid, a)
            b = np.where(neg[:, None], b, mid)
        err = np.linalg.norm(roots - 0.5 * (a + b), axis=1)
        assert err.max() <= ROOT_TOL * w

    def test_axis_edge_roots_bisect_across_support_gap(self):
        # two kernels whose supports leave a gap around x = 0: the edge from
        # x = -0.3 to 0.3 has defined ends of opposite sign, but its linear
        # guess x = 0 is covered by no support, so the bisection branch runs
        model = model_from_arrays([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]], [[1.0, 0.0, 0.0]] * 2, 0.4, 1.0)
        w = 0.6
        table = LatticeTable(model, np.array([-0.3, 0.0, 0.0]), w)
        corner, p_neg, p_pos, f_neg, f_pos = sign_change_edges(table, [[0, 0, 0]])
        assert len(corner) == 1
        np.testing.assert_allclose(-f_neg / (f_pos - f_neg), 0.5)
        assert np.isnan(_eval_chunk(model, np.zeros((1, 3)), False)[0][0])
        # the cubic start stays in the gap as well
        start = _cubic_start(table, corner, np.zeros(1, np.int64), (p_pos - p_neg)[:, 0], f_neg, f_pos)
        assert np.isnan(_eval_chunk(model, p_neg + start[:, None] * (p_pos - p_neg), False)[0][0])
        roots, grads = axis_edge_roots(table, corner, p_neg, p_pos, f_neg, f_pos, ROOT_TOL)
        assert np.all(np.isfinite(roots))
        x = roots[0, 0]
        assert min(p_neg[0, 0], p_pos[0, 0]) <= x <= max(p_neg[0, 0], p_pos[0, 0])
        # undefined points shrink the bracket from the positive side, so the
        # root ends at the negative kernel's support boundary
        c_neg = -0.5 if p_neg[0, 0] < 0 else 0.5
        assert abs(abs(x - c_neg) - 0.4) <= ROOT_TOL * w

    @pytest.mark.parametrize("rho", [0.25, 0.5])
    def test_axis_edge_roots_linear_start_without_outer_values(self, rho):
        # one kernel at z = 0.03, normal +z, on a lattice at odd multiples of
        # 0.1: z edges from -0.1 to 0.1 cross its zero plane off their middle.
        # At rho = 0.25 the table spans only z = +-0.1, so the cells one edge
        # beyond lie outside it; at rho = 0.5 they lie inside it but outside
        # the support where x^2 + y^2 = 0.18.  Those edges start from the
        # linear interpolant, and every root still lies on its edge within
        # ROOT_TOL edge lengths of a 52-step bisection
        w = 0.2
        model = model_from_arrays([[0.0, 0.0, 0.03]], [[0.0, 0.0, 1.0]], rho, 1.0)
        table = LatticeTable(model, np.full(3, -0.1), w)
        corner, p_neg, p_pos, f_neg, f_pos = sign_change_edges(
            table, table.gmin + np.indices(table.shape).reshape(3, -1).T
        )
        axis = np.argmax(np.abs(p_pos - p_neg), axis=1)
        assert np.all(axis == 2)
        step = np.eye(3, dtype=np.int64)[axis]
        outside = (table.keys(corner - step) < 0) | (table.keys(corner + 2 * step) < 0)
        missing = np.isnan(table.fetch(corner - step)) | np.isnan(table.fetch(corner + 2 * step))
        start = _cubic_start(table, corner, axis, (p_pos - p_neg)[:, 2], f_neg, f_pos)
        linear = -f_neg / (f_pos - f_neg)
        if rho == 0.25:
            assert np.all(outside)
        else:
            assert np.any(missing & ~outside) and not np.any(outside)
            # where the outer values exist, the cubic moves the start
            assert np.all(np.abs(start - linear)[~missing] > 1e-3)
        assert np.array_equal(start[missing], linear[missing])
        roots, _ = axis_edge_roots(table, corner, p_neg, p_pos, f_neg, f_pos, ROOT_TOL)
        s = np.einsum("ij,ij->i", roots - p_neg, p_pos - p_neg) / w**2
        assert np.all((s >= 0.0) & (s <= 1.0))
        a, b = p_neg.copy(), p_pos.copy()
        for _ in range(52):
            mid = 0.5 * (a + b)
            v = _eval_chunk(model, mid, False)[0]
            neg = np.isfinite(v) & (v < 0)
            a = np.where(neg[:, None], mid, a)
            b = np.where(neg[:, None], b, mid)
        assert np.linalg.norm(roots - 0.5 * (a + b), axis=1).max() <= ROOT_TOL * w

    def test_axis_edge_roots_worker_bitwise(self, sphere_model):
        _, _, model = sphere_model
        w = 0.02
        origin = model.centers.min(axis=0) - 2 * w
        table = LatticeTable(model, origin, w)
        edges = sign_change_edges(table, cells_near(model.centers, origin, w, 4))
        assert len(edges[0]) > 30000  # about 2M edge-kernel pairs: dozens of chunks
        r1, g1 = axis_edge_roots(table, *edges, ROOT_TOL, workers=1)
        r2, g2 = axis_edge_roots(table, *edges, ROOT_TOL, workers=3)
        assert r1.tobytes() == r2.tobytes()
        assert g1.tobytes() == g2.tobytes()

    def test_axis_edge_roots_budget_and_order_bitwise(self, sphere_model, monkeypatch):
        # each edge is summed over its own pair run, so neither the chunk
        # budget nor the order of the edges changes a bit of the result
        _, _, model = sphere_model
        w = 0.03
        origin = model.centers.min(axis=0) - 2 * w
        table = LatticeTable(model, origin, w)
        edges = sign_change_edges(table, cells_near(model.centers, origin, w, 1))
        assert len(np.unique(np.argmax(np.abs(edges[2] - edges[1]), axis=1))) == 3
        perm = np.random.default_rng(13).permutation(len(edges[0]))
        shuffled = tuple(x[perm] for x in edges)
        back = np.argsort(perm)
        results = []
        for budget in (1 << 20, 1 << 16, 7):
            monkeypatch.setattr("hrbfsurf.model._EDGE_PAIRS", budget)
            roots, grads = axis_edge_roots(table, *shuffled, ROOT_TOL)
            results.append((roots[back].tobytes(), grads[back].tobytes()))
        assert results[0] == results[1] == results[2]
        # at a budget of 7 every edge is a chunk of its own, and each root
        # still comes back on the caller's edge
        s = np.einsum("ij,ij->i", roots - shuffled[1], shuffled[2] - shuffled[1]) / w**2
        assert np.all((s >= 0.0) & (s <= 1.0))
        np.testing.assert_allclose(shuffled[1] + s[:, None] * (shuffled[2] - shuffled[1]), roots, atol=1e-15)

    def test_evaluators_agree_across_radius_bands(self):
        # the lattice fill, the edge passes and the point queries each sum the
        # field's per-pair terms.  With radii in several bands, a per-kernel
        # scale that drifts in one of them moves its values or gradients away
        # from the others'.  Raw gradients are compared because roots and unit
        # normals do not change when the field is multiplied by a constant
        _, _, model = tuned_model(two_density_sphere(800, 40, seed=5))
        assert len(model.bands.groups) > 1
        w = 0.03
        origin = model.centers.min(axis=0) - 2 * w
        table = LatticeTable(model, origin, w)
        field = ImplicitField(model)
        cells = np.unique(cells_near(model.centers, origin, w, 1), axis=0)
        got = table.fetch(cells)
        ref, _, defined = field.evaluate(origin + cells * w)
        assert np.array_equal(defined, np.isfinite(got))
        np.testing.assert_allclose(got[defined], ref[defined], rtol=0, atol=1e-14)
        corner, p_neg, p_pos, f_neg, f_pos = sign_change_edges(table, cells)
        roots, grads = axis_edge_roots(table, corner, p_neg, p_pos, f_neg, f_pos, ROOT_TOL)
        # roots inside supports from more than one band
        qidx, cidx = _candidate_pairs(model.bands, roots)
        first_band = np.isin(cidx, model.bands.groups[0]["idx"])
        mixed = (np.bincount(qidx, first_band, len(roots)) > 0) & (np.bincount(qidx, ~first_band, len(roots)) > 0)
        assert np.count_nonzero(mixed) > 100
        _, ref_grads, defined = field.evaluate(roots, want_gradient=True)
        assert np.all(defined)
        err = np.linalg.norm(grads - ref_grads, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(ref_grads, axis=1))

    def test_brick_kernels_cover_edges(self):
        # brute force: every kernel whose support meets an edge whose lower
        # corner lies in a brick is listed for that brick, edges from local
        # corner 3 into the next brick included
        rng = np.random.default_rng(11)
        centers = rng.uniform(0.0, 1.0, (150, 3))
        model = model_from_arrays(centers, random_unit_vectors(150, rng), 0.07, 1.0)
        w = 0.05
        table = LatticeTable(model, np.full(3, -0.1), w)
        bricks = np.arange(int(np.prod(table._nb)))
        first, rows, kern = table._brick_kernels(bricks)
        local = np.indices((_BRICK,) * 3).reshape(3, -1).T
        beyond_block = 0
        for row, brick_first in enumerate(first):
            a = table.origin + (table.gmin + brick_first + local) * w  # (64, 3)
            listed = set(kern[rows == row].tolist())
            for axis in range(3):
                g = np.zeros(3)
                g[axis] = w
                u = centers[None, :, :] - a[:, None, :]  # (edge, kernel, 3)
                s_close = np.clip(u[..., axis] / w, 0.0, 1.0)
                d = np.linalg.norm(u - s_close[..., None] * g, axis=2)
                meets = d < model.rho[None, :]
                assert set(np.flatnonzero(meets.any(axis=0)).tolist()) <= listed
                # kernels met only by edges that leave the brick's own 4^3 block
                inner = local[:, axis] < _BRICK - 1
                beyond_block += np.count_nonzero(meets[~inner].any(axis=0) & ~meets[inner].any(axis=0))
        assert beyond_block > 0

    def test_lattice_table_matches_field(self, sphere_model):
        _, _, model = sphere_model
        w = 0.04
        origin = model.centers.min(axis=0) - 2 * w
        table = LatticeTable(model, origin, w)
        shape = table.shape
        rng = np.random.default_rng(9)
        flat = rng.choice(len(table.values_flat), 3000, replace=False)
        cz = flat % shape[2]
        cy = (flat // shape[2]) % shape[1]
        cx = flat // (shape[1] * shape[2])
        pts = origin + (table.gmin + np.stack([cx, cy, cz], axis=1)) * w
        ref, _, defined = _eval_chunk(model, pts, False)
        got = table.values_flat[flat]
        assert np.array_equal(defined, np.isfinite(got))
        np.testing.assert_allclose(got[defined], ref[defined], atol=1e-14)

    def test_lattice_table_sparse_kernels(self):
        # two small supports far apart: most bricks of the table meet no kernel
        model = model_from_arrays(
            [[0.0, 0.0, 0.0], [3.0, 0.3, 0.0]], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], 0.05, 1.0
        )
        w = 0.01
        origin = np.full(3, -0.1)
        table = LatticeTable(model, origin, w)
        cells = np.indices(table.shape).reshape(3, -1).T
        ref, _, defined = _eval_chunk(model, origin + (table.gmin + cells) * w, False)
        got = table.values_flat
        assert np.array_equal(defined, np.isfinite(got))
        np.testing.assert_allclose(got[defined], ref[defined], atol=1e-14)
        # bricks filled on demand by fetch hold the same values
        fetched = LatticeTable(model, origin, w).fetch(table.gmin + cells)
        np.testing.assert_array_equal(fetched, got)

    def test_segment_sums_match_bincount(self):
        # runs of up to 5 positive terms: each order of summation is within
        # 4 ulps of the exact sum, so the two agree within 1e-15 relative
        rng = np.random.default_rng(13)
        n = 60
        counts = rng.integers(0, 6, n)
        counts[[0, 7, n - 1]] = [0, 4, 0]  # empty runs at both ends
        qs = np.repeat(np.arange(n), counts)
        x = rng.uniform(1.0, 2.0, (3, len(qs)))
        inside = rng.random(len(qs)) < 0.7
        inside[qs == 7] = False  # pairs, but none inside
        covered = np.bincount(qs, weights=inside, minlength=n) > 0
        assert np.any(~covered & (counts == 0)) and np.any(~covered & (counts > 0))
        runs = _runs(qs, n)
        got = _segment_sums(runs, x, inside, n)
        for a in range(3):
            ref = np.bincount(qs, weights=x[a], minlength=n)
            ref[~covered] = np.nan
            np.testing.assert_allclose(got[a], ref, rtol=1e-15, atol=0)
            assert np.array_equal(_segment_sums(runs, x[a], inside, n), got[a], equal_nan=True)
        assert np.all(np.isnan(_segment_sums(_runs(qs[:0], n), x[0, :0], inside[:0], n)))

    def test_lattice_cell_on_support_boundary_is_undefined(self):
        # center on a lattice point and rho = 2w, both exact: cells two steps
        # along an axis lie at d2 == rho^2 exactly, outside the open support,
        # while a cell where the kernel's term is exactly 0 is still covered
        w = 0.25
        c = np.array([2, 1, 3])
        model = model_from_arrays([c * w], [[0.0, 0.0, 1.0]], 2 * w, 1.0)
        table = LatticeTable(model, np.zeros(3), w)
        steps = np.array([[2, 0, 0], [-2, 0, 0], [0, 2, 0], [0, 0, -2], [1, 0, 0], [0, 1, 1]])
        got = table.fetch(c + steps)
        assert np.all(np.isnan(got[:4]))
        assert got[4] == 0.0 and np.isfinite(got[5])
        ref, _, defined = _eval_chunk(model, (c + steps) * w, False)
        assert np.array_equal(defined, np.isfinite(got))
        np.testing.assert_allclose(got[defined], ref[defined], atol=1e-15)

    def test_lattice_table_fetch_out_of_grid(self, sphere_model):
        _, _, model = sphere_model
        table = LatticeTable(model, model.centers.min(axis=0) - 0.1, 0.05)
        out = table.fetch(np.array([[-(10**6), 0, 0]]) )
        assert np.isnan(out[0])
        # cells with one column below 0 or at or past shape, mixed among cells
        # inside: the bound test must catch each column on its own
        ref = table.values_flat
        rng = np.random.default_rng(14)
        inner = np.stack([rng.integers(0, n, 40) for n in table.shape], axis=1)
        outer = []
        for a in range(3):
            for v in (-1, -(2**40), table.shape[a], table.shape[a] + 5):
                c = inner[len(outer)].copy()
                c[a] = v
                outer.append(c)
        perm = rng.permutation(len(inner) + len(outer))
        got = table.fetch(table.gmin + np.concatenate([inner, outer])[perm])
        flat = np.ravel_multi_index(tuple(inner.T), tuple(table.shape))
        is_inner = perm < len(inner)
        assert np.all(np.isnan(got[~is_inner]))
        assert got[is_inner].tobytes() == ref[flat[perm[is_inner]]].tobytes()
        # cells all inside take the path without a mask: the same bits
        assert table.fetch(table.gmin + inner).tobytes() == ref[flat].tobytes()

    def test_lattice_table_far_beyond_dense_size(self, sphere_model):
        # about 1e9 cells: only the bricks that fetch touches may be filled
        _, _, model = sphere_model
        w = 0.001
        origin = model.centers.min(axis=0) - 2 * w
        table = LatticeTable(model, origin, w)
        assert np.prod(table.shape.astype(float)) > 5e8
        rng = np.random.default_rng(10)
        x = model.centers[rng.integers(0, model.n_centers, 300)]
        x = x + rng.normal(scale=0.01, size=x.shape)
        cells = np.floor((x - origin) / w).astype(np.int64)
        got = table.fetch(cells)
        ref, _, defined = _eval_chunk(model, origin + cells * w, False)
        assert defined.sum() > 250
        assert np.array_equal(defined, np.isfinite(got))
        np.testing.assert_allclose(got[defined], ref[defined], atol=1e-14)
        touched = np.unique((cells - table.gmin) // _BRICK, axis=0)
        assert table._n_filled == len(touched)


@pytest.fixture(scope="module")
def small_table_reference():
    rng = np.random.default_rng(12)
    pts = random_unit_vectors(30, rng)
    model = model_from_arrays(pts, pts, 0.35, 1.0)
    origin = np.full(3, -1.2)
    return model, origin, LatticeTable(model, origin, 0.1).values_flat


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(0, 10**9), min_size=1, max_size=200), min_size=1, max_size=6
    )
)
def test_lattice_fetch_order_bitwise(small_table_reference, batches):
    # bricks filled in any order and any grouping hold the same bits
    model, origin, ref = small_table_reference
    table = LatticeTable(model, origin, 0.1)
    for batch in batches:
        flat = np.array(batch) % len(ref)
        cells = np.stack(np.unravel_index(flat, tuple(table.shape)), axis=1)
        assert table.fetch(table.gmin + cells).tobytes() == ref[flat].tobytes()
        # the eight corners of each cell in one call, clamped to the table:
        # runs of corners in one brick share a lookup
        block = np.minimum(cells[:, None, :] + np.indices((2, 2, 2)).reshape(3, 8).T, table.shape - 1)
        flat8 = np.ravel_multi_index(tuple(np.moveaxis(block, -1, 0)), tuple(table.shape))
        assert table.fetch(table.gmin + block).tobytes() == ref[flat8].tobytes()


def test_lattice_fill_chunks_bitwise(small_table_reference, monkeypatch):
    # chunks are cut on brick boundaries, so any pair budget gives the same bits
    model, origin, ref = small_table_reference
    monkeypatch.setattr("hrbfsurf.model._FILL_PAIRS", 7)
    assert LatticeTable(model, origin, 0.1).values_flat.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62), max_size=60), st.integers(1, 3))
def test_unique_matches_numpy(values, columns):
    keys = np.array(values * columns, dtype=np.int64).reshape(columns, -1)
    assert _unique(keys).tobytes() == np.unique(keys).tobytes()


def test_build_model_consistency(sphere_model):
    norm_ps, tp, model = sphere_model
    assert model.n_centers == len(norm_ps)
    np.testing.assert_allclose(model.rho, tp.rho)
    np.testing.assert_allclose(
        model.b_coeffs, quasi_coefficients(norm_ps.normals, tp.rho, tp.eta)
    )
    assert model.rho_max == pytest.approx(tp.rho.max())
