import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ixplore as ix
from ixplore import semantics
from ixplore.errors import (
    CoverSizeError,
    NoFeasibleArmError,
    OutOfDomainError,
    UnsupportedOperationError,
)
from ixplore.semantics import is_sleeping_type

IDENTITY3 = ix.AgentType(np.eye(3))


def rank(ranking):
    """A ranking's position among the permutations of its arms, enumerated
    by itertools: the reference for ranking codes."""
    return list(itertools.permutations(range(len(ranking)))).index(tuple(ranking))


def sleeping(awake, K=3):
    rows = np.zeros((K, K))
    for i in awake:
        rows[i, i] = 1.0
    return ix.AgentType(rows)


class TestApplyMap:
    def test_ranking_sorts_descending(self):
        smap = ix.Ranking(num_arms=3)
        assert ix.apply_map(smap, 0, np.array([[0.2, 0.7, 0.1]])).tolist() == [rank((1, 0, 2))]

    def test_ranking_ties_prefer_lower_index(self):
        smap = ix.Ranking(num_arms=3)
        assert ix.apply_map(smap, 0, np.array([[0.5, 0.5, 0.1]])).tolist() == [rank((0, 1, 2))]

    def test_sign_map(self):
        smap = ix.SignMap()
        assert ix.apply_map(smap, 0, np.array([[-0.4]])).tolist() == [0]
        assert ix.apply_map(smap, 0, np.array([[0.4]])).tolist() == [1]
        with pytest.raises(OutOfDomainError):
            ix.apply_map(smap, 0, np.array([[0.0]]))
        assert ix.apply_map(smap, 0, np.array([[0.4], [-0.1], [2.0]])).tolist() == [1, 0, 1]
        with pytest.raises(OutOfDomainError):
            ix.apply_map(smap, 0, np.array([[0.4], [0.0]]))
        with pytest.raises(ValueError):
            ix.apply_map(smap, 0, np.array([[0.4, 0.1]]))

    def test_single_model_is_rejected(self):
        # every map takes only a stack; one model is a stack of one row
        with pytest.raises(ValueError, match="stack"):
            ix.apply_map(ix.SignMap(), 0, np.array([0.4]))

    def test_voronoi_nearest_center(self):
        smap = ix.VoronoiCover(np.array([[0.25], [0.75]]))
        assert ix.apply_map(smap, 0, np.array([[0.4]])).tolist() == [0]
        # equidistant point goes to the lowest center index
        assert ix.apply_map(smap, 0, np.array([[0.5]])).tolist() == [0]

    def test_argmax_tie_prefers_lower_arm(self):
        smap = ix.ArgmaxDirect(representatives=(IDENTITY3,))
        assert ix.apply_map(smap, 0, np.array([[0.5, 0.5, 0.2]])).tolist() == [0]

    def test_full_reveal_index(self):
        models = np.array([[0.9, 0.1], [0.2, 0.8]])
        smap = ix.FullReveal(models=models)
        assert ix.apply_map(smap, 0, models[[1]]).tolist() == [1]
        with pytest.raises(OutOfDomainError):
            ix.apply_map(smap, 0, np.array([[0.5, 0.5]]))
        assert ix.apply_map(smap, 0, models[[1, 0, 1]]).tolist() == [1, 0, 1]
        with pytest.raises(OutOfDomainError):
            ix.apply_map(smap, 0, np.array([models[0], [0.5, 0.5]]))

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(2)
        smap = ix.Ranking(num_arms=4)
        for _ in range(20):
            u = rng.normal(size=(1, 4))
            assert np.array_equal(ix.apply_map(smap, 0, u), ix.apply_map(smap, 0, u))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(200, 3))
        centers = rng.normal(size=(5, 3))
        # per-row references written out with the single-model formulas
        cases = (
            (ix.Ranking(num_arms=3), lambda u: rank(np.argsort(-u, kind="stable").tolist())),
            (ix.ArgmaxDirect(representatives=(IDENTITY3,)), lambda u: int(np.argmax(IDENTITY3.rows @ u))),
            (ix.VoronoiCover(centers), lambda u: int(np.argmin(np.linalg.norm(centers - u, axis=1)))),
        )
        for smap, reference in cases:
            batch = ix.apply_map(smap, 0, samples)
            assert batch.dtype == np.int64
            assert batch.tolist() == [reference(u) for u in samples]
            assert batch.tolist() == [ix.apply_map(smap, 0, u[None])[0] for u in samples]

    def test_batch_matches_scalar_with_per_row_labels(self):
        # general rows, where a matrix-matrix product could round differently
        # from the per-row products apply_map uses, and one label per row
        rng = np.random.default_rng(4)
        reps = tuple(ix.AgentType(rng.normal(size=(4, 3)), public_id=k) for k in range(2))
        labels = rng.integers(2, size=300)
        samples = rng.normal(size=(300, 3))
        smap = ix.ArgmaxDirect(representatives=reps)
        assert ix.apply_map(smap, labels, samples).tolist() == [
            int(np.argmax(reps[k].rows @ u)) for k, u in zip(labels, samples)
        ]
        cube = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2))
        points = np.vstack([rng.random((100, 2)), [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]])
        assert ix.apply_map(cube, 0, points).tolist() == [ix.apply_map(cube, 0, u[None])[0] for u in points]


class TestVoronoiBlocks:
    """A Voronoi `apply_map` computes its codes a block of rows at a time,
    so its temporaries stay bounded at any number of rows or centers."""

    # a unit-square domain at radius 0.01: a 71 x 71 grid of 5,041 centers
    COVER = ix.VoronoiCover(ix.build_voronoi_cover(ix.UniformBoxPrior([0.0, 0.0], [1.0, 1.0]), 0.01))

    def test_blocked_codes_equal_the_one_shot_formula(self):
        rng = np.random.default_rng(8)
        # points around the square, and the centers themselves and their midpoints, which tie
        centers = self.COVER.centers
        samples = np.vstack([rng.uniform(-0.1, 1.1, size=(300, 2)), centers[::97],
                             (centers[:50] + centers[1:51]) / 2])
        assert len(samples) * len(centers) > 8 * semantics.VORONOI_BLOCK_PAIRS
        diff = samples[:, None, :] - centers[None, :, :]
        assert ix.apply_map(self.COVER, 0, samples).tolist() == np.argmin(
            np.sqrt((diff * diff).sum(axis=2)), axis=1).tolist()

    def test_peak_memory_is_bounded(self):
        # one (2000, 5041, 2) difference array alone would take 161 MB
        samples = np.random.default_rng(9).uniform(0.0, 1.0, size=(2000, 2))
        tracemalloc.start()
        try:
            ix.apply_map(self.COVER, 0, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestHypercube:
    def test_cell_index_and_boundaries(self):
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2))
        assert ix.apply_map(smap, 0, np.array([[0.1, 0.1], [0.6, 0.1]])).tolist() == [0, 2]
        # interior boundary goes to the smaller cell per dimension
        assert ix.apply_map(smap, 0, np.array([[0.5, 0.5]])).tolist() == [0]
        # outer edges stay inside
        assert ix.apply_map(smap, 0, np.array([[1.0, 1.0], [0.0, 0.0]])).tolist() == [3, 0]
        with pytest.raises(OutOfDomainError):
            ix.apply_map(smap, 0, np.array([[1.2, 0.5]]))

    def test_center_roundtrip(self):
        smap = ix.HypercubeCover(origin=np.array([-1.0, 0.0]), cell_radius=0.5,
                                 grid_extents=(3, 2))
        for flat in range(smap.num_cells):
            assert smap.cell_indices(smap.cell_center(flat)[None]).tolist() == [flat]


class TestMenu:
    def test_sleeping_menu_picks_top_feasible(self):
        smap = ix.Ranking(num_arms=3)
        # ranking (arm1, arm0, arm2); arms {0, 2} awake -> arm 0
        assert ix.menu(smap, sleeping({0, 2}), rank((1, 0, 2))) == 0

    def test_sleeping_menu_no_feasible_arm(self):
        smap = ix.Ranking(num_arms=3)
        with pytest.raises(NoFeasibleArmError):
            ix.menu(smap, sleeping(set()), rank((0, 1, 2)))

    def test_sleeping_equals_argmax_when_all_awake(self):
        rng = np.random.default_rng(4)
        smap = ix.Ranking(num_arms=4)
        full = sleeping({0, 1, 2, 3}, K=4)
        for _ in range(50):
            u = rng.normal(size=4)
            m = ix.apply_map(smap, 0, u[None])[0]
            assert ix.menu(smap, full, m) == int(np.argmax(u))

    def test_ranking_general_type_needs_models(self):
        smap = ix.Ranking(num_arms=2)
        general = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
        with pytest.raises(UnsupportedOperationError):
            ix.menu(smap, general, rank((0, 1)))

    def test_ranking_general_type_uses_fiber_midpoint(self):
        models = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        smap = ix.Ranking(num_arms=2, fiber_models=models)
        general = ix.AgentType([[0.0, 1.0], [1.0, 0.0]])
        # ranking (0, 1) fiber = models 0 and 2, midpoint (0.8, 0.2) -> arm 1
        assert ix.menu(smap, general, rank((0, 1))) == 1

    def test_voronoi_menu(self):
        smap = ix.VoronoiCover(np.array([[0.9, 0.1], [0.1, 0.9]]))
        x = ix.AgentType(np.eye(2))
        assert ix.menu(smap, x, 0) == 0
        assert ix.menu(smap, x, 1) == 1

    def test_argmax_menu_is_identity(self):
        smap = ix.ArgmaxDirect(representatives=(IDENTITY3,))
        assert ix.menu(smap, IDENTITY3, 2) == 2

    def test_sign_menu(self):
        smap = ix.SignMap()
        x = ix.AgentType([[-1.0], [-0.5], [0.5]])
        assert ix.menu(smap, x, 1) == 2  # +1
        assert ix.menu(smap, x, 0) == 0  # -1

    def test_hypercube_menu_uses_cell_center(self):
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2))
        x = ix.AgentType(np.eye(2))
        # cell 2 center = (0.75, 0.25) -> arm 0
        assert ix.menu(smap, x, 2) == 0
        assert ix.menu(smap, x, 1) == 1

    def test_is_sleeping_type(self):
        assert is_sleeping_type(sleeping({0, 1}))
        assert not is_sleeping_type(ix.AgentType([[0.5, 0.0], [0.0, 1.0]]))
        assert not is_sleeping_type(ix.AgentType([[1.0, 0.2], [0.0, 1.0]]))


class TestVoronoiCoverConstruction:
    def test_unit_interval(self):
        centers = ix.build_voronoi_cover(ix.UniformBoxPrior([0.0], [1.0]), 0.25)
        assert centers == pytest.approx(np.array([[0.25], [0.75]]))

    def test_unit_square(self):
        centers = ix.build_voronoi_cover(ix.UniformBoxPrior([0.0, 0.0], [1.0, 1.0]), 0.5)
        assert len(centers) == 4
        expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        assert {tuple(np.round(c, 12)) for c in centers} == expected
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        for corner in corners:
            assert np.min(np.linalg.norm(centers - corner, axis=1)) <= 0.5

    def test_ball_cover_monte_carlo(self):
        centers = ix.build_voronoi_cover(ix.UniformBallPrior(1.0, 2), 0.3)
        rng = np.random.default_rng(6)
        points = []
        while len(points) < 10**4:
            p = rng.uniform(-1, 1, size=2)
            if np.linalg.norm(p) <= 1.0:
                points.append(p)
        points = np.array(points)
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.sqrt(d2.min(axis=1)).max() <= 0.3

    def test_center_cap(self):
        with pytest.raises(CoverSizeError):
            ix.build_voronoi_cover(ix.UniformBoxPrior([0.0] * 4, [1.0] * 4), 1e-4)

    def test_ball_whose_box_overflows_exceeds_the_cap(self):
        # its box's width, 2e308, overflows: the cell count is inf, never an empty cover
        with pytest.raises(CoverSizeError, match="cover would need inf centers"):
            ix.build_voronoi_cover(ix.UniformBallPrior(1e308, 2), 0.5)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            ix.build_voronoi_cover(ix.UniformBoxPrior([0.0], [1.0]), 0.0)


class TestGranularity:
    def test_full_reveal_is_zero(self):
        models = np.array([[0.9, 0.1], [0.2, 0.8]])
        smap = ix.FullReveal(models=models)
        assert ix.granularity(smap, models) == 0.0

    def test_voronoi_cell_width(self):
        smap = ix.VoronoiCover(np.array([[0.25], [0.75]]))
        sweep = np.linspace(0.0, 1.0, 2001).reshape(-1, 1)
        assert ix.granularity(smap, sweep) == pytest.approx(0.5, abs=2e-3)

    def test_point_mass_samples(self):
        smap = ix.VoronoiCover(np.array([[0.25], [0.75]]))
        assert ix.granularity(smap, np.array([[0.4], [0.4]])) == 0.0

    def test_cover_granularity_bound(self):
        # an eps-cover's Voronoi fibers have diameter at most 2 eps
        eps = 0.3
        centers = ix.build_voronoi_cover(ix.UniformBoxPrior([0.0, 0.0], [1.0, 1.0]), eps)
        smap = ix.VoronoiCover(centers)
        rng = np.random.default_rng(7)
        samples = rng.uniform(0, 1, size=(4000, 2))
        assert ix.granularity(smap, samples) <= 2 * eps + 1e-12

    def test_partition_covers_every_sample(self):
        eps = 0.25
        centers = ix.build_voronoi_cover(ix.UniformBoxPrior([0.0, 0.0], [1.0, 1.0]), eps)
        smap = ix.VoronoiCover(centers)
        rng = np.random.default_rng(8)
        samples = rng.uniform(0, 1, size=(2000, 2))
        tags = ix.apply_map(smap, 0, samples)
        for u, m in zip(samples, tags):
            assert np.linalg.norm(u - centers[m]) <= eps + 1e-12


MAP_KINDS = ("argmax_public", "argmax_private", "ranking", "voronoi", "hypercube", "sign", "full_reveal")


@st.composite
def maps_with_models(draw):
    """A semantic map, agent types it can serve, random models in its domain,
    and whether the map is consistent on every model by construction."""
    kind = draw(st.sampled_from(MAP_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_models = draw(st.integers(1, 30))
    K, d = 3, 2
    if kind == "ranking":  # sleeping types in the d = K embedding
        d = K
        types = [sleeping(np.flatnonzero(rng.random(K) < 0.6).tolist() or [int(rng.integers(K))])
                 for _ in range(int(rng.integers(1, 4)))]
        smap = ix.Ranking(num_arms=K)
    elif kind == "sign":
        d = 1
        types = [ix.AgentType(rng.uniform(-1.0, 1.0, (K, 1))) for _ in range(int(rng.integers(1, 4)))]
        smap = ix.SignMap()
    else:
        count = int(rng.integers(1, 4))
        public = kind != "argmax_private"
        types = [ix.AgentType(rng.standard_normal((K, d)), public_id=i if public else 0)
                 for i in range(count)]
    models = rng.standard_normal((n_models, d))
    if kind in ("argmax_public", "argmax_private"):
        smap = ix.ArgmaxDirect(representatives=tuple(types) if kind == "argmax_public" else (types[0],))
    elif kind == "voronoi":
        smap = ix.VoronoiCover(rng.standard_normal((int(rng.integers(1, 8)), d)))
    elif kind == "hypercube":
        radius = float(rng.choice([0.05, 0.25, 1.0]))
        smap = ix.HypercubeCover(origin=-np.ones(d), cell_radius=radius,
                                 grid_extents=(int(np.ceil(1.0 / radius)),) * d)
        lo, hi = smap.box()
        models = rng.uniform(lo, hi, (n_models, d))
    elif kind == "full_reveal":
        smap = ix.FullReveal(models)
    return smap, types, models, kind in ("argmax_public", "sign", "full_reveal")


def per_model_consistency(smap, types, models):
    """(alpha, witness) by a loop over every type, model and alternative arm,
    one model's dot products at a time: the reference for the batched
    `check_menu_consistency`."""
    alpha, witness = np.inf, None
    for ti, x in enumerate(types):
        for ui, u in enumerate(models):
            m = ix.apply_map(smap, x.public_id, u[None])[0]
            i = ix.menu(smap, x, m)
            base = x.rows[i] @ u
            for j in range(x.num_arms):
                if j == i:
                    continue
                margin = base - x.rows[j] @ u
                if margin < alpha:
                    alpha, witness = margin, (ti, ui, ix.message(smap, m), i, j)
    return float(alpha), witness


def tied_margins_case():
    """Repeated models and types, so the least margin is reached by several
    (type, model, arm) tuples and only the first may be the witness."""
    eye = ix.AgentType(np.eye(2))
    models = np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8], [0.9, 0.1]])
    return ix.ArgmaxDirect(representatives=(eye,)), [eye, eye], models, True


class TestMenuConsistency:
    @settings(max_examples=80, deadline=None)
    @given(case=maps_with_models())
    @example(case=tied_margins_case())
    def test_matches_the_per_model_loop(self, case):
        smap, types, models, _ = case
        report = ix.check_menu_consistency(smap, types, models)
        assert (report.alpha, report.witness) == per_model_consistency(smap, types, models)

    def test_argmax_public_alpha_nonnegative(self):
        rng = np.random.default_rng(9)
        types = [ix.AgentType(rng.normal(size=(3, 2)), public_id=i) for i in range(3)]
        smap = ix.ArgmaxDirect(representatives=tuple(types))
        models = [rng.normal(size=2) for _ in range(40)]
        report = ix.check_menu_consistency(smap, types, models)
        assert report.alpha >= 0.0
        assert report.mode == "exhaustive"

    def test_two_model_argmax_gap(self):
        x = ix.AgentType(np.eye(2))
        smap = ix.ArgmaxDirect(representatives=(x,))
        models = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
        report = ix.check_menu_consistency(smap, [x], models)
        assert report.alpha == pytest.approx(0.6)
        assert report.witness == (0, 1, 1, 1, 0)  # model u2: arm 1 beats arm 0 by 0.6

    def test_sign_map_scaling(self):
        # N equispaced points in [-1, 1] and the two-sided model interval:
        # alpha = spacing * delta = (2 / (N - 1)) * delta, exactly linear
        N = 5
        points = np.linspace(-1.0, 1.0, N)
        from itertools import permutations

        types = [ix.AgentType(np.array(p).reshape(-1, 1))
                 for p in permutations(points, 3)]
        smap = ix.SignMap()
        alphas = {}
        for delta in (0.1, 0.2, 0.4):
            grid = np.concatenate([np.linspace(-1, -delta, 25), np.linspace(delta, 1, 25)])
            models = [np.array([v]) for v in grid]
            report = ix.check_menu_consistency(smap, types, models)
            assert report.alpha > 0
            alphas[delta] = report.alpha
            assert report.alpha == pytest.approx(0.5 * delta, rel=1e-9)
        assert alphas[0.2] / alphas[0.1] == pytest.approx(2.0, rel=1e-9)
        assert alphas[0.4] / alphas[0.2] == pytest.approx(2.0, rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(case=maps_with_models())
    def test_consistent_menus_recommend_an_argmax(self, case):
        # alpha >= 0 exactly when the menu's arm maximizes x . u for every
        # type and model it was certified on
        smap, types, models, always = case
        report = ix.check_menu_consistency(smap, types, models)
        assert report.alpha >= 0.0 or not always
        best = []
        for x in types:
            for u in models:
                scores = x.rows @ u
                best.append(scores[ix.menu(smap, x, ix.apply_map(smap, x.public_id, u[None])[0])] == scores.max())
        assert (report.alpha >= 0.0) == all(best)

    def test_sampled_mode_labeled(self):
        x = ix.AgentType(np.eye(2))
        smap = ix.ArgmaxDirect(representatives=(x,))
        report = ix.check_menu_consistency(
            smap, [x], [np.array([0.9, 0.1])], mode="sampled"
        )
        assert report.mode.startswith("sampled")


def decoded(smap):
    return [ix.message(smap, c) for c in range(ix.num_messages(smap))]


class TestMessageSpace:
    def test_spaces(self):
        assert decoded(ix.SignMap()) == [-1, 1]
        assert decoded(ix.Ranking(num_arms=3)) == list(itertools.permutations(range(3)))
        assert decoded(ix.VoronoiCover(np.array([[0.0], [1.0]]))) == [0, 1]
        smap = ix.HypercubeCover(origin=np.zeros(1), cell_radius=0.5, grid_extents=(4,))
        assert decoded(smap) == [0, 1, 2, 3]

    @settings(max_examples=200, deadline=None)
    @given(K=st.integers(2, 6), values=st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    def test_ranking_and_sign_codes_match_their_references(self, K, values):
        # few distinct values, so coordinates tie often and the stable
        # argsort's lower-index-first rule decides the ranking
        u = np.array(values[:K], dtype=float)
        ranking = tuple(np.argsort(-u, kind="stable").tolist())
        assert ix.apply_map(ix.Ranking(num_arms=K), 0, u[None])[0] == rank(ranking)
        signs = u[u != 0][:, None]
        codes = ix.apply_map(ix.SignMap(), 0, signs)
        assert codes.tolist() == (signs[:, 0] > 0).astype(int).tolist()
        assert [ix.message(ix.SignMap(), c) for c in codes] == np.sign(signs[:, 0]).tolist()

    def test_ranking_decodes_every_code(self):
        for K in range(2, 7):
            assert decoded(ix.Ranking(num_arms=K)) == list(itertools.permutations(range(K)))


def six_maps():
    """One map of each kind, each with its message count and a type it serves."""
    models = np.array([[0.9, 0.1], [0.2, 0.8]])
    eye2 = ix.AgentType(np.eye(2))
    return {
        "argmax": (ix.ArgmaxDirect(representatives=(eye2,)), 2, eye2),
        "ranking": (ix.Ranking(num_arms=2, fiber_models=models), 2, eye2),
        "voronoi": (ix.VoronoiCover(models), 2, eye2),
        "hypercube": (ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2)), 4, eye2),
        "sign": (ix.SignMap(), 2, ix.AgentType([[-1.0], [1.0]])),
        "full_reveal": (ix.FullReveal(models), 2, eye2),
    }


class TestMenuCodes:
    @pytest.mark.parametrize("kind", sorted(six_maps()))
    def test_every_out_of_range_code_is_rejected(self, kind):
        smap, count, x = six_maps()[kind]
        assert ix.num_messages(smap) == count
        for code in range(count):
            assert 0 <= ix.menu(smap, x, code) < x.num_arms
        for code in (-1, -count, count, count + 1):
            with pytest.raises(ValueError, match="out of range"):
                ix.menu(smap, x, code)
            with pytest.raises(ValueError, match="out of range"):
                ix.message(smap, code)
