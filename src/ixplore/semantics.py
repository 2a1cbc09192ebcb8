"""Semantic maps, recommendation menus, cover constructions, and
menu-consistency certification.

A message id is the map-specific discrete tag itself: an arm index, a
permutation tuple, a center index, a cell index, a sign, or a model index.
All tie-breaking is by lowest index (arms, centers, cells), so map
application is fully deterministic across runs and platforms.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import AgentType, expected_reward, frozen_array
from .errors import (
    CoverSizeError,
    NoFeasibleArmError,
    OutOfDomainError,
    UnsupportedOperationError,
)

MessageId = int | tuple

CENTER_CAP = 10**6      # cover construction aborts beyond this many centers
MESSAGE_SPACE_CAP = 10**6
MODEL_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class ArgmaxDirect:
    """Direct recommendation: the message is the best arm for the sampled
    model under the representative type of the observed public label."""

    representatives: tuple

    def __post_init__(self):
        if not self.representatives:
            raise ValueError("ArgmaxDirect needs at least one representative type")
        object.__setattr__(self, "representatives", tuple(self.representatives))


@dataclass(frozen=True)
class Ranking:
    """The message ranks the model's coordinates in descending order
    (d = K embedding). `fiber_models`, when given, is the finite model set
    used to build menu representatives for general private types."""

    num_arms: int
    fiber_models: "np.ndarray | None" = None

    def __post_init__(self):
        if self.num_arms < 2:
            raise ValueError("Ranking needs at least two arms")
        if self.fiber_models is not None:
            object.__setattr__(self, "fiber_models", frozen_array(self.fiber_models))


@dataclass(frozen=True)
class VoronoiCover:
    """The message is the index of the nearest center in l2."""

    centers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", frozen_array(self.centers))
        if self.centers.ndim != 2:
            raise ValueError("centers must form an (n, d) matrix")
        uniq = {tuple(c) for c in self.centers}
        if len(uniq) != len(self.centers):
            raise ValueError("Voronoi centers must be distinct")


@dataclass(frozen=True)
class HypercubeCover:
    """Disjoint l_inf cells of radius `cell_radius` tiling the box
    [origin, origin + 2 * cell_radius * grid_extents]. The message is the
    flat (row-major) cell index."""

    origin: np.ndarray
    cell_radius: float
    grid_extents: tuple

    def __post_init__(self):
        object.__setattr__(self, "origin", frozen_array(self.origin))
        object.__setattr__(self, "grid_extents", tuple(int(n) for n in self.grid_extents))
        if self.cell_radius <= 0:
            raise ValueError("cell_radius must be positive")
        if len(self.grid_extents) != self.origin.shape[0]:
            raise ValueError("grid_extents must give one count per dimension")
        if any(n < 1 for n in self.grid_extents):
            raise ValueError("grid_extents must be >= 1")

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.grid_extents))

    def box(self):
        width = 2.0 * self.cell_radius * np.asarray(self.grid_extents, dtype=float)
        return self.origin, self.origin + width

    def cell_index(self, u) -> int:
        """Flat index of the cell containing u; boundary points go to the
        cell with the smaller index in each dimension."""
        return int(self.cell_indices(np.asarray(u, dtype=float)[None])[0])

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """`cell_index` of every row of an (n, d) matrix."""
        pos = (points - self.origin) / (2.0 * self.cell_radius)
        idx = np.floor(pos)
        idx = np.where((pos == idx) & (idx > 0), idx - 1.0, idx)
        outside = ~((idx >= 0) & (idx < np.asarray(self.grid_extents)))
        if outside.any():
            k, j = np.argwhere(outside)[0]
            raise OutOfDomainError(
                f"coordinate {j} = {points[k, j]:.6g} falls outside the tiled box"
            )
        flat = np.zeros(len(points), dtype=np.int64)
        for j in range(self.dim):
            flat = flat * self.grid_extents[j] + idx[:, j].astype(np.int64)
        return flat

    def cell_center(self, flat: int) -> np.ndarray:
        if not 0 <= flat < self.num_cells:
            raise OutOfDomainError(f"cell index {flat} out of range [0, {self.num_cells})")
        multi = np.empty(self.dim, dtype=int)
        rem = int(flat)
        for j in range(self.dim - 1, -1, -1):
            multi[j] = rem % self.grid_extents[j]
            rem //= self.grid_extents[j]
        return self.origin + 2.0 * self.cell_radius * (multi + 0.5)


@dataclass(frozen=True)
class SignMap:
    """d = 1 only: the message is the sign of the scalar model."""


@dataclass(frozen=True)
class FullReveal:
    """The sampled model is revealed; the message is its index in a finite
    model set."""

    models: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "models", frozen_array(self.models))
        if self.models.ndim != 2:
            raise ValueError("models must form an (n, d) matrix")


SemanticMap = ArgmaxDirect | Ranking | VoronoiCover | HypercubeCover | SignMap | FullReveal


def apply_map(smap, x_pub, u):
    """Message for public label `x_pub` and model `u`.

    For an (n, d) stack of models, the list of row messages, with one public
    label for every row or an (n,) array of labels. Each row goes through
    the same arithmetic as a single model (one gemv per row for argmax
    maps), so a row's message does not depend on the rows beside it."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        return apply_map(smap, x_pub, u.reshape(1, -1))[0]
    samples = u
    if isinstance(smap, ArgmaxDirect):
        labels = np.broadcast_to(np.asarray(x_pub, dtype=np.intp), (len(samples),))
        scores = np.empty((len(samples), smap.representatives[0].num_arms))
        for label in sorted(set(labels.tolist())):
            idx = np.flatnonzero(labels == label)
            rows = smap.representatives[label].rows
            scores[idx] = np.matmul(rows, samples[idx][:, :, None])[:, :, 0]
        return np.argmax(scores, axis=1).tolist()
    if isinstance(smap, Ranking):
        if samples.shape[1:] != (smap.num_arms,):
            raise ValueError("Ranking expects the d = K embedding")
        # a stable argsort of -u keeps the lower index first among equal coordinates
        order = np.argsort(-samples, axis=1, kind="stable")
        return [tuple(row) for row in order.tolist()]
    if isinstance(smap, VoronoiCover):
        diff = samples[:, None, :] - smap.centers[None, :, :]
        return np.argmin(np.sqrt((diff * diff).sum(axis=2)), axis=1).tolist()
    if isinstance(smap, HypercubeCover):
        return smap.cell_indices(samples).tolist()
    if isinstance(smap, SignMap):
        if samples.shape[1:] != (1,):
            raise ValueError("SignMap requires a one-dimensional model")
        if np.any(samples == 0.0):
            raise OutOfDomainError("sign map is undefined at 0")
        return np.where(samples[:, 0] > 0, 1, -1).tolist()
    if isinstance(smap, FullReveal):
        hits = np.all(np.abs(smap.models[None] - samples[:, None]) <= MODEL_MATCH_TOL, axis=2)
        if not hits.any(axis=1).all():
            raise OutOfDomainError("model is not a member of the revealed finite set")
        return np.argmax(hits, axis=1).tolist()
    raise TypeError(f"unknown semantic map {type(smap).__name__}")


def is_sleeping_type(x: AgentType) -> bool:
    """Diagonal 0/1 rows in the d = K embedding (asleep arms are zero rows)."""
    if x.num_arms != x.dim:
        return False
    for i in range(x.num_arms):
        row = x.rows[i]
        on_diag = row[i]
        if on_diag not in (0.0, 1.0):
            return False
        off = np.delete(row, i)
        if off.size and np.any(off != 0.0):
            return False
        if on_diag == 0.0 and np.any(row != 0.0):
            return False
    return True


def menu(smap, x: AgentType, m) -> int:
    """Arm recommended to type `x` by message `m`. Ties break to the lowest
    arm index."""
    if isinstance(smap, ArgmaxDirect):
        arm = int(m)
        if not 0 <= arm < x.num_arms:
            raise ValueError(f"arm message {arm} out of range")
        return arm
    if isinstance(smap, Ranking):
        ranking = tuple(int(i) for i in m)
        if sorted(ranking) != list(range(smap.num_arms)):
            raise ValueError(f"{m} is not a permutation of {smap.num_arms} arms")
        if is_sleeping_type(x):
            for arm in ranking:
                if x.rows[arm, arm] == 1.0:
                    return arm
            raise NoFeasibleArmError("all arms are asleep for this type")
        if smap.fiber_models is None:
            raise UnsupportedOperationError(
                "Ranking menus for non-sleeping types need a finite model set"
            )
        fiber = [
            u for u in smap.fiber_models
            if apply_map(smap, x.public_id, u) == ranking
        ]
        if not fiber:
            raise OutOfDomainError(f"no model in the finite set maps to ranking {m}")
        rep = np.mean(np.asarray(fiber), axis=0)
        return int(np.argmax(x.rows @ rep))
    if isinstance(smap, VoronoiCover):
        return int(np.argmax(x.rows @ smap.centers[int(m)]))
    if isinstance(smap, HypercubeCover):
        return int(np.argmax(x.rows @ smap.cell_center(int(m))))
    if isinstance(smap, SignMap):
        if m not in (-1, 1):
            raise ValueError(f"sign message must be -1 or +1, got {m}")
        return int(np.argmax(m * x.rows[:, 0]))
    if isinstance(smap, FullReveal):
        return int(np.argmax(x.rows @ smap.models[int(m)]))
    raise TypeError(f"unknown semantic map {type(smap).__name__}")


def message_space(smap) -> tuple:
    """Canonical enumeration of the map's messages."""
    if isinstance(smap, ArgmaxDirect):
        return tuple(range(smap.representatives[0].num_arms))
    if isinstance(smap, Ranking):
        if math.factorial(smap.num_arms) > MESSAGE_SPACE_CAP:
            raise UnsupportedOperationError(
                f"{smap.num_arms}! rankings exceed the enumeration cap"
            )
        return tuple(itertools.permutations(range(smap.num_arms)))
    if isinstance(smap, VoronoiCover):
        return tuple(range(len(smap.centers)))
    if isinstance(smap, HypercubeCover):
        if smap.num_cells > MESSAGE_SPACE_CAP:
            raise UnsupportedOperationError("hypercube cell count exceeds the enumeration cap")
        return tuple(range(smap.num_cells))
    if isinstance(smap, SignMap):
        return (-1, 1)
    if isinstance(smap, FullReveal):
        return tuple(range(len(smap.models)))
    raise TypeError(f"unknown semantic map {type(smap).__name__}")


def message_indices(smap, x_pub, points) -> np.ndarray:
    """Position in `message_space(smap)` of the message of every row of an
    (n, d) point set."""
    index = {m: k for k, m in enumerate(message_space(smap))}
    return np.array([index[m] for m in apply_map(smap, x_pub, points)], dtype=np.intp)


def build_voronoi_cover(domain, radius: float) -> np.ndarray:
    """Axis-aligned grid of centers covering `domain` at l2 radius `radius`.

    `domain` is ("box", lo, hi) or ("ball", ball_radius, dim). Per-dimension
    spacing is at most 2 * radius / sqrt(d), so every point of the domain is
    within `radius` of some center. For balls, centers whose grid cell does
    not intersect the ball are pruned; boundary cells are retained.
    """
    if radius <= 0:
        raise ValueError("cover radius must be positive")
    kind = domain[0]
    if kind == "box":
        lo = np.asarray(domain[1], dtype=float)
        hi = np.asarray(domain[2], dtype=float)
    elif kind == "ball":
        ball_radius = float(domain[1])
        dim = int(domain[2])
        lo = np.full(dim, -ball_radius)
        hi = np.full(dim, ball_radius)
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    if np.any(hi <= lo):
        raise ValueError("domain box must have positive widths")
    d = lo.shape[0]
    max_spacing = 2.0 * radius / np.sqrt(d)
    widths = hi - lo
    counts = np.maximum(np.ceil(widths / max_spacing).astype(int), 1)
    total = int(np.prod(counts.astype(object)))
    if total > CENTER_CAP:
        raise CoverSizeError(
            f"cover would need {total} centers (cap {CENTER_CAP}); increase the radius"
        )
    axes = [lo[j] + (np.arange(counts[j]) + 0.5) * (widths[j] / counts[j]) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    if kind == "ball":
        half = 0.5 * widths / counts
        nearest = np.maximum(np.abs(centers) - half, 0.0)
        keep = np.linalg.norm(nearest, axis=1) <= ball_radius
        centers = centers[keep]
    return centers


def _fiber_diameter(points: np.ndarray) -> float:
    if len(points) < 2:
        return 0.0
    if points.shape[1] == 1:
        return float(points.max() - points.min())
    best = 0.0
    chunk = 256
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


def granularity(smap, model_samples, x_pub: int = 0) -> float:
    """Empirical granularity: the largest l2 diameter of sampled models that
    share a message."""
    samples = np.atleast_2d(np.asarray(model_samples, dtype=float))
    if len(samples) < 2:
        raise ValueError("granularity needs at least two samples")
    fibers = {}
    for u, m in zip(samples, apply_map(smap, x_pub, samples)):
        fibers.setdefault(m, []).append(u)
    return max(_fiber_diameter(np.asarray(pts)) for pts in fibers.values())


@dataclass(frozen=True)
class ConsistencyReport:
    """Certified (exhaustive) or estimated (sampled) menu-consistency margin
    with the worst witness tuple (type index, model index, message, i, j)."""

    alpha: float
    mode: str
    witness: tuple


def check_menu_consistency(smap, types, models, mode="exhaustive") -> ConsistencyReport:
    """Worst-case margin of the menu's arm over every alternative.

    alpha = min over (x, u, j != i) of rewE(u, x, i) - rewE(u, x, j) with
    i = menu(x, Q(pub(x), u)). Exhaustive mode is exact over the given
    enumerations; sampled mode reports an upper estimate over the samples.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    types = list(types)
    models = np.array(models, dtype=float)
    if not types or not len(models):
        raise ValueError("menu-consistency needs nonempty type and model collections")
    n = len(models)
    alpha = np.inf
    witness = None
    for ti, x in enumerate(types):
        messages = apply_map(smap, x.public_id, models)
        chosen = np.array([menu(smap, x, m) for m in messages], dtype=np.intp)
        rows = np.broadcast_to(x.rows, (n,) + x.rows.shape)
        rewards = np.stack(
            [expected_reward(models, rows, np.full(n, j)) for j in range(x.num_arms)], axis=1
        )
        margins = expected_reward(models, rows, chosen)[:, None] - rewards
        margins[np.arange(n), chosen] = np.inf
        # the first minimum in (model, arm) order, as a loop over both finds it
        ui, j = divmod(int(np.argmin(margins)), x.num_arms)
        if margins[ui, j] < alpha:
            alpha = margins[ui, j]
            witness = (ti, ui, messages[ui], int(chosen[ui]), j)
    label = "exhaustive" if mode == "exhaustive" else f"sampled({len(types)}x{len(models)})"
    return ConsistencyReport(alpha=float(alpha), mode=label, witness=witness)

