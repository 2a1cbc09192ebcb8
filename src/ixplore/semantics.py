"""Semantic maps, recommendation menus, cover constructions, and
menu-consistency certification.

Every layer handles a message as its integer code, its position in the
map's canonical order: the arm, center, cell or model index; 0 or 1 for a
sign of -1 or +1; a ranking's position among the permutations of range(K)
in lexicographic order (its Lehmer rank). `message` decodes a code into
the value a reader sees, at output only. All tie-breaking is by lowest
index (arms, centers, cells), so map application is fully deterministic
across runs and platforms.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .domain import AgentType, Instance, expected_reward, frozen_array
from .errors import (
    ConfigError,
    CoverSizeError,
    NoFeasibleArmError,
    OutOfDomainError,
    UnsupportedOperationError,
)
from .priors import DiscretePosterior, DiscretePrior, UniformBallPrior, support_box

CENTER_CAP = 10**6      # cover construction aborts beyond this many centers
MESSAGE_SPACE_CAP = 10**6
MODEL_MATCH_TOL = 1e-12
# (row, center) pairs per block of a Voronoi `apply_map`, which bounds its
# (rows, centers, d) temporaries at any number of rows or centers
VORONOI_BLOCK_PAIRS = 2**16


@dataclass(frozen=True, eq=False)
class ArgmaxDirect:
    """Direct recommendation: the message is the best arm for the sampled
    model under the representative type of the observed public label."""

    representatives: tuple

    def __post_init__(self):
        if not self.representatives:
            raise ValueError("ArgmaxDirect needs at least one representative type")
        object.__setattr__(self, "representatives", tuple(self.representatives))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True, eq=False)
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
        return math.prod(self.grid_extents)

    def box(self):
        width = 2.0 * self.cell_radius * np.asarray(self.grid_extents, dtype=float)
        return self.origin, self.origin + width

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """Flat index of the cell containing each row of an (n, d) matrix;
        boundary points go to the cell with the smaller index in each
        dimension."""
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


@dataclass(frozen=True, eq=False)
class FullReveal:
    """The sampled model is revealed; the message is its index in a finite
    model set."""

    models: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "models", frozen_array(self.models))
        if self.models.ndim != 2:
            raise ValueError("models must form an (n, d) matrix")


def apply_map(smap, x_pub, u) -> np.ndarray:
    """The (n,) int64 message codes of the rows of an (n, d) stack of models
    `u`, with one public label `x_pub` for every row or an (n,) array of
    labels. Each row goes through its own arithmetic (one gemv per row for
    argmax maps), so a row's message does not depend on the rows beside it."""
    samples = np.asarray(u, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"apply_map takes an (n, d) stack of models, not shape {samples.shape}")
    if isinstance(smap, ArgmaxDirect):
        labels = np.broadcast_to(np.asarray(x_pub, dtype=np.intp), (len(samples),))
        scores = np.empty((len(samples), smap.representatives[0].num_arms))
        for label in sorted(set(labels.tolist())):
            idx = np.flatnonzero(labels == label)
            rows = smap.representatives[label].rows
            scores[idx] = np.matmul(rows, samples[idx][:, :, None])[:, :, 0]
        return np.argmax(scores, axis=1).astype(np.int64)
    if isinstance(smap, Ranking):
        if samples.shape[1:] != (smap.num_arms,):
            raise ValueError("Ranking expects the d = K embedding")
        # a stable argsort of -u keeps the lower index first among equal coordinates
        order = np.argsort(-samples, axis=1, kind="stable")
        # Lehmer digit i counts the arms after position i that precede its arm
        digits = np.triu(order[:, :, None] > order[:, None, :], 1).sum(axis=2)
        K = smap.num_arms
        return digits @ np.array([math.factorial(K - 1 - i) for i in range(K)], dtype=np.int64)
    if isinstance(smap, VoronoiCover):
        codes = np.empty(len(samples), dtype=np.int64)
        step = max(1, VORONOI_BLOCK_PAIRS // max(1, len(smap.centers)))
        for a in range(0, len(samples), step):
            diff = samples[a:a + step, None, :] - smap.centers[None, :, :]
            codes[a:a + step] = np.argmin(np.sqrt((diff * diff).sum(axis=2)), axis=1)
        return codes
    if isinstance(smap, HypercubeCover):
        return smap.cell_indices(samples)
    if isinstance(smap, SignMap):
        if samples.shape[1:] != (1,):
            raise ValueError("SignMap requires a one-dimensional model")
        if np.any(samples == 0.0):
            raise OutOfDomainError("sign map is undefined at 0")
        return (samples[:, 0] > 0).astype(np.int64)
    if isinstance(smap, FullReveal):
        hits = np.all(np.abs(smap.models[None] - samples[:, None]) <= MODEL_MATCH_TOL, axis=2)
        if not hits.any(axis=1).all():
            raise OutOfDomainError("model is not a member of the revealed finite set")
        return np.argmax(hits, axis=1).astype(np.int64)
    raise TypeError(f"unknown semantic map {type(smap).__name__}")


def is_sleeping_type(x: AgentType) -> bool:
    """Diagonal 0/1 rows in the d = K embedding (asleep arms are zero rows)."""
    if x.num_arms != x.dim:
        return False
    diag = np.diag(x.rows)
    return bool(np.isin(diag, (0.0, 1.0)).all() and np.array_equal(x.rows, np.diag(diag)))


def check_map(smap, types, inst: Instance):
    """Reject a map that does not fit the instance or the agent types (each
    of them, and each argmax representative, must be (K, d))."""
    if isinstance(smap, (HypercubeCover, VoronoiCover)) and smap.dim != inst.d:
        raise ConfigError(f"semantic map dimension {smap.dim} does not match d = {inst.d}")
    if isinstance(smap, Ranking) and not smap.num_arms == inst.K == inst.d:
        raise ConfigError(f"the ranking map needs the d = K embedding, got d = {inst.d}, K = {inst.K}")
    if isinstance(smap, SignMap) and inst.d != 1:
        raise ConfigError("sign map requires d = 1")
    if isinstance(smap, FullReveal) and smap.models.shape[1] != inst.d:
        raise ConfigError(f"revealed model dimension {smap.models.shape[1]} does not match d = {inst.d}")
    num_messages(smap)  # message codes are int64 only below the cap
    representatives = smap.representatives if isinstance(smap, ArgmaxDirect) else ()
    for x in (*types, *representatives):
        if x.rows.shape != (inst.K, inst.d):
            raise ConfigError(f"type shape {x.rows.shape} does not match (K, d) = ({inst.K}, {inst.d})")
    if representatives and not all(0 <= x.public_id < len(representatives) for x in types):
        raise ConfigError("every public label needs a representative type")
    if isinstance(smap, Ranking) and smap.fiber_models is None and not all(map(is_sleeping_type, types)):
        raise ConfigError("Ranking menus for non-sleeping types need a finite model set")


def num_messages(smap) -> int:
    """The number of the map's messages; codes run over [0, num_messages)."""
    if isinstance(smap, ArgmaxDirect):
        count = smap.representatives[0].num_arms
    elif isinstance(smap, Ranking):
        count = math.factorial(smap.num_arms)
    elif isinstance(smap, VoronoiCover):
        count = len(smap.centers)
    elif isinstance(smap, HypercubeCover):
        count = smap.num_cells
    elif isinstance(smap, SignMap):
        count = 2
    elif isinstance(smap, FullReveal):
        count = len(smap.models)
    else:
        raise TypeError(f"unknown semantic map {type(smap).__name__}")
    if count > MESSAGE_SPACE_CAP:
        raise UnsupportedOperationError(
            f"{type(smap).__name__} has {count} messages, above the cap of {MESSAGE_SPACE_CAP}"
        )
    return count


def message(smap, code):
    """The message of a code as a reader sees it: a permutation tuple for a
    ranking, -1 or +1 for a sign, and the code itself for every other map.
    A code outside [0, num_messages(smap)) raises ValueError."""
    code = operator.index(code)
    if not 0 <= code < num_messages(smap):
        raise ValueError(f"message code {code} out of range [0, {num_messages(smap)})")
    if isinstance(smap, Ranking):
        # the Lehmer digit of weight k! picks among the k + 1 arms still unplaced
        rest = list(range(smap.num_arms))
        return tuple(rest.pop(code // math.factorial(k) % (k + 1)) for k in range(smap.num_arms - 1, -1, -1))
    if isinstance(smap, SignMap):
        return 2 * code - 1
    return code


def menu(smap, x: AgentType, code) -> int:
    """Arm recommended to type `x` by the message of `code`. Ties break to
    the lowest arm index."""
    m = message(smap, code)  # rejects every code out of range
    if isinstance(smap, ArgmaxDirect):
        return m
    if isinstance(smap, Ranking):
        if is_sleeping_type(x):
            for arm in m:
                if x.rows[arm, arm] == 1.0:
                    return arm
            raise NoFeasibleArmError("all arms are asleep for this type")
        if smap.fiber_models is None:
            raise UnsupportedOperationError(
                "Ranking menus for non-sleeping types need a finite model set"
            )
        fiber = smap.fiber_models[apply_map(smap, x.public_id, smap.fiber_models) == code]
        if not len(fiber):
            raise OutOfDomainError(f"no model in the finite set maps to ranking {m}")
        return int(np.argmax(x.rows @ np.mean(fiber, axis=0)))
    if isinstance(smap, VoronoiCover):
        return int(np.argmax(x.rows @ smap.centers[m]))
    if isinstance(smap, HypercubeCover):
        return int(np.argmax(x.rows @ smap.cell_center(m)))
    if isinstance(smap, SignMap):
        return int(np.argmax(m * x.rows[:, 0]))
    return int(np.argmax(x.rows @ smap.models[m]))


def message_distribution(state, smap, x_pub: int) -> np.ndarray:
    """Law of the map applied to a draw from a discrete prior or from each
    posterior of a stack, over the map's message codes.

    Each message's probability is the sum of its models' weights in model
    order: an (n_messages,) array for a prior, and (n, n_messages) rows for
    a stack with (n, M) log-weights, each equal to its single call.
    Continuous states have no finite law and raise.
    """
    if isinstance(state, DiscretePrior):
        points = state.models
    elif isinstance(state, DiscretePosterior):
        points = state.prior.models
    else:
        raise UnsupportedOperationError(
            f"message distributions need a discrete state, not {type(state).__name__}"
        )
    weights = state.weights
    probs = np.zeros(weights.shape[:-1] + (num_messages(smap),))
    np.add.at(probs, (..., apply_map(smap, x_pub, points)), weights)
    return probs


def bin_rows(keys: np.ndarray) -> tuple:
    """The rows of a 1-D integer array grouped by value, from one stable
    sort: (fibers, inverse), a dict from each distinct value, in increasing
    order, to its row indices in row order, and each row's value's position
    in that order. Every binning of rows by message goes through here."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    bounds = np.flatnonzero(first).tolist() + [len(keys)]
    return dict(zip(ordered[first].tolist(), (order[a:b] for a, b in zip(bounds, bounds[1:])))), inverse


def build_voronoi_cover(domain, radius: float) -> np.ndarray:
    """Axis-aligned grid of centers covering `domain`, a `UniformBoxPrior`
    or a `UniformBallPrior`, at l2 radius `radius`.

    The grid tiles the domain's `support_box`. Per-dimension spacing is at
    most 2 * radius / sqrt(d), so every point of the domain is within
    `radius` of some center. For a ball, centers whose grid cell does not
    intersect the ball are pruned; boundary cells are retained. A grid of
    more than CENTER_CAP cells, an infinite one included, raises
    CoverSizeError.
    """
    if radius <= 0:
        raise ValueError("cover radius must be positive")
    lo, hi = support_box(domain)
    d = lo.shape[0]
    max_spacing = 2.0 * radius / np.sqrt(d)
    with np.errstate(over="ignore"):  # a width, count or total that overflows is inf, over the cap
        widths = hi - lo
        counts = np.maximum(np.ceil(widths / max_spacing), 1.0)
        total = np.prod(counts)
    if total > CENTER_CAP:
        raise CoverSizeError(
            f"cover would need {total:.0f} centers (cap {CENTER_CAP}); increase the radius"
        )
    counts = counts.astype(int)
    axes = [lo[j] + (np.arange(counts[j]) + 0.5) * (widths[j] / counts[j]) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    if isinstance(domain, UniformBallPrior):
        half = 0.5 * widths / counts
        nearest = np.maximum(np.abs(centers) - half, 0.0)
        centers = centers[np.linalg.norm(nearest, axis=1) <= domain.radius]
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
    return max(_fiber_diameter(samples[rows]) for rows in bin_rows(apply_map(smap, x_pub, samples))[0].values())


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
        codes, inverse = bin_rows(messages)
        chosen = np.array([menu(smap, x, c) for c in codes], dtype=np.intp)[inverse]
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
            witness = (ti, ui, message(smap, messages[ui]), int(chosen[ui]), j)
    label = "exhaustive" if mode == "exhaustive" else f"sampled({len(types)}x{len(models)})"
    return ConsistencyReport(alpha=float(alpha), mode=label, witness=witness)

