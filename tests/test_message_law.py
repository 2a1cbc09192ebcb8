"""One message law over a finite model set.

`message_distribution` on a stack of discrete posteriors must give, row by
row, the same bytes as the call on each posterior alone and as a plain
sequential loop over the models; the exact-assisted audit's per-(type,
message) samples must equal the per-replicate loop they replaced, which is
kept here as the reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ixplore as ix
from ixplore.audit import _posterior_samples
from ixplore.priors import DiscretePosterior, _log_normalize
from ixplore.semantics import menu, message_space

MAP_KINDS = ("argmax", "ranking", "voronoi", "hypercube", "full_reveal", "sign")


def build_case(kind, rng, n_models, n_rows):
    """A discrete prior, a map of `kind`, distinct types, a stack of
    posterior log-weights and each row's round type."""
    if kind == "sign":
        d, K = 1, 2
        models = rng.choice([-1.0, 1.0], size=(n_models, 1)) * rng.uniform(0.1, 2.0, (n_models, 1))
    elif kind == "ranking":
        d = K = int(rng.integers(2, 4))
        models = rng.normal(size=(n_models, d))
    elif kind == "hypercube":
        d, K = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        models = rng.uniform(0.0, 2.0, size=(n_models, d))
    else:
        d, K = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        models = rng.normal(size=(n_models, d))
    types = [ix.AgentType(rng.normal(size=(K, d)), public_id=p) for p in range(int(rng.integers(1, 3)))]
    if kind == "ranking":
        types[0] = ix.AgentType(np.eye(K), public_id=0)  # a sleeping type beside general ones
    smap = {
        "argmax": lambda: ix.ArgmaxDirect(representatives=tuple(types)),
        "ranking": lambda: ix.Ranking(num_arms=K, fiber_models=models),
        "voronoi": lambda: ix.VoronoiCover(rng.normal(size=(int(rng.integers(1, 5)), d))),
        "hypercube": lambda: ix.HypercubeCover(np.zeros(d), 0.5, (2,) * d),
        "full_reveal": lambda: ix.FullReveal(models),
        "sign": lambda: ix.SignMap(),
    }[kind]()
    raw = rng.exponential(size=n_models) * (rng.random(n_models) < 0.8)
    raw[rng.integers(n_models)] += 1.0
    prior = ix.DiscretePrior(models, raw / raw.sum())
    logw = rng.normal(scale=3.0, size=(n_rows, n_models))
    logw[rng.random((n_rows, n_models)) < 0.2] = -np.inf
    logw[np.arange(n_rows), rng.integers(n_models, size=n_rows)] = 0.0
    type_ids = rng.integers(len(types), size=n_rows)
    return prior, smap, types, _log_normalize(logw), type_ids


def sequential_probs(weights, models, smap, x_pub):
    """Message probabilities added one model at a time, in model order."""
    messages = message_space(smap)
    probs = np.zeros(len(messages))
    for w, u in zip(weights, models):
        probs[messages.index(ix.apply_map(smap, x_pub, u))] += w
    return probs


def per_replicate_samples(prior, smap, types, log_weights, type_ids):
    """The exact audit's former per-replicate loop."""
    models = prior.models
    messages = message_space(smap)
    index = {m: j for j, m in enumerate(messages)}
    tags = {}
    pairs = {}
    for k, ti in enumerate(type_ids.tolist()):
        x = types[ti]
        if x.public_id not in tags:
            tags[x.public_id] = np.array([index[m] for m in ix.apply_map(smap, x.public_id, models)])
        tag = tags[x.public_id]
        w = np.exp(log_weights[k])
        probs = np.zeros(len(messages))
        np.add.at(probs, tag, w)
        for j, q in enumerate(probs):
            if q <= 0.0:
                continue
            m = messages[j]
            mask = tag == j
            cond = w[mask] / q
            i = menu(smap, x, m)
            gaps = ((x.rows[i] - x.rows) @ models[mask].T) @ cond
            pairs.setdefault((ti, m), []).append((float(q), gaps))
    return {
        key: (np.array([q for q, _ in rows]), np.array([g for _, g in rows]))
        for key, rows in pairs.items()
    }


case_params = dict(
    kind=st.sampled_from(MAP_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n_models=st.integers(1, 12),
    n_rows=st.integers(1, 6),
)


@settings(max_examples=120, deadline=None)
@given(**case_params)
def test_stack_rows_match_single_calls_and_a_sequential_loop(kind, seed, n_models, n_rows):
    prior, smap, types, logw, _ = build_case(kind, np.random.default_rng(seed), n_models, n_rows)
    stack = DiscretePosterior(prior, logw)
    for x in types:
        probs = ix.message_distribution(stack, smap, x.public_id).probs
        assert probs.shape == (n_rows, len(message_space(smap)))
        for k in range(n_rows):
            single = DiscretePosterior(prior, logw[k])
            row = ix.message_distribution(single, smap, x.public_id).probs
            assert probs[k].tobytes() == row.tobytes()
            reference = sequential_probs(single.weights, prior.models, smap, x.public_id)
            assert row.tobytes() == reference.tobytes()
        on_prior = ix.message_distribution(prior, smap, x.public_id).probs
        reference = sequential_probs(prior.weights, prior.models, smap, x.public_id)
        assert on_prior.tobytes() == reference.tobytes()


@settings(max_examples=120, deadline=None)
@given(**case_params)
def test_exact_audit_samples_match_the_per_replicate_loop(kind, seed, n_models, n_rows):
    prior, smap, types, logw, type_ids = build_case(kind, np.random.default_rng(seed), n_models, n_rows)
    got = _posterior_samples(prior, smap, types, logw, type_ids)
    want = per_replicate_samples(prior, smap, types, logw, type_ids)
    assert got.keys() == want.keys()
    for key, (q, gaps) in want.items():
        assert got[key][0].tobytes() == q.tobytes()
        assert got[key][1].tobytes() == gaps.tobytes()
