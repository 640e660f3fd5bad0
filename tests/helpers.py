"""Shared test oracles: finite differences of tape nodes and of NumPy
kernels, the `model.step` decoder unroll, the per-tensor Adam step and
gradient clip, the per-step probe and attention decodes and one-caption
localization built on `model.step`; padded
batches; hand-packed array containers; a score row's (word, score) pairs,
sorted in Python; hand-built `MethodScores`; and the per-word table
build, cnn_avgmax scorer, gold-rank loop, evaluation, report rows and
per-cell rankings and ranks writers that the induce stage's array code
replaced, each reading one source word's row of a `MethodScores`."""

import json
import struct

import numpy as np

from lexipivot import induction
from lexipivot.corpus.vocab import PAD
from lexipivot.errors import EmptyResultError
from lexipivot.induction import (
    BOTTOM_SCORE,
    GOLD_OUTSIDE,
    KS,
    RANKING_WIDTH,
    UNRANKED,
    ZERO_NORM,
    EvalReport,
    MethodScores,
    WordFeatureTable,
    gold_index,
    gold_ranks,
    write_rankings,
)
from lexipivot.numerics.optim import BETA1, BETA2, EPSILON
from lexipivot.pipeline import reports_for, score_methods

# Each evaluation of f may be off by a few ulps of |f|; a central difference
# divides that by eps, so this many ulps of |f| over eps are round-off, not
# gradient error.
ROUNDOFF_ULPS = 4


def numeric_gradient(f, values, eps=1e-6):
    """Central-difference gradient of scalar f() w.r.t. the array `values`.

    f must rebuild its computation from the live array on every call, and
    return a value with `.item()` (a tape node or a NumPy scalar).
    """
    flat = values.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f().item())
        flat[i] = orig - eps
        f_minus = float(f().item())
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(values.shape)


def roundoff_atol(value, eps, dtype=np.float64):
    """Absolute round-off of a central difference of f at step eps, where
    f evaluates to `value` (taken as at least 1 in magnitude)."""
    return ROUNDOFF_ULPS * np.finfo(dtype).eps * max(abs(value), 1.0) / eps


def max_rel_err(analytic, numeric, atol=0.0):
    """Largest relative gradient error after forgiving `atol` of absolute
    error, so `max_rel_err(a, n, atol) < tol` is the bound
    |a - n| < atol + tol * max(|a|, |n|) on every element."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    excess = np.maximum(np.abs(a - n) - atol, 0.0)
    scale = np.maximum(np.abs(a), np.abs(n))
    rel = np.divide(excess, scale, out=np.zeros_like(excess), where=scale > 0)
    return float(np.max(rel)) if a.size else 0.0


def assert_grads_close(f, tensors, tol=1e-6, eps=1e-6):
    """Backward of f() against central differences for each tensor.

    f must be deterministic: it is evaluated twice at the same point and
    the two values must agree exactly.
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    loss.backward()
    value, again = float(loss.item()), float(f().item())
    assert value == again, f"closure is not deterministic: {value!r} != {again!r}"
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
    for t in tensors:
        t.zero_grad()
    assert_array_grads_close(f, [t.data for t in tensors], grads, tol, eps)


def assert_array_grads_close(f, arrays, grads, tol=1e-6, eps=1e-6):
    """Hand-written gradients `grads` of scalar f() w.r.t. each of `arrays`,
    which f reads in place, against central differences: the check of a
    NumPy kernel's backward, and of a tape node's."""
    value = float(f().item())
    atol = roundoff_atol(value, eps, np.result_type(*arrays))
    for values, analytic in zip(arrays, grads, strict=True):
        err = max_rel_err(analytic, numeric_gradient(f, values, eps=eps), atol)
        assert err < tol, f"gradient mismatch (rel err {err:.3e} >= tol {tol:.1e})"


def localize_one(model, language, features, tokens, method="probe"):
    """One caption decoded on its raw region features by the per-step
    oracles: (feature [L-2,D], region weights [L-2,K]) of each word
    position."""
    regions = model.encode(np.asarray(features)[None])
    by_steps = probe_by_steps if method == "probe" else attention_by_steps
    feats, weights = by_steps(model, language, regions, [tokens])[:2]
    return feats[0], weights[0]


def probe_by_steps(model, language, regions, tokens):
    """The probe decode as `model.step` on B*K single-region rows, one
    caption of tokens [B,L] per image of regions [B,K,D], with the tied
    logits h @ embed of each step: the path the hoisted probe decode
    replaced. Returns (features [B,L-2,D], weights [B,L-2,K], each step's
    attention weights [L-2,B*K,1] and contexts [L-2,B*K,D])."""
    tokens = np.asarray(tokens, dtype=np.intp)
    b, k, d = regions.shape
    embed = model.embedding(language).data
    decoded = regions.reshape(b * k, 1, d)  # B*K decodes x 1 region each
    tokens_by_row = np.repeat(tokens, k, axis=0)
    row_ids = np.arange(b * k)
    feats, weights, alphas, contexts = [], [], [], []
    region_part = model.attention_precompute(decoded)
    state = model.initial_state(b * k)
    for t in range(1, tokens.shape[1] - 1):
        state, alpha, context = model.step(language, state, tokens_by_row[:, t - 1], decoded,
                                           region_part)
        logits = state[0] @ embed
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        p_t = probs[row_ids, tokens_by_row[:, t]] / probs.sum(axis=1)
        w = p_t.reshape(b, k)
        w = w / w.sum(axis=1, keepdims=True)
        weights.append(w)
        feats.append(np.matmul(w[:, None, :], regions)[:, 0])
        alphas.append(alpha)
        contexts.append(context)
    return (np.stack(feats, axis=1), np.stack(weights, axis=1), np.stack(alphas),
            np.stack(contexts))


def attention_by_steps(model, language, regions, tokens):
    """The attention decode as `model.step` on one row per caption of tokens
    [B,L] over its image's regions [B,K,D]. Returns (features [B,L-2,D],
    weights [B,L-2,K]): each step's context vector and attention weights."""
    tokens = np.asarray(tokens, dtype=np.intp)
    feats, weights = [], []
    region_part = model.attention_precompute(regions)
    state = model.initial_state(len(tokens))
    for t in range(1, tokens.shape[1] - 1):
        state, alpha, context = model.step(language, state, tokens[:, t - 1], regions,
                                           region_part)
        weights.append(alpha)
        feats.append(context)
    return np.stack(feats, axis=1), np.stack(weights, axis=1)


def unroll_by_steps(model, language, tokens, features):
    """The teacher-forced unroll as a `model.step` loop from the zero state:
    caption b's token t feeds step t of its raw region features [B,K,F].
    Returns the step-major hidden states [T*B,H], T = tokens.shape[1] - 1."""
    tokens = np.asarray(tokens, dtype=np.intp)
    regions = model.encode(features)
    region_part = model.attention_precompute(regions)
    state = model.initial_state(len(tokens))
    hidden = []
    for t in range(tokens.shape[1] - 1):
        state, _, _ = model.step(language, state, tokens[:, t], regions, region_part)
        hidden.append(state[0])
    return np.concatenate(hidden)


def padded_batch(examples, regions):
    """A batch as `MultiLingualModel.sequence_loss` takes it: the tokens
    [B,L] PAD-padded to the widest caption and the region features [B,K,F]
    of each caption's image, row `image_row` of the language's `regions`."""
    width = max(len(ex.tokens) for ex in examples)
    tokens = np.array([ex.tokens + (PAD,) * (width - len(ex.tokens)) for ex in examples])
    return tokens, np.stack([regions[ex.image_row] for ex in examples])


def clip_by_tensor(params, max_norm):
    """`clip_global_norm` one tensor at a time, as it was before the flat
    buffers: the squares summed per tensor in name order, in float64."""
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= max_norm / norm
    return norm


def adam_by_tensor(params, moments, step, learning_rate):
    """`adam_update` one tensor at a time, as it was before the flat
    buffers: step `step` (from 1) over every parameter with a gradient.
    `moments` maps name -> (m, v) and gains an entry at a tensor's first
    gradient; gradients are cleared after."""
    step_size = learning_rate / (1.0 - BETA1 ** step)
    v_scale = 1.0 / (1.0 - BETA2 ** step)
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = moments.setdefault(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        denom = v * v_scale
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update = step_size * m
        update /= denom
        p.data -= update
        p.zero_grad()


def pack_container(magic: bytes, header, payload: bytes = b"", version: int = 2) -> bytes:
    """The bytes of an array container with a hand-made JSON header."""
    text = json.dumps(header).encode("utf-8")
    return struct.pack("<4sII", magic, version, len(text)) + text + payload


def edit_header(path, edit) -> None:
    """Rewrite a container file's JSON header in place with `edit(header)`,
    keeping its magic, version and array bytes."""
    blob = path.read_bytes()
    magic, version, length = struct.unpack_from("<4sII", blob)
    header = json.loads(blob[12:12 + length])
    edit(header)
    path.write_bytes(pack_container(magic, header, blob[12 + length:], version))


def ranked_pairs(scored: MethodScores, i: int, targets: list[str]) -> list[tuple[str, float]]:
    """Every (word, score) pair of row i of `scored` over the target words
    `targets`, best first: a Python sort of the row by (-score, word). The
    row's head must hold the sort's first min(RANKING_WIDTH, targets)
    places."""
    row, head = scored.scores[i].tolist(), scored.heads[i].tolist()
    pairs = sorted(zip(targets, row), key=lambda kv: (-kv[1], kv[0]))
    assert len(head) == min(RANKING_WIDTH, len(pairs))
    assert [(targets[k], row[k]) for k in head] == pairs[:RANKING_WIDTH]
    return pairs


def ranking_from_pairs(pairs_by_source: dict) -> tuple[MethodScores, list[str], list[str]]:
    """The `MethodScores` of hand-built rankings, every source scorable and
    without fallback pairs, with its source and target word lists, both
    sorted. Each source's pairs hold every target word once with its score,
    best first by (-score, word), as a ranking orders them."""
    sources = sorted(pairs_by_source)
    targets = sorted(w for w, _ in pairs_by_source[sources[0]]) if sources else []
    columns = {w: k for k, w in enumerate(targets)}
    n = min(RANKING_WIDTH, len(targets))
    scores = np.empty((len(sources), len(targets)))
    heads = np.empty((len(sources), n), dtype=np.intp)
    for i, x in enumerate(sources):
        pairs = list(pairs_by_source[x])
        assert pairs == sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
        assert sorted(w for w, _ in pairs) == targets
        scores[i, [columns[w] for w, _ in pairs]] = [v for _, v in pairs]
        heads[i] = [columns[w] for w, _ in pairs[:n]]
    scored = MethodScores(np.ones(len(sources), dtype=bool),
                          np.zeros(len(sources), dtype=np.intp), scores, heads)
    return scored, sources, targets


def scored_row(method: str, x: str, source, target) -> tuple[MethodScores, int]:
    """`method`'s `MethodScores` of the two tables and the row of source word
    `x` in it; a KeyError for a word the method does not rank."""
    scored, i = score_methods(source, target)[method], source.rows[x]
    if not scored.scorable[i]:
        raise KeyError(x)
    return scored, i


def word_pairs(method: str, x: str, source, target) -> list[tuple[str, float]]:
    """`ranked_pairs` of `x`'s row under `method` against every target word
    (`scored_row`)."""
    scored, i = scored_row(method, x, source, target)
    return ranked_pairs(scored, i, target.words)


# ---------------------------------------------------------------------------
# the per-word induce code that the array code replaced, as oracles
# ---------------------------------------------------------------------------


def mean_unit(rows):
    """Mean of a set of rows divided by its `np.linalg.norm`; None when the
    set is empty or the norm is below ZERO_NORM."""
    rows = np.asarray(rows, dtype=np.float64)
    if not len(rows):
        return None
    mean = np.mean(rows, axis=0)
    norm = float(np.linalg.norm(mean))
    return None if norm < ZERO_NORM else mean / norm


def unit_rows(rows):
    """Row-wise normalization; (near) zero rows stay zero."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms < ZERO_NORM] = 1.0
    return rows / norms


def distinct_rows(sets, dim):
    """The distinct unit rows of all sets, compared by their bytes, and each
    set member's index into them, members of the sets in order."""
    index = {}
    inverse = [index.setdefault(row.tobytes(), len(index))
               for rows in sets for row in unit_rows(rows)]
    distinct = np.frombuffer(b"".join(index), dtype=np.float64).reshape(len(index), dim)
    return distinct, np.array(inverse, dtype=np.intp)


def _stacked(vectors, dim):
    return np.asarray(vectors, dtype=np.float64).reshape(len(vectors), dim)


def _first_dim(sets):
    return next((np.shape(v)[-1] for v in sets), 0)


def table_by_word(language_id, linguistic, visual_sets, global_sets):
    """`build_table` one word at a time: a `mean_unit` per linguistic row,
    visual set and global set, and a `unit_rows` per global set."""
    words = sorted(linguistic)
    visual = [mean_unit(visual_sets[w]) if w in visual_sets else None for w in words]
    d_v = _first_dim(v for v in visual if v is not None)
    d_g = _first_dim(global_sets[w] for w in words if w in global_sets)
    sets = [np.asarray(global_sets.get(w, np.zeros((0, d_g))), dtype=np.float64)
            for w in words]
    means = [mean_unit(s) for s in sets]
    distinct, inverse = distinct_rows(sets, d_g)
    return WordFeatureTable(
        language_id=language_id,
        words=words,
        linguistic=_stacked([mean_unit(linguistic[w]) for w in words],
                            _first_dim(linguistic.values())),
        visual=_stacked([np.zeros(d_v) if v is None else v for v in visual], d_v),
        has_visual=np.array([v is not None for v in visual], dtype=bool),
        global_mean=_stacked([np.zeros(d_g) if m is None else m for m in means], d_g),
        global_mean_valid=np.array([m is not None for m in means], dtype=bool),
        global_rows=distinct,
        global_inverse=inverse,
        global_offsets=np.cumsum([0] + [len(s) for s in sets]),
    )


def cnn_avgmax_by_word(source, target):
    """`cnn_avgmax_scores` with one `maximum.reduceat` over every target set
    member per product of `induction.AVGMAX_CHUNK` source rows, and one
    `mean(axis=1)` of its member columns per source word."""
    scores = np.full((len(source.words), len(target.words)), BOTTOM_SCORE)
    filled = np.diff(target.global_offsets) > 0
    if not filled.any():
        return scores
    starts = target.global_offsets[:-1][filled]
    best = np.empty((len(starts), len(source.global_rows)))
    chunk = induction.AVGMAX_CHUNK
    for lo in range(0, len(source.global_rows), chunk):
        sims = target.global_rows @ source.global_rows[lo:lo + chunk].T
        best[:, lo:lo + sims.shape[1]] = np.maximum.reduceat(
            sims[target.global_inverse], starts, axis=0)
    offsets = source.global_offsets
    for i in np.flatnonzero(np.diff(offsets)):
        members = source.global_inverse[offsets[i]:offsets[i + 1]]
        scores[i, filled] = best[:, members].mean(axis=1)
    return scores


def gold_ranks_by_word(scored, source_words, target_words, lexicon):
    """`gold_ranks` one lexicon word and one gold target at a time, from
    each word's row of `scored`."""
    source_rows = {w: i for i, w in enumerate(source_words)}
    target_rows = {w: k for k, w in enumerate(target_words)}
    ranks = {}
    for source_word in sorted(lexicon.entries):
        i = source_rows.get(source_word)
        if i is None or not scored.scorable[i]:
            ranks[source_word] = UNRANKED
            continue
        gold = [target_rows[t] for t in lexicon.entries[source_word] if t in target_rows]
        if not gold:
            ranks[source_word] = GOLD_OUTSIDE
            continue
        row = scored.scores[i]
        ranks[source_word] = 1 + min(
            int(np.count_nonzero(row > row[g]) + np.count_nonzero(row[:g] == row[g]))
            for g in gold)
    return ranks


def evaluate_by_word(ranks, fallback_pairs, method, pos="all"):
    """`evaluate` of a {word: gold rank} dict one word at a time, each
    word's fallback pairs read from the {word: fallback pairs} dict."""
    best = {w: r for w, r in ranks.items() if r not in (UNRANKED, GOLD_OUTSIDE)}
    unranked = sum(r == UNRANKED for r in ranks.values())
    outside = len(ranks) - len(best) - unranked
    if not best:
        raise EmptyResultError(f"no evaluable source words (skipped {unranked + outside})")
    n = len(best)
    total_rr = 0.0
    for r in best.values():   # in word order; sum() rounds otherwise from Python 3.12
        total_rr += 1.0 / r
    return EvalReport(method=method, pos=pos, n=n, mrr=total_rr / n,
                      p_at={k: sum(r <= k for r in best.values()) / n for k in KS},
                      unranked_lexicon_words=unranked, gold_outside_targets=outside,
                      fallback_pairs=sum(fallback_pairs[w] for w in best))


def pos_breakdown_by_word(ranks, fallback_pairs, lexicon, method):
    """`pos_breakdown` of a {word: gold rank} dict, grouped by
    `lexicon.pos_of` one word at a time."""
    groups = {}
    for word, rank in ranks.items():
        groups.setdefault(lexicon.pos_of(word), {})[word] = rank
    reports = []
    for tag in sorted(groups):
        try:
            reports.append(evaluate_by_word(groups[tag], fallback_pairs, method=method, pos=tag))
        except EmptyResultError:
            continue
    return reports


def reports_by_word(scored, source_words, ranks_by_method, lexicon):
    """`reports_for` from each method's {word: gold rank} dict, the fallback
    pairs read from each scorable source word's row of `scored`."""
    reports = []
    for method in sorted(scored):
        s = scored[method]
        fallback_pairs = {w: int(s.fallbacks[i]) for i, w in enumerate(source_words)
                          if s.scorable[i]}
        try:
            reports.append(evaluate_by_word(ranks_by_method[method], fallback_pairs, method))
        except EmptyResultError:
            continue
        reports.extend(pos_breakdown_by_word(ranks_by_method[method], fallback_pairs,
                                             lexicon, method))
    if not reports:
        raise EmptyResultError("no evaluable source words for any method")
    return reports


def ranking_counts_by_word(scored, n_sources, ranks_by_method):
    """`ranking_counts` one scorable source row at a time, from each
    method's `MethodScores` and {word: gold rank} dict."""
    counts = {}
    for method in sorted(scored):
        s = scored[method]
        rows = [i for i in range(n_sources) if s.scorable[i]]
        ranks = list(ranks_by_method[method].values())
        counts[method] = {
            "rankings": len(rows), "pairs": sum(len(s.scores[i]) for i in rows),
            "skipped_sources": n_sources - len(rows),
            "fallback_pairs": sum(int(s.fallbacks[i]) for i in rows),
            "unranked_lexicon_words": ranks.count(UNRANKED),
            "gold_outside_targets": ranks.count(GOLD_OUTSIDE)}
    return counts


def write_ranks_by_line(path, ranks_by_method, lexicon):
    """`write_ranks` one line at a time, from {word: gold rank} dicts."""
    labels = {UNRANKED: "unranked", GOLD_OUTSIDE: "gold_outside"}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for method in sorted(ranks_by_method):
            for source_word, rank in ranks_by_method[method].items():
                fh.write(f"{source_word}\t{method}\t{lexicon.pos_of(source_word)}\t"
                         f"{labels.get(rank, rank)}\n")


def write_rankings_by_cell(path, scored, source_words, target_words):
    """`write_rankings` one `word:score` cell at a time, from the head of
    each scorable source word's row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for method in sorted(scored):
            s = scored[method]
            for i, source_word in enumerate(source_words):
                if s.scorable[i]:
                    cells = ",".join(f"{target_words[k]}:{s.scores[i, k]:.6f}"
                                     for k in s.heads[i].tolist())
                    fh.write(f"{source_word}\t{method}\t{cells}\n")


def gold_of(hand, lexicon):
    """The `GoldIndex` of `lexicon` against the source and target words of
    `hand`, a (`MethodScores`, source words, target words) triple."""
    _, sources, targets = hand
    return gold_index(lexicon, {x: i for i, x in enumerate(sources)},
                      {t: i for i, t in enumerate(targets)})


def gold_ranks_of(hand, lexicon):
    """`gold_ranks` of the `MethodScores` of `hand` (`gold_of`), as a
    {lexicon source word: gold rank} dict in word order."""
    gold = gold_of(hand, lexicon)
    return dict(zip(gold.words, gold_ranks(hand[0], gold).tolist()))


def reports_of(hand, lexicon):
    """`reports_for` of the `MethodScores` of `hand` (`gold_of`) as the
    fused method's: its "all" row, then its per-POS rows."""
    gold = gold_of(hand, lexicon)
    return reports_for({"fused": hand[0]}, {"fused": gold_ranks(hand[0], gold)}, gold)


def write_rankings_of(path, hand):
    """`write_rankings` of the `MethodScores` of `hand` as the fused
    method's."""
    scored, sources, targets = hand
    write_rankings(path, {"fused": scored}, sources, targets)
