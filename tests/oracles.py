"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain Python loops, no vectorized
shortcuts, no shared code with the package. Where a test asserts bitwise
equality, the oracle accumulates sums sequentially, which is the ordering
the library reproduces.
"""

import math
from itertools import combinations


def _pairwise(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    dz = p[2] - q[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _directed_mean(pa, pb):
    total = 0.0
    for p in pa:
        best = math.inf
        for q in pb:
            d = _pairwise(p, q)
            if d < best:
                best = d
        total += best
    return total / len(pa)


def _directed_max(pa, pb):
    worst = 0.0
    for p in pa:
        best = math.inf
        for q in pb:
            d = _pairwise(p, q)
            if d < best:
                best = d
        if best > worst:
            worst = best
    return worst


def naive_mcp(pa, pb):
    """Mean closest point distance, both directions averaged."""
    pa = [tuple(map(float, p)) for p in pa]
    pb = [tuple(map(float, p)) for p in pb]
    return (_directed_mean(pa, pb) + _directed_mean(pb, pa)) / 2.0


def naive_hausdorff(pa, pb):
    pa = [tuple(map(float, p)) for p in pa]
    pb = [tuple(map(float, p)) for p in pb]
    return max(_directed_max(pa, pb), _directed_max(pb, pa))


def naive_ep(pa, pb):
    """Closest-endpoint matching averaged over endpoints and directions."""
    ea = [tuple(map(float, pa[0])), tuple(map(float, pa[-1]))]
    eb = [tuple(map(float, pb[0])), tuple(map(float, pb[-1]))]
    return (_directed_mean(ea, eb) + _directed_mean(eb, ea)) / 2.0


NAIVE_DISTANCES = {"mcp": naive_mcp, "haus": naive_hausdorff, "ep": naive_ep}


def naive_rand_index(a, b):
    """Fraction of point pairs on which two labelings agree."""
    n = len(a)
    if n < 2:
        return 1.0
    agree = 0
    total = 0
    for i, j in combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a == same_b:
            agree += 1
        total += 1
    return agree / total


def naive_ari(a, b):
    """Adjusted Rand index from explicit pair counts."""
    n = len(a)
    pairs = list(combinations(range(n), 2))
    n11 = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    row_pairs = _label_pairs(a)
    col_pairs = _label_pairs(b)
    total = len(pairs)
    if total == 0:
        return 1.0
    expected = row_pairs * col_pairs / total
    maximum = (row_pairs + col_pairs) / 2.0
    if maximum == expected:
        same = all((a[i] == a[j]) == (b[i] == b[j]) for i, j in pairs)
        return 1.0 if same else 0.0
    return (n11 - expected) / (maximum - expected)


def _label_pairs(labels):
    counts = {}
    for v in labels:
        counts[v] = counts.get(v, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def naive_silhouette(d, labels):
    """Mean silhouette over all points from a full distance matrix.

    Singleton clusters score 0 by convention.
    """
    n = len(labels)
    members = {}
    for i, lab in enumerate(labels):
        members.setdefault(lab, []).append(i)
    scores = []
    for i in range(n):
        own = members[labels[i]]
        if len(own) == 1:
            scores.append(0.0)
            continue
        a_i = sum(d[i][j] for j in own if j != i) / (len(own) - 1)
        b_i = math.inf
        for lab, idx in members.items():
            if lab == labels[i]:
                continue
            mean_other = sum(d[i][j] for j in idx) / len(idx)
            if mean_other < b_i:
                b_i = mean_other
        scores.append((b_i - a_i) / max(a_i, b_i))
    return sum(scores) / n


def reference_lloyd(x, init_labels, m, max_sweeps=100):
    """Batch Lloyd k-means in Euclidean space from given initial labels.

    Mirrors the alternation tested against the kernelized solver: means
    from labels, then nearest-mean labels, until labels stop moving.
    Instances handed to this oracle must never produce an empty cluster.
    """
    import numpy as np

    labels = np.asarray(init_labels).copy()
    for _ in range(max_sweeps):
        centers = []
        for j in range(m):
            members = x[labels == j]
            if members.shape[0] == 0:
                raise AssertionError("oracle instance produced an empty cluster")
            centers.append(members.mean(axis=0))
        centers = np.asarray(centers)
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new = np.argmin(d2, axis=1)
        if np.array_equal(new, labels):
            break
        labels = new
    return labels


def nnls_on_support(gram, rhs, support):
    """Non-negative least squares restricted to a support, via scipy.

    Solves min_w>=0 of w'Gw - 2 w'b for indices in ``support`` by turning
    the Gram system into an explicit least-squares problem G = L L' and
    handing it to scipy's own solver.
    """
    import numpy as np
    from scipy.optimize import nnls as scipy_nnls

    support = list(support)
    g = np.asarray(gram)[np.ix_(support, support)]
    b = np.asarray(rhs)[support]
    low = np.linalg.cholesky(g)
    y = np.linalg.solve(low, b)
    w_sub, _ = scipy_nnls(low.T, y)
    w = np.zeros(len(rhs))
    for pos, j in enumerate(support):
        w[j] = w_sub[pos]
    return w


def column_pursuit(atk, atka, s_max, excluded):
    """Greedy non-negative pursuit, one column at a time.

    The per-column loop the batched ``solvers._pursuit`` replaces: per
    column, add the usable unselected atom with the largest positive
    residual correlation per unit self-similarity, then refit the selected
    weights with the package's own ``linalg.nnls``. Unlike the rest of this
    module it shares that solver with the package, because the contract it
    checks is bitwise equality with the per-column path.
    """
    import numpy as np
    from tractsparse.errors import DegenerateAtom
    from tractsparse.linalg import nnls

    diag = np.diagonal(atka)
    usable = ~np.asarray(excluded, dtype=bool)
    safe_diag = np.where(diag > 0.0, diag, 1.0)
    w_all = np.zeros(atk.shape)
    for i in range(atk.shape[1]):
        if np.any(diag[usable] <= 0.0):
            raise DegenerateAtom("atom with non-positive self-similarity")
        col = atk[:, i]
        w = np.zeros(atk.shape[0])
        selected = []
        for _ in range(s_max):
            if selected:
                resid = col - atka[:, selected] @ w[selected]
            else:
                resid = col
            tau = np.where(usable, resid / safe_diag, -np.inf)
            if selected:
                tau[selected] = -np.inf
            j = int(np.argmax(tau))
            if not tau[j] > 0.0:
                break
            selected.append(j)
            idx = np.asarray(selected)
            sol = nnls(atka[np.ix_(idx, idx)], col[idx])
            w[:] = 0.0
            w[idx] = sol
        w_all[:, i] = w
    return w_all
