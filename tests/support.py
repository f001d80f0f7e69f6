"""Reference implementations used to cross-check the package.

Everything here is deliberately written from scratch in plain Python:
breadth-first connectivity, brute-force subset enumeration, the
vertex-subset recurrence for connected spanning subsets, and a direct
transcription of the bound formulas with a naive full scan.  The numpy
routines are two of the package's former ones: its Monte Carlo connectivity
kernel, min-label propagation, kept as a second oracle for the
hook-and-shortcut kernel that replaced it, and its edge-by-edge Laplacian
builder, which fixes every bit of the vectorized one, signed zeros included.  The exact probability's
reference is its sum formed afresh from a profile.  The union horizon references are a plain ascending scan
and the package's former search, a gallop and bisection from T = 0 over cells
alone, both over the package's own one-cell bound, since what they check is
the search, not the cell.  Slow is fine; independent is the point.
"""

import itertools
import math

import numpy as np


def bfs_connected(n, edges):
    if n <= 1:
        return True
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def bfs_connected_rows(n, ei, ej, present):
    """Row-wise connectivity of a (rows, m) edge-presence matrix, one ``bfs_connected`` call a row."""
    edges = list(zip(ei.tolist(), ej.tolist()))
    return np.array([bfs_connected(n, itertools.compress(edges, row)) for row in present.tolist()], dtype=bool)


def reference_connected_rows(n, ei, ej, present):
    """Row-wise connectivity of a (rows, m) edge-presence matrix, by min-label propagation.

    Every vertex starts with its own index as label, and each pass pulls the
    smaller label across every present edge, one edge column at a time.
    n - 1 passes suffice whatever the edge order; a pass that changes nothing
    ends early.  A row is connected when every label has dropped to zero.
    """
    rows = present.shape[0]
    labels = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
    for _ in range(max(1, n - 1)):
        before = labels.copy()
        for e in range(len(ei)):
            col = present[:, e]
            if not col.any():
                continue
            li = labels[:, ei[e]]
            lj = labels[:, ej[e]]
            mn = np.minimum(li, lj)
            labels[:, ei[e]] = np.where(col, mn, li)
            labels[:, ej[e]] = np.where(col, mn, lj)
        if np.array_equal(labels, before):
            break
    return ~labels.any(axis=1)


def reference_laplacian_stack(n, ei, ej, present):
    """The (rows, n, n) Laplacians of a (rows, m) edge-presence matrix, summed one edge at a time."""
    lap = np.zeros((present.shape[0], n, n))
    for e in range(len(ei)):
        w = present[:, e].astype(float)
        i, j = int(ei[e]), int(ej[e])
        lap[:, i, i] += w
        lap[:, j, j] += w
        lap[:, i, j] -= w
        lap[:, j, i] -= w
    return lap


def brute_force_connectivity(n, edges, p):
    """Sum p^k (1-p)^(m-k) over connected edge subsets, one subset at a time."""
    edges = list(edges)
    m = len(edges)
    total = 0.0
    count = 0
    for bits in itertools.product((0, 1), repeat=m):
        chosen = [e for e, b in zip(edges, bits) if b]
        if bfs_connected(n, chosen):
            k = sum(bits)
            total += p**k * (1.0 - p) ** (m - k)
            count += 1
    return total, count


def exact_value(counts, p):
    """The exact probability and its term count from a profile, with float arrays built afresh at each call.

    This is ``exact_connectivity``'s expression, numpy's sum of
    counts[k] p^k (1 - p)^(m - k) over k = 0 .. m, on arrays of its own.  The
    package evaluates the same expression on the arrays it keeps per
    template, so the two agree bit for bit.
    """
    profile = np.asarray(counts, dtype=float)
    ks = np.arange(len(counts), dtype=float)
    return float(np.sum(profile * np.power(p, ks) * np.power(1.0 - p, len(counts) - 1 - ks))), sum(counts)


def connected_count_by_size(n, edges):
    edges = list(edges)
    counts = [0] * (len(edges) + 1)
    for bits in itertools.product((0, 1), repeat=len(edges)):
        chosen = [e for e, b in zip(edges, bits) if b]
        if bfs_connected(n, chosen):
            counts[sum(bits)] += 1
    return counts


def gilbert_profile(n, edges):
    """Connected spanning edge subsets of each size, by the vertex-subset recurrence (Gilbert 1959).

    With G(X) = (1 + x)^e(X), e(X) the number of edges with both ends in X,
    the generating polynomial of the connected spanning subsets of a vertex
    set S that holds vertex 0 is

        C(S) = G(S) - sum over proper subsets T of S that hold 0 of C(T) G(S - T),

    since every edge subset of S splits into the component T of vertex 0, no
    edge between T and S - T, and any edges inside S - T.  Polynomials are
    kept in y = 1 + x, where G(X) = y^e(X), so each product is a shift.  A
    proper subset is a smaller number than its set, so sets go in numeric order.
    """
    edges = list(edges)
    m = len(edges)
    inside = [sum(1 for i, j in edges if x >> i & 1 and x >> j & 1) for x in range(1 << n)]
    conn = {}
    for s in range(1, 1 << n, 2):
        poly = [0] * (m + 1)
        poly[inside[s]] = 1
        rest = sub = s & ~1
        while sub:
            sub = (sub - 1) & rest  # every subset of rest but rest itself, down to the empty set
            shift = inside[rest & ~sub]
            for k, c in enumerate(conn[sub | 1]):
                if c:
                    poly[k + shift] -= c
        conn[s] = poly
    in_y = conn[(1 << n) - 1]
    return [sum(c * math.comb(k, j) for k, c in enumerate(in_y)) for j in range(m + 1)]


def ladder_profile(k):
    """The profile of the 2 x k ladder, by a transfer matrix over its columns.

    After each column, either its two vertices are joined by the kept edges
    (state A) or each lies in its own part, which a later edge must join to
    the rest (state B).  Polynomials in kept edges are lists of coefficients.
    A column adds two rails and a rung.  From A: both rails (rung or not), or
    one rail and the rung, give A; one rail without the rung gives B.  From
    B: both rails give A with the rung and B without; a missing rail leaves a
    part that no later edge can reach.
    """
    def times(poly, *powers):
        out = [0] * (len(poly) + 3)
        for d in powers:
            for i, c in enumerate(poly):
                out[i + d] += c
        return out

    def plus(u, v):
        return [x + y for x, y in zip(u, v)]

    a, b = [0, 1], [1, 0]
    for _ in range(k - 1):
        a, b = plus(times(a, 2, 2, 2, 3), times(b, 3)), plus(times(a, 1, 1), times(b, 2))
    return a[: 3 * k - 1]


def sym2_eigenvalues(a, b, c):
    """Eigenvalues of [[a, b], [b, c]] from the characteristic polynomial."""
    disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
    return sorted(((a + c - disc) / 2.0, (a + c + disc) / 2.0))


def reference_s_squared(n, m, deg_sq, p):
    return 2 * m * p * (n - 1) * (2 - p) + p * p * (n - 1) * deg_sq - 4 * m * m * p * p


def reference_bound(n, m, deg_sq, p, n_cap=10**6):
    """Naive full transcription of the maximized ratio; no pruning, no tricks."""
    s_sq = reference_s_squared(n, m, deg_sq, p)
    s = math.sqrt(max(0.0, s_sq))
    energy = 4 * m * p - 2 * m * p * p + p * p * deg_sq
    if s_sq <= 0.0:
        hi = n_cap
    else:
        ratio = (s_sq + 4 * m * m * p * p) / s_sq
        hi = n_cap if ratio >= n_cap else int(math.floor(ratio))
    hi = max(2, hi)
    best, best_n = -1.0, 2
    for N in range(2, hi + 1):
        r = 1.0 - ((n - 2) / (n - 1)) ** (N - 1)
        raw = 2 * m * p * r - s * math.sqrt(N - 1)
        num = max(0.0, raw) ** 2
        val = min(1.0, num / ((n - 1) * r * r * energy))
        if val > best:
            best, best_n = val, N
    return best, best_n


def reference_t_star(cell, p, epsilon, t_max):
    """The union horizon search as a linear scan: every horizon from T = 1 upward.

    cell(p_hat, q_hat) is the package's one-cell BoundResult at one horizon,
    ``_general_bound_result`` or ``_complete_bound_result`` with the
    template's other arguments bound.  The scan stops at the first horizon
    whose bound reaches 1 - epsilon, at t_max, or after the first horizon
    whose complement (1 - p)^T underflows to zero.  Returns (found, T,
    value, trace): T* and its bound when found, and otherwise the first
    horizon with the largest bound and that bound.
    """
    target = 1.0 - epsilon
    log_q = math.log1p(-p)
    trace = []
    for T in range(1, t_max + 1):
        q_hat = math.exp(T * log_q)
        value = cell(-math.expm1(T * log_q), q_hat).probability_lower_bound
        trace.append((T, value))
        if value >= target:
            return True, T, value, tuple(trace)
        if q_hat == 0.0:
            break
    best_t, best = max(trace, key=lambda entry: entry[1])
    return False, best_t, best, tuple(trace)


def reference_t_star_gallop(cell, p, epsilon, t_max):
    """The union horizon search as a gallop and bisection from T = 0 over cells alone.

    The same search as reference_t_star, with cell as there, but it reads
    O(log T*) horizons instead of T*, so it reaches horizons in the billions
    and budgets past 2**63 (up to where T log(1-p) still fits a float).
    Relies on the bound not falling as T rises.  Returns (found, T, value)
    as reference_t_star does, without the trace: when not found, T is the
    first horizon to reach the last one's bound and value the bound at T,
    which can lie above the last one's where rounding jitters.
    """
    target = 1.0 - epsilon
    log_q = math.log1p(-p)

    def value(T):
        return cell(-math.expm1(T * log_q), math.exp(T * log_q)).probability_lower_bound

    def last_short(reached, stop):
        # the last T in [0, stop] at which reached(T) is false, reached(0) being false
        inside, jump = 0, 1
        while inside < stop:
            probe = min(stop, inside + jump)
            if reached(probe):
                while probe - inside > 1:
                    mid = (inside + probe) // 2
                    inside, probe = (inside, mid) if reached(mid) else (mid, probe)
                return inside
            inside, jump = probe, 2 * jump
        return inside

    last = min(t_max, last_short(lambda T: math.exp(T * log_q) == 0.0, t_max) + 1)
    t = last_short(lambda T: value(T) >= target, last) + 1
    if t <= last:
        return True, t, value(t)
    best = value(last)
    best_t = last_short(lambda T: value(T) >= best, last) + 1
    return False, best_t, value(best_t)


def reference_ratio(n, m, deg_sq, p, N):
    """The maximized ratio at one draw count N, transcribed like reference_bound."""
    s = math.sqrt(max(0.0, reference_s_squared(n, m, deg_sq, p)))
    energy = 4 * m * p - 2 * m * p * p + p * p * deg_sq
    r = 1.0 - ((n - 2) / (n - 1)) ** (N - 1)
    raw = 2 * m * p * r - s * math.sqrt(N - 1)
    return min(1.0, max(0.0, raw) ** 2 / ((n - 1) * r * r * energy))


def reference_tolerance(n, m, deg_sq, p):
    """Relative tolerance of reference_bound against the package.

    The naive transcription forms S^2 by cancelling terms as large as
    4 m^2 p^2, so its own rounding error grows with their ratio to S^2.
    """
    terms = 2 * m * p * (n - 1) * (2 - p) + p * p * (n - 1) * deg_sq + 4 * m * m * p * p
    return 1e-9 + 1e-15 * terms / max(abs(reference_s_squared(n, m, deg_sq, p)), 1e-300)


def random_connected_graph(rng, n, extra_edges):
    """Random spanning tree plus a few extra edges; rng is random.Random."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50 * (extra_edges + 1):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
        attempts += 1
    return sorted(edges)
