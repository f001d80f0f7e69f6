"""Union of repeated samples: how many rounds until connectivity is likely?

Keeping each edge with probability p and unioning T independent rounds is
the same as a single round with p_hat = 1 - (1-p)^T.  The horizon search
finds the first T at which the lower bound clears 1 - epsilon.  On a sparse
template the bound can plateau strictly below 1, in which case the search
reports the best horizon it saw instead of pretending one exists.
"""

import conngraph as cg
from conngraph.errors import TStarNotFound


def show_search(name, graph, p, epsilon):
    print(f"{name}, p={p}, target >= {1 - epsilon}")
    try:
        res = cg.t_star(graph, p, epsilon)
    except TStarNotFound as exc:
        print(f"  no horizon found: best bound {exc.best_bound:.6f} at T={exc.best_t}")
        print(f"  (search stopped at T={len(exc.trace)})")
        print()
        return
    for t, val in res.trace:
        marker = " <- T*" if t == res.t_star else ""
        print(f"  T={t:>3}  p_hat={cg.union_edge_probability(p, t):.6f}  bound={val:.6f}{marker}")
    print()


def main():
    show_search("K3", cg.complete(3), 0.5, 0.2)
    show_search("K4", cg.complete(4), 0.4, 0.3)
    # K5 minus C5 is a 5-cycle of "missing" edges; what is left is itself a
    # 5-cycle, too sparse for this bound to ever clear 0.5
    show_search("K5 minus C5", cg.complete_minus_cycle(5), 0.5, 0.5)

    # cross-check the collapsed form against a direct union simulation
    est = cg.empirical_connectivity(cg.complete(4), 0.4, T=10, trials=50_000, seed=9)
    exact = cg.exact_connectivity(cg.complete(4), cg.union_edge_probability(0.4, 10))
    print("union of 10 rounds on K4 at p=0.4:")
    print(f"  simulated union    {est.point:.4f}  CI [{est.ci_low:.4f}, {est.ci_high:.4f}]")
    print(f"  exact at p_hat     {exact.value:.4f}")


if __name__ == "__main__":
    main()
