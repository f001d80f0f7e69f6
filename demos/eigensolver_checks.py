"""The spectral side: Laplacian eigenvalues as a connectivity certificate.

A sampled subgraph is connected exactly when the second-smallest Laplacian
eigenvalue is positive.  This walks a few sampled graphs, prints their full
spectrum from the built-in Jacobi solver, and confirms the zero-threshold
test agrees with a direct component count.  The last section estimates the
mean and variance of the eigenvalue statistic ell used by the bound by Monte
Carlo and compares them with their closed forms.
"""

import numpy as np

import conngraph as cg


def main():
    g = cg.complete(5)
    rng = np.random.default_rng(7)

    print("five samples of K5 at p=0.45:")
    for _ in range(5):
        sample = cg.sample_graph(g, 0.45, rng)
        eigs = cg.eigenvalues_symmetric(cg.laplacian(sample)).eigenvalues
        lam2 = float(eigs[1])
        connected = cg.is_connected(sample)
        verdict = "connected" if connected else "split"
        agree = (lam2 > cg.zero_threshold(g.n)) == connected
        vals = " ".join(f"{v:7.4f}" for v in eigs)
        print(f"  [{vals}]  lam2={lam2:.4f}  {verdict:<9}  agree={agree}")
    print()

    # full spectra of the deterministic templates
    for name, tpl in [("K5", g), ("K6 minus C6", cg.complete_minus_cycle(6))]:
        eigs = cg.eigenvalues_symmetric(cg.laplacian(tpl.all_present())).eigenvalues
        print(f"{name} Laplacian spectrum: {[round(float(v), 6) for v in eigs]}")
    print()

    # ell draws one nonzero-index eigenvalue uniformly; its mean has a
    # closed form 2mp/(n-1)
    params = cg.ModelParams(g, 0.45)
    ell = cg.empirical_ell_moments(g, 0.45, trials=20_000, seed=7)
    print(f"ell sample mean   {ell.mean:.4f}")
    print(f"ell closed form   {cg.ell_mean(params):.4f}")
    print(f"ell sample var    {ell.variance:.4f}")
    print(f"ell variance form {cg.ell_variance(params):.4f}")


if __name__ == "__main__":
    main()
