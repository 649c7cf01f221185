"""Check the closed-form solution against the exact solver on random shapes.

The closed form inverts only the diagonal blocks of the interpolation
system, so it differs from the exact solution by a damped perturbation.
For each random configuration this demo solves the full sparse system,
measures the infinity-norm gap, and compares it with the a-priori bound
computed from the tuned parameters alone and with the a-posteriori bound
from the first step of the Neumann series.
"""

import numpy as np

from hrbfsurf.pipeline import ReconConfig, verify_bound_on_points
from hrbfsurf.sampling import sphere_points, torus_points


def main():
    rng = np.random.default_rng(0)
    header = f"{'shape':7} {'n':>5} {'eta':>10} {'bound':>11} {'a-post':>11} {'measured':>11}  holds"
    print(header)
    print("-" * len(header))
    for run in range(8):
        n = int(rng.integers(100, 1200))
        seed = int(rng.integers(0, 10_000))
        if run % 2 == 0:
            shape, ps = "sphere", sphere_points(n, seed=seed)
        else:
            shape, ps = "torus", torus_points(n, seed=seed)
        report, row = verify_bound_on_points(ps, ReconConfig())
        print(
            f"{shape:7} {n:>5} {row['eta']:>10.2f} {row['bound']:>11.3e} "
            f"{row['bound_a_posteriori']:>11.3e} {row['measured_inf_error']:>11.3e}  {row['holds']}"
        )


if __name__ == "__main__":
    main()
