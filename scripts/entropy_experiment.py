"""Entropy estimates vs horizon for the built-in systems.

Shows the subadditive upper estimates (1/n) log |L_n| sinking onto the exact
Perron value for the golden-mean shift and onto zero for the Sturmian coding.
"""

import math

from suspshift.quadratic import sqrt_d
from suspshift.subshifts import Sturmian, golden_mean_sft, topological_entropy


def main():
    golden = golden_mean_sft()
    sturmian = Sturmian(sqrt_d(2) - 1)
    exact = golden.entropy_exact()
    print("n,golden_estimate,golden_exact,sturmian_estimate")
    for n in (2, 4, 8, 12, 16, 20, 24, 28, 32):
        g = math.log(golden.count(n)) / n
        s = topological_entropy(sturmian, horizon=n)
        print(f"{n},{g:.6f},{exact:.6f},{s:.6f}")


if __name__ == "__main__":
    main()
