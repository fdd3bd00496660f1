#!/usr/bin/env python3
"""How order-dependent are conjugation products, and how fair is the mean?

A^(1/2) B A^(1/2) and B^(1/2) A B^(1/2) are congruent (they are X X^T
and X^T X for X = A^(1/2) B^(1/2)), yet their symplectic spectra can
differ; this script searches random pairs for the largest relative gap
and prints the winning instance.  The geometric mean is the symmetric
midpoint, so its spectrum is printed for both orders as a control: the
two agree to rounding.
"""

import argparse
import json
import sys

import numpy as np

from sympspec.core import random_pd, symplectic_eigenvalues
from sympspec.inequalities import geometric_mean
from sympspec.matio import matrix_to_obj


def pd_sqrt(a):
    """Symmetric square root of a positive definite matrix."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(w)) @ v.T


def conjugation_spectra(a, b):
    root_a = pd_sqrt(a)
    root_b = pd_sqrt(b)
    left = symplectic_eigenvalues(root_a @ b @ root_a)
    right = symplectic_eigenvalues(root_b @ a @ root_b)
    return left, right


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for flag, value in (("--trials", args.trials), ("--n", args.n)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")

    rng = np.random.default_rng(args.seed)
    best = None
    for _ in range(args.trials):
        a = random_pd(args.n, rng)
        b = random_pd(args.n, rng)
        left, right = conjugation_spectra(a, b)
        gap = float(np.max(np.abs(left - right) / np.maximum(left, right)))
        if best is None or gap > best[0]:
            best = (gap, a, b, left, right)

    gap, a, b, left, right = best
    print(f"largest relative spectral gap over {args.trials} trials: {gap:.6f}")
    print(f"d(A^(1/2) B A^(1/2)) = {np.array2string(left, precision=12)}")
    print(f"d(B^(1/2) A B^(1/2)) = {np.array2string(right, precision=12)}")

    mean = geometric_mean(a, b)
    mean_swapped = geometric_mean(b, a)
    d_mean = symplectic_eigenvalues(mean)
    d_swapped = symplectic_eigenvalues(mean_swapped)
    control = float(np.max(np.abs(d_mean - d_swapped) / np.maximum(d_mean, d_swapped)))
    print(f"d(A # B) = {np.array2string(d_mean, precision=12)}")
    print(f"mean-order control gap: {control:.3e}")

    print("instance:")
    print(json.dumps({"A": matrix_to_obj(a), "B": matrix_to_obj(b)},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
