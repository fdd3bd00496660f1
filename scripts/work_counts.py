#!/usr/bin/env python3
"""Work counts of seeded verify runs.

For each master seed and suite, at the suite's default trial count, this
prints how often seven functions ran: core.check_positive_definite, counted
by the matrices it checks (one for a matrix, m for a stack of m; a
stack that raises is checked again one matrix at a time, each check
counted again), numpy's Cholesky gufunc
numpy.linalg._umath_linalg.cholesky_lo (which numpy.linalg.cholesky
calls too; one call takes a matrix or a stack), linalg._hessenberg_band
(the band steps, which only williamson's basis route _skew_canonical
takes), linalg._skew_spectrum (the spectrum passes, each over one matrix
or a stack of them, and again for each matrix of a stack that raises),
errors._lapack (the calls of scipy's _flapack routines), linalg._factor
(every call of numpy's gufuncs: SVD, symmetric eigensolve, QR, and the
Cholesky and eigvals calls of check_positive_definite,
extremal._pair_floor and ja-eigen, the stacked Cholesky pass of the
positive-definiteness checks and the SVD pass of the spectra, and the
stacked steps of the extremal certificates' witnesses, Haar draws,
chain frames and floor samples; a guarded call counts once, however
large its stack; each subspace meet, linalg.subspace_meet, is one SVD)
and basis._construct (the
constructions: the one routine that builds every dual-chain tuple, for
dual_chain_construct and for the extremal certificates alike, counted by
the chains it is given, one for a chain and m for a stack of m, as the
checks count matrices), with one total row per seed.  Each function is
counted by wrapping every name that binds it in every loaded package
module, and in numpy's _umath_linalg, for the length of the run; the
names are restored afterwards.  A name that the package does not define
is not counted.

    PYTHONPATH=src python scripts/work_counts.py
    PYTHONPATH=src python scripts/work_counts.py --seeds 424242
"""

import argparse
import contextlib
import sys

import numpy as np
from numpy.linalg import _umath_linalg

from sympspec import basis, core, errors, linalg
from sympspec.harness import SUITE_IDS, SuiteConfig, run_suite

MASTER_SEEDS = (0, 7, 105, 110, 424242)

# Column label and the function it counts.
COUNTED = {
    "checks": core.check_positive_definite,
    "cholesky": _umath_linalg.cholesky_lo,
    "band_steps": linalg._hessenberg_band,
    "spectrum_passes": linalg._skew_spectrum,
    "lapack": errors._lapack,
    "gufuncs": linalg._factor,
    "constructions": basis._construct,
}


# The argument that holds a stack, by label: a check of a stack of m
# matrices counts m, and a construction of a stack of m chains counts m.
STACKS = {"checks": lambda args: args[0], "constructions": lambda args: args[2][0]}


def _counter(counts, label, original):
    def counted(*args, **kwargs):
        stack = STACKS[label](args) if label in STACKS else None
        counts[label] += len(stack) if np.ndim(stack) == 3 else 1
        return original(*args, **kwargs)
    return counted


@contextlib.contextmanager
def counting():
    """A dict of call counts by COUNTED label, kept while the block runs."""
    counts = dict.fromkeys(COUNTED, 0)
    modules = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "sympspec"] + [_umath_linalg]
    saved = []
    for label, original in COUNTED.items():
        wrapper = _counter(counts, label, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, name, value))
                    setattr(module, name, wrapper)
    try:
        yield counts
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def work_counts(seed, suite):
    """The COUNTED call counts of one suite at its default trial count."""
    with counting() as counts:
        run_suite(suite, SuiteConfig(suite=suite, master_seed=seed, report_path=None))
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(MASTER_SEEDS))
    args = parser.parse_args(argv)

    row = "{:>12} {:<14}" + " {:>15}" * len(COUNTED)
    print(row.format("seed", "suite", *COUNTED))
    for seed in args.seeds:
        total = dict.fromkeys(COUNTED, 0)
        for suite in SUITE_IDS:
            counts = work_counts(seed, suite)
            for label in COUNTED:
                total[label] += counts[label]
            print(row.format(seed, suite, *counts.values()))
        print(row.format(seed, "total", *total.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
