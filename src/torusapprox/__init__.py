"""Exact rational machinery for coprime approximation sets on the circle.

Interval algebra on sets in integer form (a reduced denominator and
integer endpoints), reduced-residue point sets, pairwise overlap
accounting with closed-form coprime pair counts, a block construction with
divergent weight sums but vanishing limsup measure, and batch experiment
drivers with deterministic parallel reduction.
"""

from .approx import (
    ApproxFunction,
    MeasureCheck,
    TargetSequence,
    approx_set_measure,
    build_approx_set,
    coprime_residues,
    hit_test,
)
from .arith import (
    factorize,
    is_prime,
    next_prime,
    primes_for_epsilon,
    spf_table,
    totient,
    totient_range,
)
from .counterexample import (
    Block,
    BlockMeasure,
    CounterexampleInstance,
    block_union_set,
    build_counterexample,
    divergence_partial_sum,
    instance_from_prime_blocks,
    verify_block_measure,
)
from .errors import BudgetError, IdentityError, UsageError
from .experiments import (
    Enclosure,
    ExperimentConfig,
    McReport,
    SumReport,
    equidistribution_scan,
    main_term_sum_check,
    mc_coverage,
    pairwise_overlap_sum,
    phigcd_batch_check,
    phigcd_ratio_scan,
    phigcd_sum,
    quasi_independence_ladder,
)
from .overlap import (
    OverlapReport,
    PairDecomposition,
    coprime_pair_histogram,
    decompose_pair,
    overlap_report,
    pair_overlap_exact,
    sifted_interval_count,
)
from .rationals import format_rational, parse_rational
from .torus import TorusIntervalSet, measure_intersection

__version__ = "0.1.0"
