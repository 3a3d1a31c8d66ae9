"""Cross-bifix-free codeword sets built from colored Motzkin paths.

The package constructs the non-expandable cross-bifix-free sets CBFS(q, n),
counts them exactly, generates the classic zero-run baseline sets they are
compared against, and verifies every claimed property. The exported
verifiers come from ``verify``, which joins prefix and suffix indexes, and
whose prefix walk also streams the bifix-free words that ``gen --set
bifixfree`` writes. The independent brute-force scans in ``oracle`` are only
the reference the tests hold the fast paths to: they are not exported here,
and neither ``verify`` nor the command line imports them, so no command
loads ``crossbifix.oracle``.
"""

from .baseline import best_sizes, construct_baseline_set, f_count, s_max, s_star, zero_run_counts
from .cbfs import (
    CodeSet,
    VerificationReport,
    construct_A,
    construct_B,
    construct_C,
    construct_cbfs,
    count_A,
    count_B,
    count_C,
    count_cbfs,
    family_sizes,
    iter_cbfs,
)
from .motzkin import (
    generate_elevated,
    generate_motzkin,
    has_ground_elevated_factor,
    motzkin_count,
    motzkin_counts,
)
from .verify import verify_cross_bifix_free_set, verify_non_expandable
from .words import (
    CrossBifix,
    HeightProfile,
    Word,
    bifixes,
    cross_bifix,
    height_profile,
    is_bifix_free,
    is_elevated,
    is_motzkin_word,
)

__version__ = "0.1.0"

__all__ = [
    "CodeSet",
    "CrossBifix",
    "HeightProfile",
    "VerificationReport",
    "Word",
    "best_sizes",
    "bifixes",
    "construct_A",
    "construct_B",
    "construct_C",
    "construct_baseline_set",
    "construct_cbfs",
    "count_A",
    "count_B",
    "count_C",
    "count_cbfs",
    "cross_bifix",
    "f_count",
    "family_sizes",
    "generate_elevated",
    "generate_motzkin",
    "has_ground_elevated_factor",
    "height_profile",
    "is_bifix_free",
    "is_elevated",
    "is_motzkin_word",
    "iter_cbfs",
    "motzkin_count",
    "motzkin_counts",
    "s_max",
    "s_star",
    "verify_cross_bifix_free_set",
    "verify_non_expandable",
    "zero_run_counts",
]
