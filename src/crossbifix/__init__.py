"""Cross-bifix-free codeword sets built from colored Motzkin paths.

The package constructs the non-expandable cross-bifix-free sets CBFS(q, n),
counts them exactly, generates the classic zero-run baseline sets they are
compared against, and verifies every claimed property. Every exported name
that takes or returns a ``Word`` or ``CodeSet`` comes from ``codeset``, the
API edge: the typed words and sets (frozen dataclasses, as is the
verification report), the paper's bifix predicates on them, the
constructions (``construct_cbfs``, ``iter_cbfs``,
``construct_baseline_set``, ``generate_motzkin``, ``generate_elevated``)
and the verifiers, which hand a set's codes to ``verify`` and wrap the
report dict it returns in a ``VerificationReport``. That module joins
prefix and suffix indexes and walks prefixes with ``bifixfree``, whose
walk also streams the bifix-free words that ``gen --set bifixfree``
writes. The counts come from ``counting`` and ``baseline``.
The root exports nothing from ``oracle``: its path predicates
(``is_motzkin_word``, ``is_elevated``, ...) and independent brute-force
scans are the reference the tests hold the fast paths to, and import from
``crossbifix.oracle``. The commands handle symbol tuples, base-q codes and
plain dicts, so no command loads ``codeset``, ``oracle`` or
``dataclasses``.

Importing the package loads none of its modules. Each exported name, and
each module named in ``_EXPORTS``, is imported on first access (PEP 562),
so that a command-line process loads only the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Default cap on the words a command writes or a verification scan covers;
# here, so that reading it loads no other module.
DEFAULT_MAX_SPACE = 10_000_000

# The exported names of each module.
_EXPORTS = {
    "baseline": ("best_sizes", "f_count", "s_max", "s_star", "zero_run_counts"),
    "codeset": (
        "CodeSet",
        "CrossBifix",
        "VerificationReport",
        "Word",
        "bifixes",
        "construct_baseline_set",
        "construct_cbfs",
        "cross_bifix",
        "generate_elevated",
        "generate_motzkin",
        "is_bifix_free",
        "iter_cbfs",
        "verify_cross_bifix_free_set",
        "verify_non_expandable",
    ),
    "counting": ("count_cbfs", "family_sizes", "motzkin_count", "motzkin_counts"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name's module, or an exporting module itself, on
    first access; the name is then a module global and this is not called
    again for it."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # binds the submodule here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
