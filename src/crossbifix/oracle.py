"""Independent brute-force verification of set properties and counts.

Everything here works by exhaustive enumeration, deliberately avoiding the
closed recurrences and structured generators it is meant to check. Word
spaces are capped so that exponential scans cannot run by accident.
"""

from __future__ import annotations

import itertools
import time

from .cbfs import DEFAULT_MAX_SPACE, CodeSet, VerificationReport, construct_cbfs, count_cbfs
from .words import Word, cross_bifix, is_bifix_free, prefix_function


def _check_space(space: int, max_space: int, what: str) -> None:
    if space > max_space:
        raise ValueError(f"{what} needs a scan of {space} words, above the cap of {max_space}")


def enumerate_bifix_free(q: int, n: int):
    """Yield all bifix-free words of Z_q^n in lexicographic order."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    for symbols in itertools.product(range(q), repeat=n):
        if n > 1 and symbols[0] == symbols[-1]:
            continue  # a shared endpoint always yields a border
        if prefix_function(symbols)[-1] == 0:
            yield Word(symbols, q)


def verify_cross_bifix_free_set(code_set: CodeSet) -> VerificationReport:
    """Check every unordered pair of distinct members for a cross-bifix.

    All violating pairs are reported, each with its shortest witness.
    """
    t0 = time.perf_counter()
    witnesses = []
    pairs = 0
    for first, second in itertools.combinations(code_set.words, 2):
        pairs += 1
        hit = cross_bifix(first, second)
        if hit is not None:
            witnesses.append(
                {
                    "first": first.to_text(),
                    "second": second.to_text(),
                    "cross_bifix": hit.word.to_text(),
                    "prefix_of": hit.prefix_of,
                }
            )
    stats = {
        "pairs_checked": pairs,
        "candidates_checked": 0,
        "wall_time_s": time.perf_counter() - t0,
    }
    return VerificationReport("cross-bifix-set", not witnesses, tuple(witnesses), stats)


def verify_non_expandable(code_set: CodeSet, max_space: int = DEFAULT_MAX_SPACE) -> VerificationReport:
    """Check that no outside bifix-free word can join the set.

    Preconditions (members bifix-free, set cross-bifix-free) are verified
    first; their failure is reported as an error, not as expandability.
    Every outside candidate is scanned against the members in canonical
    order and its first blocking witness is recorded; a candidate with no
    blocking member makes the set expandable and fails the check.
    """
    t0 = time.perf_counter()
    q, n = code_set.q, code_set.n

    def report(ok, witnesses, pairs, candidates, error=None):
        stats = {
            "pairs_checked": pairs,
            "candidates_checked": candidates,
            "wall_time_s": time.perf_counter() - t0,
        }
        return VerificationReport("non-expandable", ok, tuple(witnesses), stats, error)

    for member in code_set.words:
        if not is_bifix_free(member):
            return report(False, [], 0, 0, error=f"member {member.to_text()!r} is not bifix-free")
    pairwise = verify_cross_bifix_free_set(code_set)
    if not pairwise.ok:
        bad = pairwise.witnesses[0]
        return report(
            False,
            [],
            pairwise.stats["pairs_checked"],
            0,
            error=f"set is not cross-bifix-free: {bad['first']} / {bad['second']} share {bad['cross_bifix']}",
        )

    _check_space(q**n, max_space, "non-expandability")
    witnesses = []
    candidates = 0
    ok = True
    for candidate in enumerate_bifix_free(q, n):
        if candidate in code_set:
            continue
        candidates += 1
        for member in code_set.words:
            hit = cross_bifix(candidate, member)
            if hit is not None:
                witnesses.append(
                    {
                        "candidate": candidate.to_text(),
                        "cross_bifix": hit.word.to_text(),
                        "blocking": member.to_text(),
                        "prefix_of": hit.prefix_of,
                    }
                )
                break
        else:
            ok = False
            witnesses.append(
                {"candidate": candidate.to_text(), "cross_bifix": None, "blocking": None, "prefix_of": None}
            )
    return report(ok, witnesses, pairwise.stats["pairs_checked"], candidates)


def verify_count_agreement(q: int, n: int) -> VerificationReport:
    """Compare the closed counting formulas of each family against the
    sizes of the generated sets."""
    t0 = time.perf_counter()
    witnesses = []
    generated_total = 0
    for name in "ABC":
        built = len(construct_cbfs(q, n, name))
        claimed = count_cbfs(q, n, name)
        generated_total += built
        if built != claimed:
            witnesses.append({"family": name, "generated": built, "formula": claimed})
    stats = {
        "pairs_checked": 0,
        "candidates_checked": generated_total,
        "wall_time_s": time.perf_counter() - t0,
    }
    return VerificationReport("count-agreement", not witnesses, tuple(witnesses), stats)


def brute_motzkin_count(colors: int, n: int, max_space: int = DEFAULT_MAX_SPACE) -> int:
    """Count Motzkin words by scanning the whole word space of Z_{k+2}^n."""
    if colors < 0:
        raise ValueError(f"color count must be non-negative, got {colors}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    q = colors + 2
    _check_space(q**n, max_space, "brute Motzkin count")
    count = 0
    for symbols in itertools.product(range(q), repeat=n):
        height = 0
        for s in symbols:
            if s == 1:
                height += 1
            elif s == 0:
                height -= 1
                if height < 0:
                    break
        else:
            if height == 0:
                count += 1
    return count


def brute_count_words_avoiding_zero_run(
    k: int, q: int, n: int, max_space: int = DEFAULT_MAX_SPACE
) -> int:
    """Count words of Z_q^n with no factor 0^k by full enumeration."""
    if k < 1:
        raise ValueError(f"forbidden run length must be >= 1, got {k}")
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    _check_space(q**n, max_space, "brute zero-run count")
    count = 0
    for symbols in itertools.product(range(q), repeat=n):
        run = 0
        for s in symbols:
            run = run + 1 if s == 0 else 0
            if run >= k:
                break
        else:
            count += 1
    return count
