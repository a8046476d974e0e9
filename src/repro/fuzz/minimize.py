"""Delta-debugging source minimizer (ddmin over lines).

The classic Zeller/Hildebrandt ddmin loop specialised to program text:
remove ever-smaller chunks of lines while a caller-supplied *failure
predicate* keeps holding.  Candidates that no longer compile simply fail
the predicate (the oracle raises, the wrapper returns ``False``), so the
minimizer needs no language knowledge — brace-unbalanced candidates are
rejected the same way a semantically-changed one is.

The predicate receives the candidate *source text* and must return True
exactly when the candidate still exhibits the original failure.  A
budget caps predicate evaluations so pathological cases cannot stall a
fuzzing run.
"""

from __future__ import annotations

from typing import Callable, List

#: predicate evaluations one minimisation may spend
MAX_CHECKS = 400


def _chunks(items: List[str], n: int) -> List[List[str]]:
    """Split ``items`` into ``n`` roughly equal contiguous chunks."""
    size, rem = divmod(len(items), n)
    out: List[List[str]] = []
    start = 0
    for index in range(n):
        end = start + size + (1 if index < rem else 0)
        if end > start:
            out.append(items[start:end])
        start = end
    return out


def ddmin_lines(lines: List[str],
                predicate: Callable[[List[str]], bool]) -> List[str]:
    """Minimise ``lines`` while ``predicate(lines)`` stays True.

    Returns a (locally) 1-minimal list: removing any single remaining
    line breaks the predicate (up to :data:`MAX_CHECKS` evaluations).
    """
    checks = [0]

    def holds(candidate: List[str]) -> bool:
        if checks[0] >= MAX_CHECKS:
            return False
        checks[0] += 1
        return predicate(candidate)

    if not holds(lines):
        raise ValueError("ddmin: predicate does not hold on the input")

    n = 2
    while len(lines) >= 2 and checks[0] < MAX_CHECKS:
        parts = _chunks(lines, min(n, len(lines)))
        reduced = False
        # First try keeping single chunks (big cuts), then removing them.
        for chunk in parts:
            if len(chunk) < len(lines) and holds(chunk):
                lines = chunk
                n = 2
                reduced = True
                break
        if not reduced:
            for index in range(len(parts)):
                candidate = [line for i, part in enumerate(parts)
                             if i != index for line in part]
                if candidate and holds(candidate):
                    lines = candidate
                    n = max(n - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if n >= len(lines):
                break
            n = min(len(lines), n * 2)
    return lines


def minimize_source(source: str,
                    predicate: Callable[[str], bool]) -> str:
    """Minimise program text with a text-level failure predicate.

    Wraps :func:`ddmin_lines`; any exception from the predicate counts
    as "failure not reproduced" so compile errors on mangled candidates
    are handled for free.
    """

    def line_predicate(lines: List[str]) -> bool:
        try:
            return predicate("\n".join(lines) + "\n")
        except Exception:
            return False

    lines = [line for line in source.splitlines()]
    return "\n".join(ddmin_lines(lines, line_predicate)) + "\n"
