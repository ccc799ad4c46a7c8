"""Output checks that do not trust the program's own evaluator.

Every found candidate is run against its source window on seeded inputs
by :mod:`irinterp`; every scalar counterexample of a refutation is
replayed there and must make source and candidate differ.  Functions
outside the interpreter's subset are counted as unchecked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import irinterp
from common import derive

_DEFINE_BLOCK = re.compile(r"define[^\n]*\{.*?\n\}", re.S)


def first_define(text: str) -> Optional[str]:
    """The first ``define ... }`` block of an LLM answer."""
    match = _DEFINE_BLOCK.search(text)
    return match.group(0) if match else None


@dataclass
class Checker:
    seed: int
    found_checked: int = 0
    found_unchecked: int = 0
    refutations_checked: int = 0
    refutations_unchecked: int = 0
    problems: List[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        else:
            self.problems[-1] = f"... and more (last: {text})"

    def found(self, source_text: str, candidate_text: str,
              label: str) -> None:
        """A reported missed optimization must refine its source."""
        try:
            source = irinterp.parse(source_text)
            candidate = irinterp.parse(candidate_text)
            inputs = irinterp.seeded_inputs(
                source, derive(self.seed, "found", source_text))
            _checked, bad = irinterp.agrees(source, candidate, inputs)
        except irinterp.Unsupported:
            self.found_unchecked += 1
            return
        self.found_checked += 1
        if bad is not None:
            self.problem(f"{label}: candidate differs from its source on "
                         f"input {bad}")

    def refutation(self, source_text: str, candidate_text: str,
                   args: Sequence, label: str) -> None:
        """A counterexample must make source and candidate differ."""
        if not all(isinstance(arg, int) for arg in args):
            self.refutations_unchecked += 1
            return
        try:
            source = irinterp.parse(source_text)
            candidate = irinterp.parse(candidate_text)
            differs = irinterp.differ(source, candidate, list(args))
        except irinterp.Unsupported:
            self.refutations_unchecked += 1
            return
        self.refutations_checked += 1
        if not differs:
            self.problem(f"{label}: counterexample {list(args)} does not "
                         f"separate source and candidate")

    def window_result(self, result, label: str) -> None:
        """Check one ``WindowResult``: its finding and its refutations."""
        from repro.ir.printer import print_function

        source_text = print_function(result.window.function)
        if result.found:
            self.found(source_text, result.candidate_text, label)
        for attempt in result.attempts:
            verification = attempt.verification
            if (verification is None or verification.status != "refuted"
                    or verification.counterexample is None):
                continue
            candidate_text = first_define(attempt.response_text)
            if candidate_text is None:
                self.refutations_unchecked += 1
                continue
            self.refutation(source_text, candidate_text,
                            verification.counterexample.args,
                            f"{label} attempt {attempt.attempt}")

    def summary(self) -> dict:
        return {"found_checked": self.found_checked,
                "found_unchecked": self.found_unchecked,
                "refutations_checked": self.refutations_checked,
                "refutations_unchecked": self.refutations_unchecked,
                "problems": list(self.problems)}
