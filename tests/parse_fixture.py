#!/usr/bin/env python3
"""Parsed tasks and parse errors, pinned in tests/data/parsed_tasks.json.

    python3 tests/parse_fixture.py          # rewrite the fixture

Under `tasks`, each text pair maps to a digest of the task it parses to, as
`write_domain` and `write_problem` print it. The pairs are the bundled
problems, each benchmark family at the size of its workloads in
`perfbench/spec.py` at seeds 0-4, and the dense relay with every waypoint
linked to every other at 60 waypoints.

Under `mutants`, each of MUTANTS token-level mutants of the bundled texts
maps to what parsing it gives: the exact text of its ParseError, or the
digest of the task. A mutant deletes, duplicates or swaps tokens, drops a
parenthesis, flips the case of a word, or inserts a comment, a tab or a \\r
before a token. The mutants are drawn from one seeded generator and located
by a scanner of their own, so they do not depend on the parser under test.

A rewrite of the parser that keeps every task and every error message and
position leaves the fixture byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "parsed_tasks.json"
DOMAINS = ROOT / "src" / "lnplan" / "domains"
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import families  # noqa: E402
from spec import WORKLOADS  # noqa: E402

from lnplan import pddl  # noqa: E402

SEEDS = range(5)
DENSE = {"waypoints": 60, "links": 58}
MUTANTS, MUTANT_SEED = 500, 2025
# the domains the mutants are drawn from; a domain bundled later adds its
# task's digest but no mutants, so the corpus of the others stays as pinned
MUTATED = ("counters", "delivery", "dials", "doubling", "farmland", "ratecounters", "relay",
           "switches", "tokens", "watering")
KINDS = ("delete", "duplicate", "swap", "drop-paren", "case",
         "comment", "comment-line", "tab", "cr")

# a token as the PDDL reader sees one; a ';' comment runs to the line end
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


def digest(domain: str, problem: str) -> str:
    """The task's written form, hashed."""
    task = pddl.parse_task(domain, problem)
    text = pddl.write_domain(task) + pddl.write_problem(task)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bundled() -> dict[str, tuple[str, str]]:
    """'name/problem file' -> (domain text, problem text) of each bundled problem."""
    pairs = {}
    for base in sorted(DOMAINS.iterdir()):
        for problem in sorted(base.glob("problem*.pddl")):
            pairs[f"{base.name}/{problem.name}"] = ((base / "domain.pddl").read_text(),
                                                    problem.read_text())
    return pairs


def generated() -> dict[str, tuple[str, str]]:
    """The benchmark families at their workload sizes and the dense relay,
    as 'name seed N' -> (domain text, problem text)."""
    cases, seen = {}, set()
    for name, workload in WORKLOADS.items():
        shape = (workload.family, json.dumps(workload.knobs, sort_keys=True))
        if shape not in seen:  # relay-grounded runs relay-wide's tasks
            seen.add(shape)
            cases[name] = (workload.family, workload.knobs)
    cases["relay-dense-60"] = ("relay", DENSE)
    pairs = {}
    for name, (family_name, knobs) in cases.items():
        for seed in SEEDS:
            family = families.FAMILIES[family_name](seed, **knobs)
            pairs[f"{name} seed {seed}"] = (family.domain, family.problem)
    return pairs


def mutate(text: str, kind: str, rng: random.Random) -> tuple[str, int]:
    """The text with one mutation of the kind, and the index of the token it hits."""
    spans = [m.span(1) for m in _TOKEN.finditer(text) if m.lastindex]
    if kind == "drop-paren":
        choices = [k for k, (s, e) in enumerate(spans) if text[s:e] in "()"]
    elif kind == "case":
        choices = [k for k, (s, e) in enumerate(spans) if text[s:e] not in "()"]
    elif kind == "swap":
        choices = range(len(spans) - 1)
    else:
        choices = range(len(spans))
    k = rng.choice(choices)
    s, e = spans[k]
    if kind in ("delete", "drop-paren"):
        return text[:s] + text[e:], k
    if kind == "duplicate":
        return text[:e] + " " + text[s:], k
    if kind == "swap":
        s2, e2 = spans[k + 1]
        return text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:], k
    if kind == "case":
        return text[:s] + text[s:e].swapcase() + text[e:], k
    inserted = {"comment": "; x", "comment-line": "; x\n", "tab": "\t", "cr": "\r"}[kind]
    return text[:s] + inserted + text[s:], k


def outcome(domain: str, problem: str, domain_file: str, problem_file: str) -> str:
    """The parse's error text, or the task's digest."""
    try:
        pddl.parse_task(domain, problem, domain_file, problem_file)
    except pddl.ParseError as err:
        return str(err)
    return digest(domain, problem)


def mutants() -> dict[str, str]:
    rng = random.Random(MUTANT_SEED)
    pairs = {name: pair for name, pair in bundled().items() if name.split("/")[0] in MUTATED}
    texts = [(name, part) for name in pairs for part in ("domain", "problem")]
    out = {}
    for i in range(MUTANTS):
        name, part = rng.choice(texts)
        kind = rng.choice(KINDS)
        domain, problem = pairs[name]
        base = name.split("/")[0]
        files = (f"{base}/domain.pddl", name)
        if part == "domain":
            domain, k = mutate(domain, kind, rng)
        else:
            problem, k = mutate(problem, kind, rng)
        key = f"{i:03d} {files[part == 'problem']} {kind} {k}"
        out[key] = outcome(domain, problem, *files)
    return out


def all_outcomes() -> dict:
    tasks = {name: digest(*pair) for name, pair in {**bundled(), **generated()}.items()}
    return {"tasks": tasks, "mutants": mutants()}


def main() -> None:
    FIXTURE.write_text(json.dumps(all_outcomes(), indent=1) + "\n")


if __name__ == "__main__":
    main()
