"""Seeded task families for the benchmark, with references that do not use lnplan.

Each family is generated from a `random.Random` seeded by the benchmark seed
and returns a `Family`: the PDDL text handed to lnplan, plus the generator's
own data (links, roads, fuels, unit counts) from which the expected verdict,
plan cost, expansion count and per-state applicable sets are computed here,
by domain-specific code that never calls lnplan.

The domains are the bundled `relay`, `delivery` and `farmland` domains; the
knobs are object counts and branching (links per waypoint, long roads per
location). The same seed and knobs give byte-identical PDDL.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
LIMIT = "limit"


@dataclass
class Expected:
    """What a correct blind uniform-cost search must report on the task."""

    status: str
    cost: Optional[int] = None
    # inclusive range of the expansion count; exact when lo == hi
    expansions_lo: int = 0
    expansions_hi: int = 0
    limit_hit: Optional[str] = None


@dataclass
class Family:
    domain: str
    problem: str
    expected: Expected
    # state facts -> sorted list of applicable actions as (schema, args) tuples
    oracle: Callable[["Facts"], list]
    # schema name -> per-parameter pools of object names (the exhaustive binding set)
    pools: dict = field(default_factory=dict)
    node_cap: Optional[int] = None


@dataclass(frozen=True)
class Facts:
    """A state read out as plain names: atoms as tuples, fluents by term tuple."""

    atoms: frozenset
    fluents: dict


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# --- relay: untyped, ternary link, per-robot energy ---

RELAY_DOMAIN = """(define (domain relay)
  (:requirements :strips :numeric-fluents)
  (:predicates (at ?r ?w) (link ?r ?a ?b))
  (:functions (energy ?r) (step-cost))
  (:action move
    :parameters (?r ?a ?b)
    :precondition (and (at ?r ?a) (link ?r ?a ?b) (>= (energy ?r) (step-cost)))
    :effect (and (not (at ?r ?a)) (at ?r ?b) (decrease (energy ?r) (step-cost))))
)
"""


def relay(seed: int, robots: int = 3, waypoints: int = 40, links: int = 2,
          energy: int = 6, node_cap: int = 60) -> Family:
    """Robots on per-robot random link graphs; the goal waypoint has no way in.

    Every waypoint but the goal gets `links` outgoing links per robot to
    distinct other non-goal waypoints, so the goal is unreachable and the
    search runs to `node_cap` expansions when the reachable space is larger.
    """
    rng = random.Random(seed)
    rs = [f"r{i + 1}" for i in range(robots)]
    ws = [f"w{i + 1}" for i in range(waypoints)]
    goal_wp = ws[-1]
    open_ws = ws[:-1]
    link = {r: {a: sorted(rng.sample([b for b in open_ws if b != a], links))
                for a in open_ws} for r in rs}
    start = {r: rng.choice(open_ws) for r in rs}

    init = [f"(at {r} {start[r]})" for r in rs]
    init += [f"(link {r} {a} {b})" for r in rs for a in open_ws for b in link[r][a]]
    init += [f"(= (energy {r}) {energy})" for r in rs] + ["(= (step-cost) 1)"]
    problem = _problem("relay", seed, " ".join(_shuffled(rng, rs + ws)), _shuffled(rng, init),
                       f"(at {rs[0]} {goal_wp})")

    # robots never interact, so the reachable space is the product of each
    # robot's reachable (waypoint, energy) pairs
    reachable = 1
    for r in rs:
        seen = {(start[r], energy)}
        queue = deque(seen)
        while queue:
            at, e = queue.popleft()
            if e < 1:
                continue
            for b in link[r].get(at, ()):
                nxt = (b, e - 1)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        reachable *= len(seen)
    if reachable > node_cap:
        expected = Expected(LIMIT, None, node_cap, node_cap, "nodes")
    else:
        expected = Expected(UNSOLVABLE, None, reachable, reachable)

    def oracle(facts: Facts) -> list:
        step = facts.fluents[("step-cost",)]
        out = []
        for (pred, *args) in facts.atoms:
            if pred != "at":
                continue
            r, a = args
            if facts.fluents.get(("energy", r), -math.inf) >= step:
                out.extend(("move", (r, a, b)) for b in link[r].get(a, ()))
        return sorted(out)

    objects = tuple(rs + ws)
    return Family(RELAY_DOMAIN, problem, expected, oracle,
                  {"move": (objects, objects, objects)}, node_cap)


# --- delivery: typed ring with fuel ---

DELIVERY_DOMAIN = """(define (domain delivery)
  (:requirements :strips :typing :numeric-fluents)
  (:types truck location)
  (:predicates (at ?t - truck ?l - location) (road ?a - location ?b - location))
  (:functions (fuel ?t - truck) (dist ?a - location ?b - location))
  (:action drive
    :parameters (?t - truck ?a - location ?b - location)
    :precondition (and (at ?t ?a) (road ?a ?b) (>= (fuel ?t) (dist ?a ?b)))
    :effect (and (not (at ?t ?a)) (at ?t ?b) (decrease (fuel ?t) (dist ?a ?b))))
)
"""


def delivery(seed: int, trucks: int = 2, locations: int = 16, reach: int = 9,
             long_roads: int = 2) -> Family:
    """Trucks on a ring with roads to the next two locations (fan-out 2).

    Ring roads cost their length (1 or 2) in fuel and every truck starts with
    `reach` fuel, so a truck can advance at most `reach` ring steps; each
    location also has `long_roads` roads whose distance exceeds any fuel, which
    only the numeric rules can rule out. The goal puts every truck exactly
    `reach` steps ahead. With `reach` odd and below the ring size, that is the
    unique deepest state, so the search expands every other reachable state.
    """
    if reach % 2 == 0 or reach >= locations - 1:
        raise ValueError("reach must be odd and smaller than the ring")
    rng = random.Random(seed)
    ts = [f"t{i + 1}" for i in range(trucks)]
    names = [f"l{i + 1}" for i in range(locations)]
    ring = _shuffled(rng, names)  # ring position -> location name
    dist: dict[tuple[str, str], int] = {}
    for i, a in enumerate(ring):
        dist[(a, ring[(i + 1) % locations])] = 1
        dist[(a, ring[(i + 2) % locations])] = 2
    for a in ring:
        others = [b for b in ring if b != a and (a, b) not in dist]
        for b in rng.sample(others, long_roads):
            dist[(a, b)] = rng.randint(reach + 1, 3 * reach)
    start = {t: rng.randrange(locations) for t in ts}
    goal = {t: ring[(start[t] + reach) % locations] for t in ts}

    init = [f"(at {t} {ring[start[t]]})" for t in ts]
    init += [f"(road {a} {b})" for (a, b) in dist]
    init += [f"(= (dist {a} {b}) {d})" for (a, b), d in dist.items()]
    init += [f"(= (fuel {t}) {reach})" for t in ts]
    objects = " ".join(_shuffled(rng, ts)) + " - truck " + " ".join(names) + " - location"
    goal_text = " ".join(f"(at {t} {goal[t]})" for t in ts)
    problem = _problem("delivery", seed, objects, _shuffled(rng, init), goal_text)

    roads: dict[str, list[tuple[str, int]]] = {}
    for (a, b), d in dist.items():
        roads.setdefault(a, []).append((b, d))
    expected = _delivery_reference(ts, {t: ring[start[t]] for t in ts},
                                   {t: reach for t in ts}, goal, roads)

    def oracle(facts: Facts) -> list:
        out = []
        for (pred, *args) in facts.atoms:
            if pred != "at":
                continue
            t, a = args
            fuel = facts.fluents[("fuel", t)]
            out.extend(("drive", (t, a, b)) for b, d in roads.get(a, ()) if fuel >= d)
        return sorted(out)

    return Family(DELIVERY_DOMAIN, problem, expected, oracle,
                  {"drive": (tuple(ts), tuple(names), tuple(names))})


def _delivery_reference(ts, at, fuel, goal, roads) -> Expected:
    """Breadth-first search over (truck positions, fuels).

    Uniform-cost search with the goal test at expansion expands every state
    closer than the goal and, in FIFO order, part of the goal's layer; the
    expected expansion range spans exactly that.
    """
    root = tuple((at[t], fuel[t]) for t in ts)
    target = tuple(goal[t] for t in ts)
    depth = {root: 0}
    queue = deque([root])
    while queue:
        state = queue.popleft()
        for i, (a, f) in enumerate(state):
            for b, d in roads.get(a, ()):
                if f >= d:
                    nxt = state[:i] + ((b, f - d),) + state[i + 1:]
                    if nxt not in depth:
                        depth[nxt] = depth[state] + 1
                        queue.append(nxt)
    goal_depths = [g for s, g in depth.items() if tuple(p for p, _ in s) == target]
    if not goal_depths:
        return Expected(UNSOLVABLE, None, len(depth), len(depth))
    cost = min(goal_depths)
    closer = sum(1 for g in depth.values() if g < cost)
    same = sum(1 for g in depth.values() if g == cost)
    return Expected(SOLVED, cost, closer, closer + same - 1)


# --- farmland: units moved between farms ---

FARMLAND_DOMAIN = """(define (domain farmland)
  (:requirements :strips :typing :equality :negative-preconditions :numeric-fluents)
  (:types farm)
  (:functions (units ?f - farm))
  (:action move-unit
    :parameters (?a - farm ?b - farm)
    :precondition (and (not (= ?a ?b)) (>= (units ?a) 1))
    :effect (and (decrease (units ?a) 1) (increase (units ?b) 1)))
)
"""


def farmland(seed: int, farms: int = 6, units: int = 5) -> Family:
    """`units` units spread over `farms` farms; the goal needs one unit too many.

    Every distribution of the units is reachable and none is a goal, so the
    search proves unsolvability after expanding all C(u + N - 1, N - 1) of them.
    """
    rng = random.Random(seed)
    fs = [f"f{i + 1}" for i in range(farms)]
    counts = [0] * farms
    for _ in range(units):
        counts[rng.randrange(farms)] += 1
    init = [f"(= (units {f}) {c})" for f, c in zip(fs, counts)]
    objects = " ".join(_shuffled(rng, fs)) + " - farm"
    problem = _problem("farmland", seed, objects, _shuffled(rng, init),
                       f"(>= (units {rng.choice(fs)}) {units + 1})")
    reachable = math.comb(units + farms - 1, farms - 1)

    def oracle(facts: Facts) -> list:
        return sorted(("move-unit", (a, b)) for a in fs for b in fs
                      if a != b and facts.fluents[("units", a)] >= 1)

    return Family(FARMLAND_DOMAIN, problem,
                  Expected(UNSOLVABLE, None, reachable, reachable), oracle,
                  {"move-unit": (tuple(fs), tuple(fs))})


def _problem(domain: str, seed: int, objects: str, init: list, goal: str) -> str:
    body = "\n         ".join(init)
    return (f"(define (problem {domain}-{seed})\n"
            f"  (:domain {domain})\n"
            f"  (:objects {objects})\n"
            f"  (:init {body})\n"
            f"  (:goal (and {goal}))\n)\n")


FAMILIES = {"relay": relay, "delivery": delivery, "farmland": farmland}
