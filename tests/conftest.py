import sys
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make taskgen importable

from lnplan.pddl import load_task

DEFAULT_SEED = 20250810


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="base seed for the randomized acceptance suites",
    )


@pytest.fixture(scope="session")
def seed(request) -> int:
    return request.config.getoption("--seed")


BUNDLED = (
    "counters",
    "relay",
    "switches",
    "farmland",
    "delivery",
    "ratecounters",
    "watering",
    "doubling",
    "tokens",
    "dials",
    "tolls",
)


def domains_root() -> Path:
    return Path(resources.files("lnplan")) / "domains"


def load_bundled(name: str, problem: str = "problem.pddl"):
    base = domains_root() / name
    return load_task(base / "domain.pddl", base / problem)


@pytest.fixture(scope="session")
def bundled_tasks():
    return {name: load_bundled(name) for name in BUNDLED}
