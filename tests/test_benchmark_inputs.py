"""The benchmark's input files, rebuilt here by fpcsat's own generators and
``write_dimacs``, must hash to the digests ``perfbench/pins.json`` pins: a
change to the writer's bytes or to a generator fails here, not only in a
benchmark run.  The recipe is ``perfbench/workloads.py``'s, repeated rather
than imported, because that module's set-up also runs the benchmark's
reference solvers."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from fpcsat.dimacs import write_dimacs
from fpcsat.instances import complete_minus_one, pigeonhole, random_3sat

PINS = json.loads((Path(__file__).parent.parent / "perfbench" / "pins.json").read_text())


def digest(*formulas) -> str:
    h = hashlib.sha256()
    for f in formulas:
        h.update(write_dimacs(f).encode())
    return h.hexdigest()


def rand3sat_instances():
    """The 35 instances ``fpcsat bench --family random3sat --n-range 16..22
    --ratio 4.3 --seeds-per-n 5 --seed 1`` solves, in order."""
    for n in range(16, 23):
        for rep in range(5):
            seed = 1 * 1_000_003 + n * 1_009 + rep
            yield random_3sat(n, round(4.3 * n), random.Random(seed))


@pytest.mark.parametrize(
    "workload, name, build",
    [
        ("php", "php6_5.cnf", lambda: [pigeonhole(5)]),
        ("cmo", "cmo10.cnf", lambda: [complete_minus_one(10)]),
        ("cmo", "cmo9.cnf", lambda: [complete_minus_one(9)]),
        ("rand3sat", "rand3sat.instances", rand3sat_instances),
        ("models", "models.cnf", lambda: [random_3sat(22, 33, random.Random(7))]),
    ],
)
def test_benchmark_inputs_match_their_pins(workload, name, build):
    assert digest(*build()) == PINS[workload][name]
