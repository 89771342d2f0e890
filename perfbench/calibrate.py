"""A fixed pure-Python reference load that measures how fast the machine is now.

It touches no fpcsat code.  Its mix follows the program's: objects with
``__slots__`` linked into a tree and walked, small frozensets kept in a set,
sorting by tuple keys and counting in dicts.  ``run.py`` times it after each
command, and scales its time metrics by how much slower or faster than
usual this load ran at that moment.
"""

import random


class Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, value):
        self.left = self.right = None
        self.value = value


def tree_walk(depth: int) -> int:
    root = Node(1)
    frontier = [root]
    for _ in range(depth):
        grown = []
        for node in frontier:
            node.left, node.right = Node(2 * node.value), Node(2 * node.value + 1)
            grown += (node.left, node.right)
        frontier = grown
    total, stack = 0, [root]
    while stack:
        node = stack.pop()
        total += node.value & 7
        if node.left is not None:
            stack += (node.left, node.right)
    return total


def clause_mix(count: int) -> int:
    rng = random.Random(1)
    clauses = {frozenset(rng.sample(range(1, 40), 5)) for _ in range(count)}
    ordered = sorted(clauses, key=lambda c: (len(c), max(c), tuple(sorted(c))))
    counts: dict[int, int] = {}
    for c in ordered:
        for lit in c:
            counts[lit] = counts.get(lit, 0) + 1
    return len(ordered) + sum(counts.values())


if __name__ == "__main__":
    print(sum(tree_walk(15) for _ in range(2)) + clause_mix(25_000))
