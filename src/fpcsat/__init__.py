"""SAT decision by fully-populated-clause elimination, with a brute-force
oracle, cardinality-based preprocessing, and a scaling benchmark harness."""
