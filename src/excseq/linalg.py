"""The package's own linear algebra: the rank of integer vectors.

Everything the package computes stays in Z, so this module imports nothing
and holds no rationals.  The rational matrices and the reflection-functor
oracle that the tests check the package against live in the test tree.
"""


def rank(vectors) -> int:
    """Rank of integer vectors by fraction-free (Bareiss) elimination.

    After each pivot step every remaining entry is a minor of the input, so
    the division by the previous pivot is exact and nothing leaves Z.
    """
    rows = [list(v) for v in vectors if any(v)]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, len(rows)):
            a = rows[i][c]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank
