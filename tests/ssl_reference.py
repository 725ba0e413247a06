"""Reference implementations for the SSL oracle's candidate search.

`ssl_candidates` is the leaf-testing Hermite-normal-form search that
`a4csl.oracle._ssl_candidates` replaced, kept verbatim so that both can be
compared on drawn forms.  Every complete candidate row gets the full norm
and one dot product per fixed row; the reduced Gram of each surviving basis
is collected in search order.

`enumerate_sublattices` lists every HNF basis of a given index and tests
none of them, so filtering its output by the divisibility tests is a
search that does not depend on how the oracle prunes or solves rows."""

from __future__ import annotations

from typing import Iterator, Sequence

from a4csl.lattice import IntMatrix, _divisor_tuples


def enumerate_sublattices(rank: int, index: int) -> Iterator[IntMatrix]:
    """All HNF bases of sublattices of Z^rank with the given index.

    Upper triangular, positive diagonal, column entries above a pivot
    reduced mod the pivot; each sublattice appears exactly once.
    """
    if rank < 1 or index < 1:
        raise ValueError("rank and index must be positive")

    def fill(diag: tuple[int, ...], row: int, rows: list[tuple[int, ...]]):
        if row == rank:
            yield tuple(rows)
            return
        free = [range(diag[j]) for j in range(row + 1, rank)]

        def rec(j: int, acc: list[int]):
            if j == rank:
                rows.append(tuple(acc))
                yield from fill(diag, row + 1, rows)
                rows.pop()
                return
            for t in free[j - row - 1]:
                acc.append(t)
                yield from rec(j + 1, acc)
                acc.pop()

        yield from rec(row + 1, [0] * row + [diag[row]])

    for diag in _divisor_tuples(index, rank):
        yield from fill(diag, 0, [])


def ssl_candidates(m: int, g: IntMatrix) -> list[list[list[int]]]:
    """The reduced Gram (u G v) // m of every surviving HNF basis, in order."""
    n = len(g)
    # an even ambient form forces even diagonal on the rescaled form
    self_mod = 2 * m if all(g[i][i] % 2 == 0 for i in range(n)) else m

    def times_g(v: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(row[j] * v[j] for j in range(n)) for row in g)

    def dot(u: Sequence[int], gv: Sequence[int]) -> int:
        return sum(u[i] * gv[i] for i in range(n))

    # x^T G x from the nonzero entries on and above the diagonal
    terms = [(i, j, g[i][j] * (1 if i == j else 2))
             for i in range(n) for j in range(i, n) if g[i][j]]

    def norm(v: Sequence[int]) -> int:
        return sum(c * v[i] * v[j] for i, j, c in terms)

    out: list[list[list[int]]] = []
    for diag in _divisor_tuples(m * m, n):

        # rows[i] is a fixed row r and grows[i] its product G r, so each
        # inner product with a fixed row costs n multiplications
        def build(level: int, rows: list[tuple[int, ...]],
                  grows: list[tuple[int, ...]]) -> None:
            if level < 0:
                s = [[dot(u, gv) for gv in grows] for u in rows]
                reduced = [[x // m for x in row] for row in s]
                out.append(reduced)
                return

            def rec(col: int, vec: list[int]) -> None:
                if col == n:
                    if norm(vec) % self_mod:
                        return
                    if any(dot(vec, gr) % m for gr in grows):
                        return
                    build(level - 1, [tuple(vec)] + rows, [times_g(vec)] + grows)
                    return
                for t in range(diag[col]):
                    vec[col] = t
                    rec(col + 1, vec)
                vec[col] = 0

            vec = [0] * n
            vec[level] = diag[level]
            rec(level + 1, vec)

        # rows are built bottom-up so each new row is pruned against all
        # previously fixed rows before the next level is expanded
        build(n - 1, [], [])
    return out
