"""Cartan matrices and symmetrizers for the finite Dynkin types.

Labelling conventions (paths run 1..n):

* A_n: path, all weights 1.
* B_n: path with vertex n short; weights (2,...,2,1), c[n][n-1] = -2.
* C_n: path with vertex n long; weights (1,...,1,2), c[n-1][n] = -2.
* D_n: path 1..n-2 with both n-1 and n attached to n-2; weights 1.
* E_6/E_7/E_8: path 1..n-1 with vertex n attached to node 3/4/5; weights 1.
* F_4: path with the double bond between 2 and 3; weights (2,2,1,1).
* G_2: triple bond 1-2 with vertex 2 short; weights (3,1).

The diagonal symmetrizer d is normalized to min d = 1, so that
B = diag(d) C is symmetric and max d equals 1 for the simply laced types,
2 for B/C/F and 3 for G.

A Dynkin diagram is a tree, so each row of B has at most four nonzero
entries.  ``CartanData`` keeps only those, so it costs O(rank) to build and
hold.  ``cartan_data`` builds each (type, rank) once and hands the same
value to every caller afterwards; ``cartan`` and ``symmetrized`` build a
fresh tuple matrix on each read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable


class UnsupportedTypeError(ValueError):
    pass


_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}
_E_BRANCH = {6: 3, 7: 4, 8: 5}


@dataclass(frozen=True, eq=False)
class CartanData:
    """Cartan matrix C, symmetrizer d (min 1), and B = diag(d) C (symmetric).

    ``_rows[i - 1]`` maps each node j with b_ij != 0, in ascending order, to
    b_ij; the diagonal b_ii = 2 d_i is among them.
    """

    letter: str
    rank: int
    symmetrizer: tuple[int, ...]
    _rows: tuple[dict[int, int], ...]

    @property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix C, row by row, built on each read."""
        return tuple(
            tuple(self.b(i, j) // self.d(i) for j in self.nodes) for i in self.nodes
        )

    @property
    def symmetrized(self) -> tuple[tuple[int, ...], ...]:
        """B = diag(d) C, row by row, built on each read."""
        return tuple(tuple(self.b(i, j) for j in self.nodes) for i in self.nodes)

    def b(self, i: int, j: int) -> int:
        """Entry of the symmetrized matrix, 1-based node indices."""
        return self._rows[i - 1].get(j, 0)

    def support(self, i: int) -> Iterable[int]:
        """The nodes j with b_ij != 0, ascending; i itself is one of them."""
        return self._rows[i - 1].keys()

    def d(self, i: int) -> int:
        return self.symmetrizer[i - 1]

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)


def cartan_data(letter: str, rank: int) -> CartanData:
    """Cartan data for one finite Dynkin type; raises UnsupportedTypeError.

    Built once per (upper-cased letter, rank); later calls return the same
    value.
    """
    return _cartan_data(letter.upper(), rank)


# 32 entries hold every supported type of rank up to 8; each entry is
# O(rank), and the bound keeps a long run over labels of many large ranks
# from holding them all
@lru_cache(maxsize=32)
def _cartan_data(letter: str, rank: int) -> CartanData:
    if letter not in _MIN_RANK:
        raise UnsupportedTypeError(f"unknown type {letter!r}")
    if rank < _MIN_RANK[letter] or rank > _MAX_RANK.get(letter, 10**9):
        raise UnsupportedTypeError(f"rank {rank} not supported for type {letter}")

    n = rank
    d = [1] * n
    # bonds: (i, j, c_ij, c_ji) with i < j
    if letter == "A":
        bonds = [(i, i + 1, -1, -1) for i in range(1, n)]
    elif letter == "B":
        d = [2] * (n - 1) + [1]
        bonds = [(i, i + 1, -1, -1) for i in range(1, n - 1)]
        bonds.append((n - 1, n, -1, -2))
    elif letter == "C":
        d = [1] * (n - 1) + [2]
        bonds = [(i, i + 1, -1, -1) for i in range(1, n - 1)]
        bonds.append((n - 1, n, -2, -1))
    elif letter == "D":
        bonds = [(i, i + 1, -1, -1) for i in range(1, n - 2)]
        bonds.append((n - 2, n - 1, -1, -1))
        bonds.append((n - 2, n, -1, -1))
    elif letter == "E":
        bonds = [(i, i + 1, -1, -1) for i in range(1, n - 1)]
        bonds.append((_E_BRANCH[n], n, -1, -1))
    elif letter == "F":
        d = [2, 2, 1, 1]
        bonds = [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
    else:  # G
        d = [3, 1]
        bonds = [(1, 2, -1, -3)]

    entries = [[(i, 2 * d[i - 1])] for i in range(1, n + 1)]
    for i, j, cij, cji in bonds:
        bij, bji = d[i - 1] * cij, d[j - 1] * cji
        if bij != bji:
            raise AssertionError("symmetrizer does not symmetrize the Cartan matrix")
        entries[i - 1].append((j, bij))
        entries[j - 1].append((i, bji))
    return CartanData(letter, rank, tuple(d), tuple(dict(sorted(e)) for e in entries))
