"""Family front door: linear type-A quivers and automatic decomposition.

``auto_decompose`` tries, in order: spectral (i,r)-labelled windows against
the standard Cartan types, type-A mutation class, type-D mutation class,
and general oriented-cycle-glued quivers.  The first family whose recognizer
accepts the quiver provides the chain decomposition.
"""

from __future__ import annotations

from .cartan import UnsupportedTypeError, cartan_data
from .cycles import all_cycles_oriented_decompose
from .decomposition import (
    ChainDecomposition,
    DecompositionError,
    build_decomposition,
    decompose_with_chains,
)
from .hl import InconsistentLabelsError, parse_window, rule_chains
from .quiver import Quiver, QuiverError, make_quiver
from .type_a import NotTypeAError, _peel, triangles
from .type_d import classify_type_d, type_d_decompose


def linear_a(n: int) -> tuple[Quiver, ChainDecomposition]:
    """Linearly oriented type-A quiver 1 <- 2 <- ... <- n as a single chain."""
    if n < 1:
        raise QuiverError("need n >= 1")
    labels = [str(i) for i in range(1, n + 1)]
    arrows = [(str(i + 1), str(i)) for i in range(1, n)]
    q = make_quiver(labels, arrows)
    return q, build_decomposition([labels], [])


def _try_spectral(q: Quiver) -> ChainDecomposition | None:
    """The first Cartan type whose arrow rule the (i, r) labels of ``q``
    follow, on one parse of the labels; None when none does."""
    try:
        window, canonical = parse_window(q)
    except InconsistentLabelsError:
        return None
    nodes = {i for i, _ in window}
    if not nodes or min(nodes) < 1:
        return None
    rank = max(nodes)
    for letter in ("A", "B", "C", "D", "E", "F", "G"):
        try:
            cartan = cartan_data(letter, rank)
        except UnsupportedTypeError:
            continue
        try:
            return decompose_with_chains(q, rule_chains(q, cartan, window, canonical))
        except (InconsistentLabelsError, DecompositionError):
            continue
    return None


def auto_decompose(q: Quiver) -> tuple[str, ChainDecomposition] | None:
    """(family tag, decomposition) for the first matching family, else None."""
    spectral = _try_spectral(q)
    if spectral is not None:
        return "hl", spectral
    try:
        tris = triangles(q)
    except NotTypeAError:
        pass
    else:
        return "mu_a", decompose_with_chains(q, _peel(q, tris))
    cls = classify_type_d(q)
    if cls is not None:
        return "mu_d", type_d_decompose(q, cls)
    cycles = all_cycles_oriented_decompose(q)
    if cycles is not None:
        return "oriented_cycles", cycles
    return None
