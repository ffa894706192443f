import pytest

from leafspace.action import act
from leafspace.core import LeafSpaceSpec, ChainEndRule, Point, open_end, to_limit, to_vertex
from leafspace.gallery import gallery


def act_cell(spec, word, cell):
    """Image of a cell under a word."""
    return act(spec, word, Point(cell)).cell


@pytest.fixture(scope="session")
def line():
    return gallery("LINE")


@pytest.fixture(scope="session")
def yplus():
    return gallery("YPLUS")


@pytest.fixture(scope="session")
def swap():
    return gallery("SWAP")


@pytest.fixture(scope="session")
def zigzag():
    return gallery("ZIGZAG")


@pytest.fixture(scope="session")
def comb():
    return gallery("COMB")


def build_tripod(with_valid_swap=True, with_inconsistent_action=False):
    """Three-member locus {a,b,c} with open branches pa, pb, pc.

    ``w`` (genuine automorphism) fixes a and exchanges b, c: a valid model
    no foliation group realizes, since a stabilizer word fixing one member
    of a finite locus must fix all of them.

    ``f`` (built with check=False) claims to swap a and b while fixing
    every branch cell: an inconsistent action that the junction clause of
    the comparable-set path checker must flag.
    """
    spec = LeafSpaceSpec()
    for v in ("a", "b", "c"):
        spec.add_vertex(v)
    spec.add_edge("s", low=open_end(), high=to_limit(("a", 0), ("b", 0), ("c", 0)))
    spec.add_edge("pa", low=to_vertex("a"), high=open_end())
    spec.add_edge("pb", low=to_vertex("b"), high=open_end())
    spec.add_edge("pc", low=to_vertex("c"), high=open_end())
    if with_valid_swap:
        spec.add_generator("w", {
            "s": ("s", 0), "a": ("a", 0), "b": ("c", 0), "c": ("b", 0),
            "pa": ("pa", 0), "pb": ("pc", 0), "pc": ("pb", 0)})
    if with_inconsistent_action:
        spec.add_generator("f", {
            "s": ("s", 0), "a": ("b", 0), "b": ("a", 0), "c": ("c", 0),
            "pa": ("pa", 0), "pb": ("pb", 0), "pc": ("pc", 0)}, check=False)
    return spec


def build_updown():
    """Two branch chains moved oppositely by one word: pa ascends, pb
    descends, the stem is fixed pointwise; exercises the incomparable
    branch of the intermediate-fixed-point checker."""
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_vertex("b")
    spec.add_glued_chain("s", glue=-1,
                         neg=ChainEndRule("limit", ("a", "b")),
                         pos=ChainEndRule("open"))
    spec.add_glued_chain("pa", glue=1,
                         neg=ChainEndRule("limit", ("a",)), pos=ChainEndRule("open"))
    spec.add_glued_chain("pb", glue=1,
                         neg=ChainEndRule("limit", ("b",)), pos=ChainEndRule("open"))
    spec.add_generator("w", {"s": ("s", 0), "pa": ("pa", 1), "pb": ("pb", -1),
                             "a": ("a", 0), "b": ("b", 0)})
    return spec


@pytest.fixture(scope="session")
def tripod():
    return build_tripod()


@pytest.fixture(scope="session")
def tripod_inconsistent():
    return build_tripod(with_valid_swap=False, with_inconsistent_action=True)


@pytest.fixture(scope="session")
def updown():
    return build_updown()


def build_swap_k():
    """SWAP plus a second generator k that shifts the chains and commutes
    with g: Z^2 acts, so the reduced words of a ball name far fewer
    elements than there are words, and g*k*g^-1*k^-1 acts trivially."""
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_vertex("b")
    spec.add_glued_chain("s", glue=-1, neg=ChainEndRule("limit", ("a", "b")),
                         pos=ChainEndRule("open"))
    spec.add_glued_chain("ra", glue=1, neg=ChainEndRule("limit", ("a",)),
                         pos=ChainEndRule("open"))
    spec.add_glued_chain("rb", glue=1, neg=ChainEndRule("limit", ("b",)),
                         pos=ChainEndRule("open"))
    spec.add_generator("g", {"s": ("s", -1), "ra": ("rb", 0), "rb": ("ra", -1),
                             "a": ("b", 0), "b": ("a", 0)})
    spec.add_generator("k", {"s": ("s", -1), "ra": ("ra", -1), "rb": ("rb", -1),
                             "a": ("a", 0), "b": ("b", 0)})
    return spec


@pytest.fixture(scope="session")
def swap_k():
    return build_swap_k()
