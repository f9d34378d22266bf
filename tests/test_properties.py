"""Property-based checks of the level sweep and the Jack weights on random
admissible inputs."""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmgraphs.exact import pochhammer
from harmgraphs.graphs import KINGMAN, SCHUR, YOUNG, dim, dim_closed_form, sweep
from harmgraphs.harmonic import JackZZ, check_harmonicity
from harmgraphs.interp import shifted_schur_at_diagram
from harmgraphs.partitions import Partition, partitions_of

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

rows = st.lists(st.integers(1, 8), max_size=4).map(lambda xs: Partition(sorted(xs, reverse=True)))
strict_rows = st.sets(st.integers(1, 8), max_size=4).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)
rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 9))
positive = st.builds(F, st.integers(1, 20), st.integers(1, 9))
small = st.integers(0, 9).flatmap(lambda n: st.sampled_from(partitions_of(n)))


@st.composite
def nested_pairs(draw):
    """A partition lam with |lam| <= 9 and a random mu inside it."""
    lam = draw(small)
    caps = [draw(st.integers(0, p)) for p in lam.parts]
    mu = [min(caps[: i + 1]) for i in range(len(caps))]
    return Partition(mu), lam


@PROPERTY
@given(st.sampled_from([YOUNG, KINGMAN]), rows)
def test_dim_matches_closed_form(kind, lam):
    assert dim(Partition(), lam, kind) == dim_closed_form(lam, kind)


@PROPERTY
@given(strict_rows)
def test_strict_dim_matches_closed_form(lam):
    assert dim(Partition(), lam, SCHUR) == dim_closed_form(lam, SCHUR)


@PROPERTY
@given(st.sampled_from([YOUNG, KINGMAN, SCHUR]), st.integers(0, 8))
def test_full_sweep_matches_closed_form(kind, top):
    for _, level_rows in sweep(kind, top):
        for lam, d, _ in level_rows:
            assert d == dim_closed_form(lam, kind)


@PROPERTY
@given(nested_pairs())
def test_dimension_ratio_identity(pair):
    mu, lam = pair
    k, n = mu.size, lam.size
    lhs = dim(mu, lam, YOUNG) / dim(Partition(), lam, YOUNG)
    rhs = (-1) ** k * shifted_schur_at_diagram(mu, lam) / pochhammer(F(-n), k)
    assert lhs == rhs


@PROPERTY
@given(rationals, rationals, positive)
def test_jack_family_is_harmonic(e, zz, theta):
    # JackZZ's phi is a closed product independent of the edge weights, so
    # the cover sums pin every Jack weight through level 6
    t = zz / theta
    assume(not (t.denominator == 1 and t <= 0))
    assert check_harmonicity(JackZZ(e, zz, theta), 6).ok
