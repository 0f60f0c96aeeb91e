"""A seeded sweep of small input documents, valid and malformed, through the
command line: every one exits 0 or 1 with a message, never with a
traceback, and prints the same bytes on a second run."""

import json
import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from toricva import cli
from toricva.harness import polytope_fan
from toricva.hulls import affine_rank
from toricva.linalg import M, vec

COMMANDS = (
    ("analyze", "DOC", "--very-ample", "--json"),
    ("verify", "generation", "DOC"),
    ("hilbert", "DOC", "--sigma", "0", "--d", "D"),
)


@st.composite
def plane_fans(draw):
    """3 to 8 primitive rays in [-3, 3]^2, in angle order, each next one less
    than a half-turn on: a complete fan with cones (i, i + 1 mod k)."""
    primitive = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda v: math.gcd(*v) == 1
    )
    rays = sorted(
        draw(st.sets(primitive, min_size=3, max_size=8)), key=lambda v: math.atan2(v[1], v[0])
    )
    assume(all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in zip(rays, rays[1:] + rays[:1])))
    k = len(rays)
    return 2, [list(r) for r in rays], [[i, (i + 1) % k] for i in range(k)]


@st.composite
def space_fans(draw):
    """The normal fan of a lattice polytope on points of {-1, 0, 1}^3, when
    it has at most 8 rays, all in [-3, 3]^3."""
    cube = st.tuples(*[st.integers(-1, 1)] * 3)
    points = [vec(p, M) for p in sorted(draw(st.sets(cube, min_size=4, max_size=6)))]
    assume(affine_rank(points) == 3)
    fan, _ = polytope_fan(points)
    rays = [list(r.coords) for r in fan.rays]
    assume(len(rays) <= 8 and all(abs(c) <= 3 for r in rays for c in r))
    return 3, rays, [list(c) for c in fan.max_cones]


def _slots(doc):
    """Every scalar slot of the document, as (container, key)."""
    slots = [(doc, "rank")]
    for row in [*doc["rays"], *doc["max_cones"], *doc["divisors"].values()]:
        slots += [(row, j) for j in range(len(row))]
    return slots


def wrong_type(draw, doc):
    container, key = draw(st.sampled_from(_slots(doc)))
    container[key] = draw(st.sampled_from(["1", "x", True, False, 1.5, -0.0, None, [1]]))


def huge(draw, doc):
    container, key = draw(st.sampled_from(_slots(doc)))
    container[key] = draw(st.sampled_from([10**30, -(10**30)]))


def bad_index(draw, doc):
    cone = draw(st.sampled_from(doc["max_cones"]))
    k = len(doc["rays"])
    cone[draw(st.integers(0, len(cone) - 1))] = draw(st.sampled_from([-1, k, k + 5, cone[0]]))


def bad_ray(draw, doc):
    rays = doc["rays"]
    i = draw(st.integers(0, len(rays) - 1))
    rays[i] = draw(st.sampled_from([[0] * len(rays[i]), list(rays[i - 1])]))


def low_rank(draw, doc):
    doc["rank"] = draw(st.sampled_from([0, 1]))


def zero_denominator(draw, doc):
    coeffs = doc["divisors"]["D"]
    coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(st.sampled_from(["1/0", "0/0"]))


def missing_key(draw, doc):
    del doc[draw(st.sampled_from(["rank", "rays", "max_cones", "divisors"]))]


@st.composite
def documents(draw):
    """A small valid fan with a divisor D, then up to two malformations; a
    missing key comes last, after the slots it would remove."""
    rank, rays, cones = draw(st.one_of(plane_fans(), space_fans()))
    coeff = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/2", "2/3"]))
    doc = {
        "rank": rank,
        "rays": rays,
        "max_cones": cones,
        "divisors": {"D": draw(st.lists(coeff, min_size=len(rays), max_size=len(rays)))},
    }
    breaks = draw(
        st.lists(
            st.sampled_from(
                [wrong_type, huge, bad_index, bad_ray, low_rank, zero_denominator, missing_key]
            ),
            max_size=2,
            unique=True,
        )
    )
    for brk in sorted(breaks, key=lambda b: b is missing_key):
        brk(draw, doc)
    return doc


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(documents())
def test_documents_exit_cleanly_and_deterministically(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in COMMANDS:
        argv = [str(path) if a == "DOC" else a for a in argv]
        runs = []
        for _ in range(2):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1), (argv, doc, captured.err)
            assert "Traceback" not in captured.err
            if code == 1:
                assert captured.err.startswith("toricva: input error: "), captured.err
            runs.append((code, captured.out))
        assert runs[0] == runs[1], (argv, doc)
