import itertools
import random

import pytest

from confstrata.weights import (
    Generator,
    HypothesisRefusal,
    PresentationAlgebra,
    Relation,
    VarietyDescriptor,
    WeightMultiset,
    WeightedGradedSpace,
    affine_line,
    affine_space,
    check_pure,
    conf2_purity_report,
    descriptor_from_json,
    elliptic_curve,
    hilbert_series,
    kunneth_power,
    presentation,
    projective_line,
    purity_theorem_check,
    tate_twist,
    tensor,
    thom_relative,
)
from confstrata.weights import _Engine, _rank_basis, _standard_basis


def corrupted_curve():
    # H^1 carries weight 0: violates weight = degree
    return VarietyDescriptor("corrupted", 1, {0: {0: 1}, 1: {0: 2}, 2: {2: 1}}, True)


# -- purity: weight = degree ----------------------------------------------------

def test_check_pure_weight_equals_degree():
    space = WeightedGradedSpace({0: {0: 1}, 1: {1: 2}, 2: {2: 1}})
    assert check_pure(space).pure


def test_check_pure_reports_violation():
    space = WeightedGradedSpace({1: {0: 1}})
    report = check_pure(space)
    assert report.violations == ((1, 0, 1),)


def test_elliptic_descriptor_is_pure():
    assert check_pure(elliptic_curve().cohomology).pure


# -- twist ------------------------------------------------------------------------

def test_twist_by_zero():
    space = elliptic_curve().cohomology
    assert tate_twist(space, 0) == space


def test_twist_of_unit():
    unit = WeightedGradedSpace({0: {0: 1}})
    assert tate_twist(unit, 3).at(0) == WeightMultiset({6: 1})


def test_twist_additivity_random():
    rng = random.Random(5)
    for _ in range(25):
        data = {d: {rng.randint(-3, 6): rng.randint(1, 3)} for d in rng.sample(range(6), 3)}
        space = WeightedGradedSpace(data)
        a, b = rng.randint(-2, 4), rng.randint(-2, 4)
        assert tate_twist(space, a + b) == tate_twist(tate_twist(space, a), b)


# -- tensor -----------------------------------------------------------------------

def test_tensor_with_unit():
    unit = WeightedGradedSpace({0: {0: 1}})
    space = elliptic_curve().cohomology
    assert tensor(space, unit) == space
    assert tensor(unit, space) == space


def test_tensor_kunneth_count_by_hand():
    # degree-2 part of elliptic x elliptic: (0,2), (1,1), (2,0) -> 1 + 4 + 1 = 6
    e = elliptic_curve().cohomology
    by_hand = 0
    for i in range(3):
        by_hand += e.at(i).dim() * e.at(2 - i).dim()
    assert by_hand == 6
    assert tensor(e, e).at(2) == WeightMultiset({2: 6})


def test_tensor_preserves_purity():
    rng = random.Random(9)
    for _ in range(20):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        a = WeightedGradedSpace({d: {n: rng.randint(1, 2)} for d in range(rng.randint(1, 3))})
        b = WeightedGradedSpace({d: {m: rng.randint(1, 2)} for d in range(rng.randint(1, 3))})
        prod = tensor(a, b)
        for _, ws in prod.by_degree:
            assert ws.is_pure_of(n + m)


def test_union_of_pure_is_pure():
    a = WeightMultiset({3: 2})
    b = WeightMultiset({3: 5})
    assert a.union(b).is_pure_of(3)


# -- Künneth powers ------------------------------------------------------------------

def test_kunneth_power_base():
    e = elliptic_curve()
    assert kunneth_power(e, 1) == e.cohomology


def test_kunneth_power_affine():
    a = affine_space(2)
    cube = kunneth_power(a, 3)
    assert cube.degrees() == (0,)


def test_kunneth_power_elliptic_degree_one():
    assert kunneth_power(elliptic_curve(), 2).at(1) == WeightMultiset({1: 4})


def test_kunneth_power_requires_positive():
    with pytest.raises(ValueError):
        kunneth_power(elliptic_curve(), 0)


# -- Thom relative groups -------------------------------------------------------------

def test_thom_elliptic_k3():
    assert thom_relative(elliptic_curve(), 3) == WeightMultiset({3: 2})


def test_thom_bottom_degree():
    e = elliptic_curve()
    assert thom_relative(e, 2) == WeightMultiset({2: 1})


def test_thom_below_2d_empty():
    assert thom_relative(elliptic_curve(), 1) == WeightMultiset.empty()


def test_thom_pure_of_weight_k():
    for x in (elliptic_curve(), projective_line(), affine_space(2)):
        for k in range(2 * x.d, 2 * x.d + 5):
            ws = thom_relative(x, k)
            if ws:
                assert ws.is_pure_of(k)


# -- the two-point ledger --------------------------------------------------------------

def test_conf2_elliptic():
    report = conf2_purity_report(elliptic_curve())
    assert report.pure and report.weight == 2
    assert dict(report.relative)[2] == WeightMultiset({2: 1})
    assert dict(report.relative)[3] == WeightMultiset({3: 2})
    assert report.ker_alpha == WeightMultiset({2: 6})
    assert report.betti_interval == (6, 8)


def test_conf2_affine_space():
    report = conf2_purity_report(affine_space(1))
    assert report.pure and report.weight == 2
    # both degrees stay in the ledger, the empty relative group in degree 3 too
    assert report.relative == ((2, WeightMultiset({2: 1})), (3, WeightMultiset.empty()))
    assert hash(report) == hash(conf2_purity_report(affine_space(1)))
    # Künneth: H^2 of the square of the affine line vanishes
    assert report.ker_alpha == WeightMultiset.empty()
    assert report.betti_interval == (0, 2)


def test_conf2_refuses_impure_descriptor():
    with pytest.raises(HypothesisRefusal) as err:
        conf2_purity_report(corrupted_curve())
    assert (1, 0) in err.value.violations


def test_conf2_refuses_without_diagonal_flag():
    x = VarietyDescriptor("flagless", 1, {0: {0: 1}}, diagonal_class_vanishes=False)
    with pytest.raises(HypothesisRefusal):
        conf2_purity_report(x)


# -- presentations ----------------------------------------------------------------------

def test_presentation_n1_has_no_x_generators():
    algebra = presentation(elliptic_curve(), 1)
    assert all(not g.label.startswith("x") for g in algebra.generators)
    assert len(algebra.generators) == 3  # two degree-1 classes and one degree-2 class


def test_presentation_affine_n2():
    algebra = presentation(affine_line(), 2)
    assert [g.label for g in algebra.generators] == ["x1_2"]
    assert algebra.generators[0].degree == 2
    assert algebra.generators[0].weight == 2


def test_presentation_n3_x_generators():
    algebra = presentation(affine_line(), 3)
    assert [g.label for g in algebra.generators] == ["x1_2", "x1_3", "x2_3"]


def test_presentation_x_weight_tracks_dimension():
    algebra = presentation(affine_space(2), 2)
    assert algebra.generators[0].degree == 4
    assert algebra.generators[0].weight == 4


def test_presentation_requires_diagonal_flag():
    x = VarietyDescriptor("flagless", 1, {0: {0: 1}}, diagonal_class_vanishes=False)
    with pytest.raises(HypothesisRefusal):
        presentation(x, 2)


def test_relations_are_homogeneous():
    algebra = presentation(elliptic_curve(), 3)
    by_label = algebra.by_label()
    for rel in algebra.relations:
        degs = {sum(by_label[g].degree for g in word) for _, word in rel.terms}
        wts = {sum(by_label[g].weight for g in word) for _, word in rel.terms}
        assert len(degs) == 1 and len(wts) == 1


# -- Hilbert series -----------------------------------------------------------------------

def distinct_second_index_dims(n, max_deg):
    """Independent oracle: products of x_ij with pairwise distinct larger indices."""
    dims = [0] * (max_deg + 1)
    for r in range(n):
        for combo in itertools.combinations(range(2, n + 1), r):
            count = 1
            for j in combo:
                count *= j - 1
            if 2 * r <= max_deg:
                dims[2 * r] += count
    return dims


def test_hilbert_affine_n2():
    report = hilbert_series(presentation(affine_line(), 2), 4)
    assert report.dims() == [1, 0, 1, 0, 0]
    assert report.pure


def test_hilbert_affine_n3():
    report = hilbert_series(presentation(affine_line(), 3), 8)
    assert report.dims() == [1, 0, 3, 0, 2, 0, 0, 0, 0]


def test_hilbert_affine_matches_oracle():
    for n in (2, 3, 4, 5):
        report = hilbert_series(presentation(affine_line(), n), 8)
        assert report.dims() == distinct_second_index_dims(n, 8)


def test_hilbert_affine_plane_doubles_degrees():
    # generators sit in degree 2d = 4; counts match the oracle at 4k
    report = hilbert_series(presentation(affine_space(2), 3), 16)
    oracle = distinct_second_index_dims(3, 8)
    for k, expected in enumerate(oracle):
        assert report.dims()[2 * k] == expected


def test_hilbert_n1_is_poincare_polynomial():
    for x, poincare in ((elliptic_curve(), [1, 2, 1]), (projective_line(), [1, 0, 1])):
        report = hilbert_series(presentation(x, 1), 2 * x.d)
        assert report.dims() == poincare


def test_hilbert_weights_sum_generator_weights():
    report = hilbert_series(presentation(elliptic_curve(), 2), 5)
    for line in report.lines:
        if line.dim:
            assert line.weights.is_pure_of(line.degree)


def test_records_build_by_position_or_keyword_and_stay_frozen():
    u = Generator("u", 2, 0)
    assert u == Generator(label="u", degree=2, weight=0) and hash(u) == hash(Generator("u", 2, 0))
    assert repr(u) == "Generator(label='u', degree=2, weight=0)"
    for args, kwargs in ((("u", 2), {}), (("u", 2, 0, 1), {}), (("u", 2), {"label": "v"})):
        with pytest.raises(TypeError):
            Generator(*args, **kwargs)
    with pytest.raises(AttributeError):
        u.degree = 4
    with pytest.raises(ValueError, match="distinct"):
        PresentationAlgebra(relations=(), generators=(u, u))


def test_hilbert_detects_impure_monomials():
    # bypass the theorem gate: feed an impure generator directly
    algebra = PresentationAlgebra(
        generators=(Generator("u", 2, 0),),
        relations=(),
    )
    report = hilbert_series(algebra, 4)
    assert not report.pure
    assert report.first_violation == (2, 0, "u")


def non_pbw_algebra():
    """Even degree-2 generators a, b, c modulo a*c - b*b and a*b - b*c."""
    a, b, c = (Generator(label, 2, 2) for label in "abc")
    return PresentationAlgebra(
        generators=(a, b, c),
        relations=(Relation("r1", ((1, ("a", "c")), (-1, ("b", "b")))),
                   Relation("r2", ((1, ("a", "b")), (-1, ("b", "c"))))),
    )


def test_failed_certificate_falls_back_to_the_rank_loop():
    engine = _Engine(non_pbw_algebra())
    assert _standard_basis(engine, 6) is None
    assert hilbert_series(non_pbw_algebra(), 6).dims() == [1, 0, 3, 0, 4, 0, 4]
    # counting the monomials that avoid the leading words a*b and a*c would be wrong
    naive = engine.monomials(engine.forbidden | {(0, 1), (0, 2)}, 6)
    assert sum(deg == 6 for _, deg, _ in naive) == 5


BUILTIN_VARIETIES = [affine_line(), projective_line(), elliptic_curve(), affine_space(2)]


@pytest.mark.parametrize("x", BUILTIN_VARIETIES, ids=[x.name for x in BUILTIN_VARIETIES])
def test_certified_count_equals_the_rank_loop(x):
    for n in (1, 2, 3):
        engine = _Engine(presentation(x, n))
        N = 4 * x.d * n  # past the top degree, n * 2d
        count = _standard_basis(engine, N)
        assert count is not None
        assert list(count) == _rank_basis(engine, N)


def test_monomial_walk_matches_brute_force():
    algebra = presentation(elliptic_curve(), 3)
    engine = _Engine(algebra)
    avoid = engine.forbidden | {(0, 7), (4, 4)}
    for max_deg, max_len in ((5, 5), (9, 3)):
        walked = list(engine.monomials(avoid, max_deg, max_len))
        brute = []
        for length in range(max_len + 1):
            for mono in itertools.combinations_with_replacement(range(len(engine.gens)), length):
                deg = sum(engine.degree[g] for g in mono)
                if deg <= max_deg and not any(p in avoid for p in itertools.combinations(mono, 2)):
                    brute.append((mono, deg, sum(engine.weight[g] for g in mono)))
        assert walked == sorted(brute)


def test_hilbert_truncation_cap():
    # the degree cap lives in cli.CAPS; the library refuses only N < 0
    with pytest.raises(ValueError, match=r"^truncation degree must be non-negative$"):
        hilbert_series(presentation(affine_line(), 2), -1)
    assert hilbert_series(presentation(affine_line(), 2), 100).dims() == [1, 0, 1] + [0] * 98


def test_presentation_algebra_validates():
    with pytest.raises(ValueError):
        PresentationAlgebra(
            generators=(Generator("u", 1, 1), Generator("v", 2, 2)),
            relations=(Relation("bad", ((1, ("u",)), (1, ("v",)))),),
        )


# -- the purity verdict ---------------------------------------------------------------------

def test_purity_theorem_elliptic():
    verdict = purity_theorem_check(elliptic_curve(), 2, 6)
    assert verdict.pure
    assert verdict.first_violation is None


def test_purity_theorem_affine_n4():
    assert purity_theorem_check(affine_line(), 4, 8).pure


def test_purity_theorem_refuses_corrupted():
    with pytest.raises(HypothesisRefusal) as err:
        purity_theorem_check(corrupted_curve(), 2, 6)
    assert err.value.violations


# -- descriptors -----------------------------------------------------------------------------

def test_descriptor_validation():
    with pytest.raises(ValueError):
        VarietyDescriptor("bad", 1, {0: {0: 1}, 3: {3: 1}})  # degree above 2d
    with pytest.raises(ValueError):
        VarietyDescriptor("bad", 1, {0: {0: 2}})  # disconnected H^0


def test_descriptor_from_json_reads_a_literal():
    data = {"name": "elliptic", "d": 1, "q": 2, "diagonal_class_vanishes": True,
            "cohomology": {"0": [{"weight": 0, "mult": 1}], "1": [{"weight": 1, "mult": 2}],
                           "2": [{"weight": 2, "mult": 1}]}}
    e = elliptic_curve()
    for decoded in (descriptor_from_json(data),
                    descriptor_from_json({k: v for k, v in data.items() if k != "q"})):
        assert (decoded.name, decoded.d, decoded.cohomology, decoded.diagonal_class_vanishes) == (
            e.name, e.d, e.cohomology, True)


GOOD_H0 = {"0": [{"weight": 0, "mult": 1}]}
BAD_DESCRIPTORS = [
    ("top-level-list", [1, 2], "must be an object"),
    ("cohomology-list", {"name": "x", "d": 1, "cohomology": [[0, 1]]}, '"cohomology"'),
    ("d-string", {"name": "x", "d": "1", "cohomology": GOOD_H0}, '"d" must be an integer'),
    ("d-bool", {"name": "x", "d": True, "cohomology": GOOD_H0}, '"d" must be an integer'),
    ("q-list", {"name": "x", "d": 1, "q": [2], "cohomology": GOOD_H0}, '"q" must be an integer'),
    ("degree-not-int", {"name": "x", "d": 1, "cohomology": {"zero": GOOD_H0["0"]}},
     'cohomology["zero"]'),
    ("entries-object", {"name": "x", "d": 1, "cohomology": {"0": {"weight": 0, "mult": 1}}},
     'cohomology["0"] must be a list'),
    ("entry-int", {"name": "x", "d": 1, "cohomology": {"0": [5]}}, 'cohomology["0"] must be a list'),
    ("weight-string", {"name": "x", "d": 1, "cohomology": {"0": [{"weight": "0", "mult": 1}]}},
     'cohomology["0"][0]["weight"] must be an integer'),
    ("mult-float", {"name": "x", "d": 1, "cohomology": {"0": [{"weight": 0, "mult": 1.0}]}},
     'cohomology["0"][0]["mult"] must be an integer'),
    ("mult-missing", {"name": "x", "d": 1, "cohomology": {"0": [{"weight": 0}]}},
     'cohomology["0"][0]["mult"] must be an integer'),
    ("diagonal-flag-string", {"name": "x", "d": 1, "cohomology": GOOD_H0,
                              "diagonal_class_vanishes": "no"}, '"diagonal_class_vanishes"'),
    ("d-zero", {"name": "x", "d": 0, "cohomology": GOOD_H0}, "complex dimension must be positive"),
    ("mult-zero", {"name": "x", "d": 1, "cohomology": {"0": [{"weight": 0, "mult": 0}]}},
     "multiplicities must be positive"),
]


@pytest.mark.parametrize("name,data,field", BAD_DESCRIPTORS, ids=[b[0] for b in BAD_DESCRIPTORS])
def test_descriptor_from_json_names_the_bad_field(name, data, field):
    with pytest.raises(ValueError) as info:
        descriptor_from_json(data)
    assert field in str(info.value)


def test_weight_multiset_merges():
    ws = WeightMultiset([(1, 2), (1, 3), (0, 1)])
    assert ws.as_dict() == {0: 1, 1: 5}
    with pytest.raises(ValueError):
        WeightMultiset([(0, 0)])
