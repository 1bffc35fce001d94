"""Command-line layer: expression grammar, scenario files, exit codes."""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orbichern.cli as cli
from orbichern.exactnum import Cyclotomic
from orbichern.reps import character
from orbichern.cli import (
    CycParseError,
    LoadError,
    load_scenario,
    main,
    parse_cyclotomic,
    parse_scenario,
)

E = Cyclotomic.root_of_unity
FIXTURES = Path(__file__).parent / "fixtures"


def fix(name):
    return str(FIXTURES / name)


# -- expression grammar ------------------------------------------------------


def test_parse_single_root():
    assert parse_cyclotomic("E(4)") == E(4)


def test_parse_mixed_expression():
    # 1/2 - E(3)^2 = 1/2 - (-1 - E(3)) = 3/2 + E(3)
    got = parse_cyclotomic("1/2 - E(3)^2")
    assert got == Cyclotomic.from_rational(Fraction(3, 2)) + E(3)


def test_parse_whitespace_insensitive():
    a = parse_cyclotomic("1/2-E(3)^2")
    b = parse_cyclotomic("  1/2  -  E( 3 ) ^ 2  ")
    assert a == b


def test_parse_products_and_parens():
    assert parse_cyclotomic("(1 + E(8)) * 2") == (Cyclotomic.one() + E(8)) * 2
    assert parse_cyclotomic("2*3/4") == Cyclotomic.from_rational(Fraction(3, 2))
    assert parse_cyclotomic("-E(4)") == -E(4)
    assert parse_cyclotomic("E(12)^7") == E(12, 7)


def test_parse_error_positions():
    for text, pos in [
        ("E(0)", 0),
        ("1/0", 2),
        ("2 +", 3),
        ("E(4", 3),
        ("", 0),
        ("1 ** 2", 3),
        ("1 + 2)", 5),
    ]:
        with pytest.raises(CycParseError) as err:
            parse_cyclotomic(text)
        assert err.value.position == pos, text


def test_parse_rejects_non_string():
    with pytest.raises(CycParseError):
        parse_cyclotomic(7)


def test_printer_round_trip_thousand_values():
    rng = random.Random(0xC1C10)
    orders = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    for _ in range(1000):
        n = rng.choice(orders)
        v = Cyclotomic.from_rational(
            Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        )
        for _ in range(rng.randint(0, 4)):
            coeff = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            v = v + Cyclotomic.from_rational(coeff) * E(n, rng.randrange(n))
        assert parse_cyclotomic(str(v)) == v


# -- scenario loading --------------------------------------------------------


def test_minimal_scenario_loads():
    sc = load_scenario(fix("trivial_group.json"))
    assert set(sc.groups) == {"e"}
    assert sc.groups["e"].size == 1


def test_s3_scenario_loads_with_all_pieces():
    sc = load_scenario(fix("s3_standard.json"))
    assert sc.groups["S3"].size == 6
    assert sc.representations["std"].dim == 2
    assert sc.embeddings["C2inS3"].target is sc.groups["S3"]
    assert sc.charts["X"].dim == 2
    assert len(sc.blocks["rrg_iso"]) == 1


def test_load_rejects_non_homomorphic_matrices():
    data = {
        "groups": {"C2": {"cyclic": 2}},
        "representations": {"bad": {"group": "C2", "matrices": [[["1"]], [["2"]]]}},
    }
    with pytest.raises(LoadError) as err:
        parse_scenario(data)
    assert "pair (1, 1)" in str(err.value)
    assert err.value.pointer == "/representations/bad"


def test_load_rejects_unknown_reference():
    data = {"representations": {"r": {"group": "nope", "trivial": True}}}
    with pytest.raises(LoadError) as err:
        parse_scenario(data)
    assert err.value.pointer == "/representations/r/group"


def test_load_rejects_bad_expression_with_pointer():
    data = {
        "groups": {"C1": {"cyclic": 1}},
        "representations": {"r": {"group": "C1", "values": ["E(0)"]}},
    }
    with pytest.raises(LoadError) as err:
        parse_scenario(data)
    assert err.value.pointer == "/representations/r/values/0"


def test_load_rejects_wrong_schema_version():
    with pytest.raises(LoadError):
        parse_scenario({"schema_version": 99})


def test_load_rejects_non_group_table():
    data = {"groups": {"G": {"table": [[0, 1], [1, 1]]}}}
    with pytest.raises(LoadError) as err:
        parse_scenario(data)
    assert err.value.pointer == "/groups/G"


def test_load_rejects_invariant_violation_in_rrg_block():
    # an inclusion that is not equivariant is refused at load by default
    data = {
        "groups": {"C2": {"cyclic": 2}},
        "representations": {
            "triv": {"group": "C2", "trivial": True},
            "sign": {"group": "C2", "values": ["1", "-1"]},
        },
        "complexes": {"L": {"group": "C2", "pieces": ["triv"], "differentials": []}},
        "rrg_zero_section": [
            {
                "group": "C2",
                "sub": "triv",
                "ambient": "sign",
                "inclusion": [["1"]],
                "complex": "L",
            }
        ],
    }
    with pytest.raises(LoadError) as err:
        parse_scenario(data)
    assert "equivariant" in str(err.value)


# -- command execution -------------------------------------------------------


def test_rrg_iso_table_shows_induced_values_twice(capsys):
    code = main(["rrg-iso", fix("s3_standard.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "lhs=3  rhs=3" in out
    assert "lhs=1  rhs=1" in out
    assert "lhs=0  rhs=0" in out
    assert out.strip().endswith("OK")


def test_todd_truncated_series(capsys):
    code = main(["todd", fix("todd_line.json"), "--trunc", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 + 1/2*x0 + 1/12*x0^2" in out


def test_induce_matches_both_routes(capsys):
    code = main(["induce", fix("s3_standard.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "lhs=3  rhs=3" in out


def test_chern_degree_zero_equals_supertrace(capsys):
    code = main(["chern", fix("s3_standard.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "fixed dim 2: 2" in out
    assert "fixed dim 1: 0" in out
    assert "fixed dim 0: -1" in out


def test_inertia_two_point_components(capsys):
    code = main(["inertia", fix("s3_standard.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("orbits pt/2") == 2
    assert "model group order 6" in out
    assert "model group order 2" in out


def test_groupoid_check_suite_passes(capsys):
    code = main(["groupoid-check", fix("s3_standard.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "graph-embedding: pass" in out
    assert "factorize-round-trip: pass" in out
    assert "morita-decomposition: pass" in out


def test_action_block_builds_its_groupoids_once(monkeypatch):
    """One groupoid-check action block, S4 on 4 points: the translation
    groupoid of S4 and the inertia groupoid are each built once, and the
    Morita decomposition reads the inertia the block already built."""
    from orbichern import groupoids

    sc = parse_scenario({
        "groups": {"S4": {"symmetric": 4}},
        "actions": {"nat": {"group": "S4", "points": 4, "images": [
            list(p) for p in sorted(itertools.permutations(range(4)))
        ]}},
        "groupoid_checks": [{"action": "nat"}],
    })
    s4 = sc.groups["S4"]
    calls = {"translation": 0, "inertia": 0}
    translation = groupoids.FiniteGroupoid.translation
    inertia_init = groupoids.InertiaGroupoid.__init__

    def counted_translation(group, num_points, images):
        calls["translation"] += group is s4
        return translation(group, num_points, images)

    def counted_inertia(self, base):
        calls["inertia"] += 1
        inertia_init(self, base)

    monkeypatch.setattr(
        groupoids.FiniteGroupoid, "translation", staticmethod(counted_translation)
    )
    monkeypatch.setattr(groupoids.InertiaGroupoid, "__init__", counted_inertia)
    code, report = cli.run("groupoid-check", sc)
    assert code == 0
    assert report["blocks"][0]["items"] == [
        {"check": "action-axioms", "status": "pass", "detail": "4 objects, 96 arrows"},
        {"check": "inertia-axioms", "status": "pass", "detail": "24 loop objects"},
        {"check": "morita-decomposition", "status": "pass", "detail": "3 components"},
    ]
    assert calls == {"translation": 1, "inertia": 1}


def test_general_fixture_value_four(capsys):
    code = main(["rrg-general", fix("c2_in_c4_general.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "lhs=4  rhs=4" in out
    assert "td-pullback" in out


def test_zero_section_fixture_passes(capsys):
    code = main(["rrg-zero-section", fix("zero_section_reflection.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "lhs=2  rhs=2" in out


CORRUPTED = [
    ("rrg-iso", "corrupt_weight_one.json"),
    ("rrg-iso", "corrupt_weight_inverted.json"),
    ("rrg-general", "corrupt_inversion_direct.json"),
    ("rrg-zero-section", "corrupt_euler_omit.json"),
    ("rrg-iso", "corrupt_nonequivariant_diff.json"),
    ("groupoid-check", "corrupt_action.json"),
]


@pytest.mark.parametrize("command,fixture", CORRUPTED)
def test_corrupted_fixture_fails_with_exit_one(command, fixture, capsys):
    code = main([command, fix(fixture)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.strip().endswith("FAILED")


def test_corrupted_zero_section_names_first_monomial(capsys):
    code = main(["rrg-zero-section", fix("corrupt_euler_omit.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "series mismatch at exponent" in out


@pytest.mark.parametrize("command", ["groupoid-check", "inertia"])
def test_corrupted_action_names_its_witness(command, capsys):
    code = main([command, fix("corrupt_action.json")])
    out = capsys.readouterr().out
    assert code == 1
    # element 1 acts as the identity, so 1.(2.0) = 2.0 = 1 while (1*2).0 = 2
    assert (
        "(not an action: composition fails at g=1, h=2, point 0: g.(h.x) = 1, (gh).x = 2)"
        in out
    )


def test_chern_of_an_unchecked_complex_reports_its_first_violation(tmp_path, capsys):
    def edit(data):
        data["complexes"]["stdK"] = {
            "group": "S3", "pieces": ["std", "std"],
            "differentials": [[["1", "0"], ["0", "2"]]], "skip_validation": True,
        }

    path = _edited_copy(tmp_path, "s3_standard.json", edit)
    code = main(["chern", path])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (
        "chern chern[0]: fail  (differential at degree 0 is not equivariant at element 1)\n"
        "FAILED\n"
    )


def _edited_copy(tmp_path, name, edit):
    data = json.loads((FIXTURES / name).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _set_knob(block_key, knob, value):
    def edit(data):
        data[block_key][0][knob] = value

    return edit


def _set_model_line(value):
    def edit(data):
        data["models"]["one_line"]["lines"][0] = value

    return edit


@pytest.mark.parametrize(
    "command,fixture,edit,pointer",
    [
        ("rrg-zero-section", "zero_section_reflection.json",
         _set_knob("rrg_zero_section", "euler_factor", "sometimes"),
         "/rrg_zero_section/0/euler_factor"),
        ("rrg-iso", "s3_standard.json",
         _set_knob("rrg_iso", "weight", "bogus"), "/rrg_iso/0/weight"),
        ("rrg-general", "c2_in_c4_general.json",
         _set_knob("rrg_general", "inversion", "bogus"), "/rrg_general/0/inversion"),
        ("todd", "todd_line.json", _set_model_line("0"), "/models/one_line/lines/0"),
        ("todd", "todd_line.json", _set_model_line("2"), "/models/one_line/lines/0"),
    ],
    ids=["euler_factor", "weight", "inversion", "zero_line", "non_root_line"],
)
def test_load_rejects_bad_value_with_pointer(tmp_path, capsys, command, fixture, edit, pointer):
    code = main([command, _edited_copy(tmp_path, fixture, edit)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("load error: ")
    assert "(at %s)" % pointer in captured.err


def test_load_caps_group_order_before_building(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"groups": {"G": {"cyclic": 49}}}))
    code = main(["inertia", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "(at /groups/G/cyclic)" in captured.err
    data = {"groups": {"G": {"permutations": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]}}}
    with pytest.raises(LoadError) as err:
        parse_scenario(data)  # S5, order 120
    assert err.value.pointer == "/groups/G"
    assert parse_scenario({"groups": {"G": {"cyclic": 48}}}).groups["G"].size == 48


@pytest.mark.parametrize(
    "body,message,pointer",
    [
        ({"dihedral": 2}, "dihedral group needs n >= 3", "/groups/G/dihedral"),
        ({"dihedral": -4}, "dihedral group needs n >= 3", "/groups/G/dihedral"),
        ({"symmetric": -3}, "symmetric group needs n >= 0", "/groups/G/symmetric"),
        ({"cyclic": 0}, "group order must be between 1 and 48", "/groups/G/cyclic"),
    ],
    ids=["D2", "D-4", "S-3", "C0"],
)
def test_load_refuses_a_degenerate_group_order_at_its_field(tmp_path, capsys, body, message,
                                                            pointer):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"groups": {"G": body}}))
    code = main(["inertia", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "load error: %s (at %s)\n" % (message, pointer)


def test_load_quaternion_group():
    q8 = parse_scenario({"groups": {"Q": {"quaternion": True}}}).groups["Q"]
    assert q8.size == 8
    assert any(q8.mul(a, b) != q8.mul(b, a) for a in q8.elements() for b in q8.elements())
    assert q8.conjugacy().sizes == (1, 1, 2, 2, 2)
    assert [q8.order_of(x) for x in q8.elements()] == [1, 2, 4, 4, 4, 4, 4, 4]


def test_load_permutation_representation():
    s3 = {"S3": {"symmetric": 3}}
    # S3 on its three points: each element is its own list of images
    images = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
    reps = {"P": {"group": "S3", "permutation": images}}
    sc = parse_scenario({"groups": s3, "representations": reps})
    perm = sc.representations["P"]
    assert sc.groups["S3"].names == tuple(str(tuple(p)) for p in images)
    assert perm.dim == 3 and perm.validated
    assert [str(v) for v in character(perm).values] == ["3", "1", "0"]
    # images that are not an action fail at their first pair, named alone
    reps["P"]["permutation"] = [images[0]] + [images[1]] * 5
    with pytest.raises(LoadError) as err:
        parse_scenario({"groups": s3, "representations": reps})
    assert str(err.value) == "multiplicativity fails at pair (1, 2) (at /representations/P)"


def _cyclic_images(order, orbits):
    """C_order acting by translation on consecutive orbits of the given sizes."""
    images = []
    for g in range(order):
        row, base = [], 0
        for size in orbits:
            row += [base + (x + g) % size for x in range(size)]
            base += size
        images.append(row)
    return images


def test_permutation_points_cap_admits_its_bound():
    """The worst file at the cap: order 48 acting on MAX_POINTS points, whose
    check multiplies 48^2 pairs of 16 x 16 matrices."""
    assert cli.MAX_POINTS == 16
    doc = {
        "groups": {"C48": {"cyclic": 48}},
        "representations": {"P": {"group": "C48", "permutation": _cyclic_images(48, (8, 8))}},
    }
    perm = parse_scenario(doc).representations["P"]
    assert perm.dim == cli.MAX_POINTS and perm.validated


@pytest.mark.parametrize(
    "order, orbits, long_row",
    [
        (48, (8, 8, 1), 0),  # one point past the cap, every row
        (2, (2,) * 500, 0),  # 1000 points over C2
        (2, (2,), 1),  # a short identity row, a long row after it
    ],
    ids=["order_48", "c2_1000_points", "second_row"],
)
def test_permutation_points_cap_refuses_a_longer_row(monkeypatch, order, orbits, long_row):
    images = _cyclic_images(order, orbits)
    if long_row:
        images[long_row] = list(range(cli.MAX_POINTS + 1))
    doc = {
        "groups": {"C": {"cyclic": order}},
        "representations": {"P": {"group": "C", "permutation": images}},
    }
    built = []
    monkeypatch.setattr(
        cli.Representation, "permutation", staticmethod(lambda *args: built.append(args))
    )
    with pytest.raises(LoadError) as err:
        parse_scenario(doc)
    assert str(err.value) == "image row exceeds the cap of %d points (at %s)" % (
        cli.MAX_POINTS, "/representations/P/permutation/%d" % long_row
    )
    assert not built


def test_load_embedding_by_elements_registers_its_source():
    groups = {"S3": {"symmetric": 3}}
    emb = {"target": "S3", "elements": [0, 3, 4], "register_source": "C3"}
    sc = parse_scenario({"groups": groups, "embeddings": {"C3inS3": emb}})
    c3 = sc.groups["C3"]
    assert c3 is sc.embeddings["C3inS3"].source and c3.size == 3
    assert sc.embeddings["C3inS3"].index == 2
    emb["register_source"] = "S3"
    with pytest.raises(LoadError) as err:
        parse_scenario({"groups": groups, "embeddings": {"C3inS3": emb}})
    assert str(err.value) == (
        "group name 'S3' already taken (at /embeddings/C3inS3/register_source)"
    )


def test_groupoid_check_of_a_self_embedding_checks_inertia(tmp_path, capsys):
    """S3 in itself preserves stabilizers, so its inertia is checked too."""
    path = tmp_path / "s3_in_s3.json"
    path.write_text(json.dumps({
        "groups": {"S3": {"symmetric": 3}},
        "embeddings": {"S3inS3": {"target": "S3", "elements": list(range(6))}},
        "groupoid_checks": [{"embedding": "S3inS3"}],
    }))
    code = main(["groupoid-check", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "  inertia-stabilizers: pass" in out
    assert "  factorize-round-trip: pass" in out


@pytest.mark.parametrize(
    "section,message,pointer",
    [
        ({"complexes": {"K": {"group": "C2", "pieces": []}}},
         "a complex needs at least one piece", "/complexes/K/pieces"),
        ({"actions": {"A": {"group": "C2", "points": -1, "images": [[], []]}}},
         "points must be nonnegative", "/actions/A/points"),
    ],
    ids=["empty_complex", "negative_points"],
)
def test_load_rejects_empty_shapes_at_their_field(tmp_path, capsys, section, message, pointer):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"groups": {"C2": {"cyclic": 2}}, **section}))
    code = main(["inertia", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "load error: %s (at %s)\n" % (message, pointer)


_C1_C2 = {"C1": {"cyclic": 1}, "C2": {"cyclic": 2}}
_REPS = {"T1": {"group": "C1", "trivial": True}, "T2": {"group": "C2", "trivial": True}}


@pytest.mark.parametrize(
    "doc,message,pointer",
    [
        ({"groups": {"G": {"table": [[0]] * 49}}},
         "group order exceeds the scenario cap of 48", "/groups/G/table"),
        ({"groups": {"G": {"table": [[0]], "names": ["e", "f"]}}},
         "need one name per element", "/groups/G/names"),
        ({"groups": {"G": {"table": [[0]], "names": [0]}}},
         "expected a string", "/groups/G/names/0"),
        ({"groups": {"G": {}}},
         "group needs one of: table, permutations, cyclic, symmetric, dihedral, quaternion",
         "/groups/G"),
        ({"groups": _C1_C2, "embeddings": {"E": {"target": "C2"}}},
         "embedding needs either elements or source+mapping", "/embeddings/E"),
        ({"groups": _C1_C2, "representations": _REPS,
          "complexes": {"K": {"group": "C1", "pieces": ["T1", "T2"]}}},
         "piece lives over a different group", "/complexes/K/pieces/1"),
        ({"groups": _C1_C2, "actions": {"A": {"group": "C2", "natural": True}}},
         "natural action needs a group declared by permutations", "/actions/A/natural"),
        ({"groups": _C1_C2, "representations": _REPS, "charts": {"X": {"group": "C1"}}},
         "missing 'action'", "/charts/X/action"),
        ({"groups": _C1_C2, "representations": _REPS,
          "embeddings": {"E": {"source": "C1", "target": "C2", "mapping": [0]}},
          "induce": [{"embedding": "E", "representation": "T2"}]},
         "representation must live over the embedding source", "/induce/0/representation"),
        ({"groups": _C1_C2, "representations": _REPS,
          "charts": {"X": {"group": "C2", "action": "T2"}},
          "complexes": {"K": {"group": "C1", "pieces": ["T1"]}},
          "chern": [{"chart": "X", "complex": "K"}]},
         "complex must live over the chart group", "/chern/0/complex"),
        ({"groupoid_checks": [{}]},
         "groupoid check needs an action or an embedding", "/groupoid_checks/0"),
        ({"groupoid_checks": [{"label": 7, "action": "A"}]},
         "expected a string", "/groupoid_checks/0/label"),
        ({"models": {"M": {"lines": ["1"], "trunc": None}}},
         "expected an integer", "/models/M/trunc"),
    ],
    ids=["table_cap", "names_length", "name_kind", "no_variant", "no_embedding_form",
         "piece_group", "natural", "missing_ref", "induce_group", "chern_group",
         "no_check_form", "label_kind", "null_trunc"],
)
def test_load_refuses_at_the_field_it_reads(tmp_path, capsys, doc, message, pointer):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    code = main(["inertia", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "load error: %s (at %s)\n" % (message, pointer)


def _refused_group_pointer(tmp_path, capsys, name):
    """The pointer of the load error of a group `name` declared {"cyclic": 0}."""
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"groups": {name: {"cyclic": 0}}}))
    assert main(["inertia", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("load error: group order must be between 1 and 48 (at ")
    return err[err.rindex("(at ") + 4:].rstrip(")\n")


@pytest.mark.parametrize(
    "name,token", [("a/b", "a~1b"), ("a/", "a~1"), ("/", "~1")],
    ids=["inner", "trailing", "alone"],
)
def test_load_error_pointer_escapes_slash(tmp_path, capsys, name, token):
    assert _refused_group_pointer(tmp_path, capsys, name) == "/groups/%s/cyclic" % token


@pytest.mark.parametrize(
    "name,token",
    # "~" is escaped before "/", so "~1" in a name stays two characters
    [("a~b", "a~0b"), ("a~1", "a~01"), ("~/", "~0~1")],
    ids=["inner", "escape_lookalike", "with_slash"],
)
def test_load_error_pointer_escapes_tilde(tmp_path, capsys, name, token):
    assert _refused_group_pointer(tmp_path, capsys, name) == "/groups/%s/cyclic" % token


def test_python_dash_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orbichern", "todd", fix("todd_line.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.strip().endswith("OK")


def test_groupoid_check_at_the_order_cap_stays_small(tmp_path):
    """S4 x C2 (order 48) embedded in itself: the graph lands in a product
    with 48^2 arrows, whose composition table nothing reads.  The child
    reports its own peak resident set in kB, the VmHWM of its status file:
    ru_maxrss would carry the peak of this test process across exec."""
    import os
    import subprocess
    import sys

    path = tmp_path / "g48.json"
    path.write_text(json.dumps({
        "groups": {"G": {"permutations": [[1, 2, 3, 0, 4, 5], [1, 0, 2, 3, 4, 5],
                                          [0, 1, 2, 3, 5, 4]]}},
        "embeddings": {"GinG": {"target": "G", "elements": list(range(48))}},
        "groupoid_checks": [{"embedding": "GinG"}],
    }))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = (
        "import sys\n"
        "from orbichern.cli import main\n"
        "code = main(['groupoid-check', sys.argv[1]])\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert "  graph-embedding: pass" in out
    assert int(out[-1]) < 150 * 1024


def test_corrupted_differential_message(capsys):
    code = main(["rrg-iso", fix("corrupt_nonequivariant_diff.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "not equivariant" in out


def test_json_report_of_a_passing_block(capsys):
    code = main(["rrg-iso", fix("s3_standard.json"), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["passed"] is True
    check = report["blocks"][0]["checks"][0]
    assert check["first_failure"] is None
    assert [e["lhs"] for e in check["classes"]] == ["3", "1", "0"]


def test_json_failure_carries_first_failure(capsys):
    code = main(["rrg-iso", fix("corrupt_weight_one.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    failure = report["blocks"][0]["checks"][0]["first_failure"]
    assert failure is not None and failure["status"] == "fail"


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate", "x.json"]) == 2


def test_missing_file_is_load_error(capsys):
    assert main(["rrg-iso", str(FIXTURES / "no_such_file.json")]) == 2


def test_malformed_json_is_load_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["induce", str(p)]) == 2


def test_negative_trunc_is_usage_error(capsys):
    assert main(["todd", fix("todd_line.json"), "--trunc", "-1"]) == 2


def test_parallel_option_is_gone(capsys):
    assert main(["rrg-iso", fix("s3_standard.json"), "--parallel", "2"]) == 2
    assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err


def _set_top_trunc(block_key, value):
    """Set the top-level trunc and drop the first block's own, so it applies."""

    def edit(data):
        data[block_key][0].pop("trunc", None)
        data["trunc"] = value

    return edit


def _set_model_trunc(value):
    def edit(data):
        data["models"]["one_line"]["trunc"] = value

    return edit


@pytest.mark.parametrize(
    "command,fixture,edit,pointer",
    [
        ("chern", "s3_standard.json", _set_top_trunc("chern", -1), "/trunc"),
        ("todd", "todd_line.json", _set_model_trunc(-1), "/models/one_line/trunc"),
        ("todd", "todd_line.json", _set_knob("todd", "trunc", -1), "/todd/0/trunc"),
        ("chern", "s3_standard.json", _set_knob("chern", "trunc", -1), "/chern/0/trunc"),
    ],
    ids=["top_level", "model", "todd_block", "chern_block"],
)
def test_negative_file_trunc_is_load_error(tmp_path, capsys, command, fixture, edit, pointer):
    code = main([command, _edited_copy(tmp_path, fixture, edit)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "load error: truncation degree must be nonnegative (at %s)\n" % pointer
    )


@pytest.mark.parametrize(
    "command,fixture,edit,pointer",
    [
        ("todd", "todd_line.json", _set_knob("todd", "trunc", 256), "/todd/0/trunc"),
        ("todd", "todd_line.json", _set_model_trunc(256), "/models/one_line/trunc"),
        ("rrg-zero-section", "zero_section_reflection.json",
         _set_knob("rrg_zero_section", "trunc", 256), "/rrg_zero_section/0/trunc"),
        ("rrg-general", "c2_in_c4_general.json",
         _set_top_trunc("rrg_general", 256), "/trunc"),
    ],
    ids=["todd_block", "model", "zero_section_block", "general_top_level"],
)
def test_file_trunc_past_the_monomial_cap_is_load_error(
    tmp_path, capsys, command, fixture, edit, pointer
):
    # one variable: C(1 + 256, 256) = 257 monomials, one more than the cap
    code = main([command, _edited_copy(tmp_path, fixture, edit)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "load error: truncation degree 256 in 1 variables exceeds the cap of 256"
        " monomials (at %s)\n" % pointer
    )


@pytest.mark.parametrize(
    "command,fixture,pointer",
    [
        ("todd", "todd_line.json", "/todd/0"),
        ("rrg-zero-section", "zero_section_reflection.json", "/rrg_zero_section/0"),
        ("rrg-general", "c2_in_c4_general.json", "/rrg_general/0"),
    ],
)
def test_trunc_option_past_the_monomial_cap_is_usage_error(
    monkeypatch, capsys, command, fixture, pointer
):
    ran = []
    for check in ("todd_delocalized", "check_zero_section", "check_general_degree0"):
        monkeypatch.setattr(cli, check, lambda *a, **k: ran.append(a))
    code = main([command, fix(fixture), "--trunc", "800"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: --trunc 800 in 1 variables exceeds the cap of 256 monomials (at %s)\n"
        % pointer
    )
    assert ran == []


def test_monomial_cap_admits_its_bound(capsys):
    # C(1 + 255, 255) = 256 monomials: the largest truncation of one line
    code = main(["todd", fix("todd_line.json"), "--trunc", "255", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["blocks"][0]["trunc"] == 255


def test_non_utf8_file_is_load_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{}")
    code = main(["todd", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("load error: not UTF-8 text")
    assert captured.err.rstrip().endswith("(at /)")


def test_deeply_nested_json_is_load_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000)
    code = main(["todd", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "load error: invalid JSON: nested too deeply (at /)\n"


def _edited_text(edit):
    def rewrite(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)

    return rewrite


def _huge_trunc(text):
    """The file text with a 5000-digit top-level trunc, past the digit limit
    of the interpreter's int conversion."""
    return text.rstrip()[:-1] + ', "trunc": %s}' % ("1" * 5000)


@pytest.mark.parametrize(
    "rewrite,message",
    [
        (_edited_text(_set_model_line("1" * 5000)),
         "parse error at position 0: integer longer than %d digits" % cli.MAX_DIGITS),
        (_edited_text(_set_model_line("(" * 5000 + "1" + ")" * 5000)),
         "parse error at position %d: parentheses nested deeper than %d"
         % (cli.MAX_NESTING, cli.MAX_NESTING)),
        (_huge_trunc, "invalid JSON: "),
    ],
    ids=["long_integer", "deep_parentheses", "long_json_integer"],
)
def test_oversized_literals_are_load_errors(tmp_path, capsys, rewrite, message):
    path = tmp_path / "big.json"
    path.write_text(rewrite((FIXTURES / "todd_line.json").read_text()))
    code = main(["todd", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("load error: " + message)


def test_expression_caps_admit_their_bounds():
    digits = "1" * cli.MAX_DIGITS
    assert parse_cyclotomic(digits) == Cyclotomic.from_rational(int(digits))
    nested = "(" * cli.MAX_NESTING + "E(4)" + ")" * cli.MAX_NESTING
    assert parse_cyclotomic(nested) == E(4)


def _c(n, k=1):
    """The text of E(n)^k."""
    return "E(%d)^%d" % (n, k)


@pytest.mark.parametrize(
    "doc,message,pointer",
    [
        ({"models": {"M": {"lines": ["E(100000)"]}}},
         "parse error at position 0: root of unity takes the field past degree 16",
         "/models/M/lines/0"),
        ({"models": {"A": {"lines": ["E(97)"]}, "B": {"lines": ["E(89)"]}}},
         "parse error at position 0: root of unity takes the field past degree 16",
         "/models/A/lines/0"),
        ({"models": {"M": {"lines": ["E(17)*E(16)"]}}},
         "parse error at position 6: root of unity takes the field past degree 16",
         "/models/M/lines/0"),
        ({"models": {"A": {"lines": ["E(17)"]}, "B": {"lines": ["1", "-E(16)"]}}},
         "field Q(zeta_272) exceeds the cap of degree 16", "/models/B/lines/1"),
        ({"groups": {"C": {"cyclic": 4}},
          "representations": {"R": {"group": "C", "values": [_c(4, k) for k in range(4)]}},
          "models": {"M": {"lines": ["E(17)"]}}},
         "field Q(zeta_68) exceeds the cap of degree 16", "/models/M/lines/0"),
        ({"groups": {"C": {"cyclic": 47}},
          "representations": {"T": {"group": "C", "trivial": True}}},
         "field Q(zeta_47) exceeds the cap of degree 16", "/representations/T/group"),
    ],
    ids=["huge_token", "two_primes", "within_one_value", "across_values",
         "across_sections", "group_exponent"],
)
def test_field_cap_refuses_at_the_crossing_value(tmp_path, capsys, doc, message, pointer):
    """The file's field Q(zeta_L), L the lcm of its values' orders and of
    its represented groups' exponents, stays within degree MAX_FIELD_DEGREE;
    the value (or token) that takes it past is refused before any block."""
    assert cli.MAX_FIELD_DEGREE == 16
    path = tmp_path / "field.json"
    path.write_text(json.dumps(dict(doc, todd=[])))
    t0 = time.perf_counter()
    code = main(["todd", str(path)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "load error: %s (at %s)\n" % (message, pointer)
    assert elapsed < 1.0


def test_field_cap_admits_its_bound():
    """Every field of degree 16 parses, and a file may mix fields whose
    lcm keeps the degree at 16."""
    for n in (17, 32, 34, 40, 48, 60):
        assert parse_cyclotomic("E(%d)" % n) == E(n)
    sc = parse_scenario({
        "groups": {"C": {"cyclic": 48}},
        "representations": {"R": {"group": "C", "values": [_c(48, k) for k in range(48)]}},
        "models": {"M": {"lines": ["E(16)", "E(3)", "-E(4)"]}},
    })
    assert sc.field == 48


def test_slowest_command_at_the_field_cap_stays_within_ten_seconds(tmp_path, capsys):
    """The cap's guard, the slowest command measured at degree 16: todd on
    one line in Q(zeta_17) at truncation 255, the deepest the monomial cap
    allows for one variable.  It took 3.1-3.4 s in a fresh process (Python
    3.11, 2-vCPU Xeon); the same line in Q(zeta_34) or Q(zeta_60) took as
    long, other powers of zeta_17 less, and E(31), of degree 30, 8.6 s."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "models": {"M": {"lines": ["E(17)"], "trunc": 255}},
        "todd": [{"model": "M"}],
    }))
    t0 = time.perf_counter()
    code = main(["todd", str(path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("todd todd[0]: pass\n")
    assert elapsed < 10.0, elapsed


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(model):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "todd_delocalized", broken)
    code = main(["todd", fix("todd_line.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def _count_builds(monkeypatch, class_name):
    """Record the arguments of every build of an rrg scenario class."""
    real = getattr(cli, class_name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, class_name, counting)
    return calls


@pytest.mark.parametrize(
    "command,fixture,class_name",
    [
        ("rrg-iso", "s3_standard.json", "IsoSpatialScenario"),
        ("rrg-zero-section", "zero_section_reflection.json", "ZeroSectionScenario"),
        ("rrg-general", "c2_in_c4_general.json", "GeneralScenario"),
    ],
)
def test_rrg_scenario_built_once_per_run(monkeypatch, capsys, command, fixture, class_name):
    calls = _count_builds(monkeypatch, class_name)
    code = main([command, fix(fixture), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(calls) == len(report["blocks"]) >= 1


def test_rrg_scenario_rebuilt_at_another_trunc(monkeypatch, capsys):
    calls = _count_builds(monkeypatch, "ZeroSectionScenario")
    code = main(["rrg-zero-section", fix("zero_section_reflection.json"), "--trunc", "1"])
    assert code == 0
    # the block's own trunc at load, then the override at run time
    assert [args[-1] for args in calls] == [6, 1]


def test_skip_validation_block_built_at_run_only(monkeypatch, capsys):
    path = fix("corrupt_nonequivariant_diff.json")
    calls = _count_builds(monkeypatch, "IsoSpatialScenario")
    load_scenario(path)
    assert calls == []
    code = main(["rrg-iso", path])
    assert code == 1
    assert "not equivariant" in capsys.readouterr().out
    assert len(calls) == 1


def test_zero_section_trunc_below_normal_rank(tmp_path, capsys):
    code = main(["rrg-zero-section", fix("zero_section_reflection.json"), "--trunc", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "truncation degree 0 is below the normal rank 1" in captured.out
    assert captured.err == ""
    path = _edited_copy(
        tmp_path, "zero_section_reflection.json", _set_knob("rrg_zero_section", "trunc", 0)
    )
    code = main(["rrg-zero-section", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.rstrip().endswith("(at /rrg_zero_section/0)")
