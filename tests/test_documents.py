import json
import math
import sys
from pathlib import Path

import pytest

from lie2alg import catalog, cli, cohom, defo, dkcore, documents, el2, exactla as xla, morph


@pytest.fixture()
def sl2_quadratic():
    g = catalog.sl2()
    return el2.from_quadratic_lie(g, catalog.killing_form(g))


def roundtrip(obj, **meta):
    text = documents.serialize(obj, **meta)
    parsed = documents.parse(text)
    return text, parsed


def all_kind_objects():
    """One object of every document kind, in ``documents.KINDS`` order."""
    g = catalog.sl2()
    quadratic = el2.from_quadratic_lie(g, catalog.killing_form(g))
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    L, gamma = catalog.nilpotent_cdga_dgla()
    mor = morph.identity_morphism(quadratic)
    return [
        quadratic.complex,
        quadratic,
        mor,
        morph.identity_2morphism(mor),
        g,
        catalog.leibniz_square(),
        m,
        documents.cocycle_document(
            m, cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
        ),
        L,
        documents.MCProblem(L, gamma),
    ]


def test_canonical_roundtrip_all_kinds():
    objects = all_kind_objects()
    assert [documents.to_payload(obj)[0] for obj in objects] == list(documents.KINDS)
    for obj in objects:
        text, parsed = roundtrip(obj, name="fixture")
        # serialize . parse is the identity on canonical text
        again = documents.serialize(parsed.obj, name="fixture")
        assert again == text
        # parse . serialize is the identity on the object
        assert type(parsed.obj) is type(obj)
        assert parsed.obj == obj


def _array_paths(node, path):
    """JSON paths of the arrays (objects with "shape" and "entries") in a
    payload."""
    if isinstance(node, dict):
        if set(node) == {"shape", "entries"}:
            yield path
            return
        for key, value in sorted(node.items()):
            yield from _array_paths(value, f"{path}.{key}")


ARRAY_FIELDS = [
    (kind, text, path)
    for kind, text in (
        (json.loads(text)["kind"], text)
        for text in map(documents.serialize, all_kind_objects())
    )
    for path in _array_paths(json.loads(text)["payload"], "$.payload")
]


def _at(doc, path):
    """The dict holding the value at ``path`` and its key."""
    *parents, key = path.split(".")[1:]
    for part in parents:
        doc = doc[part]
    return doc, key


@pytest.mark.parametrize(
    "kind, text, path", ARRAY_FIELDS, ids=[f"{kind}:{path}" for kind, _, path in ARRAY_FIELDS]
)
def test_array_field_errors_carry_the_field_path(kind, text, path):
    """A wrong shape, a boolean in a shape, or a value that is not an array
    object, is a parse error at that array's JSON path, in every kind and
    at every depth."""
    doc = json.loads(text)
    holder, key = _at(doc, path)
    shape = holder[key]["shape"]
    holder[key]["shape"] = [True] + shape  # same entry count
    with pytest.raises(documents.ParseError) as err:
        documents.parse(json.dumps(doc))
    assert err.value.path == path + ".shape" and "non-negative integers" in str(err.value)
    holder[key]["shape"] = shape + [1]  # same entry count
    with pytest.raises(documents.ParseError) as err:
        documents.parse(json.dumps(doc))
    assert err.value.path == path and "expected shape" in str(err.value)
    holder[key] = 7
    with pytest.raises(documents.ParseError) as err:
        documents.parse(json.dumps(doc))
    assert err.value.path == path and "must be an object" in str(err.value)


def test_parse_normalizes_noncanonical(sl2_quadratic):
    text = documents.serialize(sl2_quadratic, name="q")
    doc = json.loads(text)
    # unreduced rational strings parse to the same object
    doc["payload"]["alt"]["entries"][0] = "16/2"
    parsed = documents.parse(json.dumps(doc))
    assert parsed.obj == sl2_quadratic


def test_empty_complex_roundtrips():
    from lie2alg.dkcore import zero_complex

    text, parsed = roundtrip(zero_complex())
    assert parsed.obj == zero_complex()


def test_parse_errors_report_paths():
    with pytest.raises(documents.ParseError) as err:
        documents.parse("{not json")
    assert "line" in str(err.value)
    with pytest.raises(documents.ParseError) as err:
        documents.parse('{"kind": "nope", "payload": {}}')
    assert "$.kind" in str(err.value)
    with pytest.raises(documents.ParseError) as err:
        documents.parse(
            '{"kind": "lie_algebra", "payload": {"dim": 1, "c": {"shape": [1, 1, 1], "entries": ["1/0"]}}}'
        )
    assert "entries[0]" in str(err.value)
    with pytest.raises(documents.ParseError) as err:
        documents.parse(
            '{"kind": "lie_algebra", "payload": {"dim": 1, "c": {"shape": [1, 1, 1], "entries": [0.25]}}}'
        )
    assert "exact rational" in str(err.value)
    with pytest.raises(documents.ParseError) as err:
        documents.parse(
            '{"kind": "complex", "payload": {"n0": 1, "n1": 2, "d": {"shape": [1, 1], "entries": [1]}}}'
        )
    assert "shape" in str(err.value)


@pytest.mark.parametrize("table", ["l1", "l2", "l3"])
def test_graded_bracket_table_must_be_an_object(table):
    doc = {"kind": "graded_l3", "payload": {"dims": {"0": 1}, table: [1]}}
    with pytest.raises(documents.ParseError) as err:
        documents.parse(json.dumps(doc))
    assert err.value.path == f"$.payload.{table}"


def test_axiom_violations_are_not_parse_errors():
    bad = {
        "kind": "lie_algebra",
        "payload": {"dim": 2, "c": {"shape": [2, 2, 2], "entries": [0, 1, 0, 0, 0, 0, 0, 0]}},
    }
    with pytest.raises(el2.InvalidStructureError):
        documents.parse(json.dumps(bad))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def write(tmp_path, filename, obj, **meta):
    path = tmp_path / filename
    path.write_text(documents.serialize(obj, **meta))
    return str(path)


def test_cli_check_pass_and_fail(tmp_path, capsys, sl2_quadratic):
    path = write(tmp_path, "quad.json", sl2_quadratic)
    assert cli.main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "pass" in out

    from conftest import perturb

    bad = perturb(sl2_quadratic, "alt", 1)
    path = write(tmp_path, "bad.json", bad)
    assert cli.main(["check", path]) == 1
    out = capsys.readouterr().out
    # with zero differential a perturbed alternator surfaces in the
    # symmetry coherence identities
    assert "FAIL" in out and "coh.jacobiator-sym23" in out


@pytest.mark.parametrize("command", ["check", "classify", "inner-sym"])
def test_cli_rejects_negative_max_violations(tmp_path, capsys, sl2_quadratic, command):
    path = write(tmp_path, "quad.json", sl2_quadratic)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path, "--max-violations", "-1"])
    assert exc.value.code == 2
    assert "expected a count >= 0, got -1" in capsys.readouterr().err


def test_cli_max_violations_zero_prints_counts_only(tmp_path, capsys, sl2_quadratic):
    from conftest import perturb

    path = write(tmp_path, "bad.json", perturb(sl2_quadratic, "alt", 1))
    assert cli.main(["check", path, "--max-violations", "0"]) == 1
    out = capsys.readouterr().out
    assert " at " not in out and "more" in out


def test_cli_check_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["7" * 5000, '"1e5000"', '"1/' + "3" * 1001 + '"'])
def test_cli_oversized_scalar_is_input_error(tmp_path, capsys, sl2_quadratic, literal):
    # a 5000-digit integer exceeds Python's int/str conversion limit, and an
    # exponent string would expand to 5001 digits; both must stop at intake
    text = documents.serialize(sl2_quadratic)
    doc = json.loads(text)
    doc["payload"]["alt"]["entries"][0] = "@"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error: $.payload.alt.entries[0]: invalid rational literal" in err
    assert f"at most {xla.MAX_LITERAL_DIGITS} digits" in err
    # the cap itself is accepted
    doc["payload"]["alt"]["entries"][0] = "9" * xla.MAX_LITERAL_DIGITS
    assert documents.parse(json.dumps(doc)).obj.alt[0, 0, 0] == int("9" * xla.MAX_LITERAL_DIGITS)


def test_cli_deeply_nested_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["check", str(path)]) == 2
    assert "input error: $: invalid JSON" in capsys.readouterr().err


def empty_el2_document(n0, n1):
    """An el2 document on a complex of dimensions (n0, n1) whose tensors,
    with n0 = 0, all have no entries."""
    shapes = {"b00": [n0] * 3, "b01": [n1, n0, n1], "b10": [n1, n1, n0], "alt": [n1, n0, n0],
              "jac": [n1, n0, n0, n0]}
    payload = {name: {"shape": shape, "entries": []} for name, shape in shapes.items()}
    payload["complex"] = {"n0": n0, "n1": n1, "d": {"shape": [n0, n1], "entries": []}}
    return json.dumps({"kind": "el2", "metadata": {"name": "", "description": ""}, "payload": payload})


def test_cli_wide_empty_complex_is_input_error(tmp_path, capsys):
    # a few hundred bytes declaring n1 = 3000 with no entries at all: its
    # check would build n1**3 residual entries
    path = tmp_path / "wide.json"
    path.write_text(empty_el2_document(0, 3000))
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"input error: $.payload.complex.n1: dimension 3000 exceeds {documents.MAX_COMPLEX_DIM}" in err
    # the cap itself is accepted and checked
    path.write_text(empty_el2_document(0, documents.MAX_COMPLEX_DIM))
    assert cli.main(["check", str(path)]) == 0


@pytest.mark.parametrize("dims, flags", [({"-1": 3000, "0": 0, "1": 0}, ["--n", "2"]),
                                          ({"-2": 3000, "-1": 0, "0": 0, "1": 0}, [])])
def test_cli_wide_empty_graded_degree_is_input_error(tmp_path, capsys, dims, flags):
    # an empty degree of a graded algebra becomes a degree of the complex
    # the symmetry constructions build; 3000 would make residuals of 3000**3
    wide = next(k for k, v in dims.items() if v)
    doc = {"kind": "graded_l3", "payload": {"dims": dims}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    assert cli.main(["inner-sym", str(path), *flags]) == 2
    assert f"input error: $.payload.dims.{wide}: dimension 3000 exceeds {documents.MAX_COMPLEX_DIM}" in (
        capsys.readouterr().err)
    path.write_text(json.dumps({"kind": "mc_problem", "payload": {"graded": doc["payload"], "gamma": {
        "shape": [0], "entries": []}}}))
    assert cli.main(["inner-sym", str(path), *flags]) == 2
    assert f"input error: $.payload.graded.dims.{wide}: dimension 3000" in capsys.readouterr().err
    # the cap itself is accepted and constructed
    path.write_text(json.dumps({"kind": "graded_l3", "payload": {"dims": {**dims, wide: documents.MAX_COMPLEX_DIM}}}))
    assert cli.main(["inner-sym", str(path), *flags]) == 0


@pytest.mark.parametrize("n", [12, 20])
def test_cli_cohomology_of_a_wide_zero_algebra_is_input_error(tmp_path, capsys, n):
    # an all-zero bracket of dimension 12 (5 KB) or 20 (24 KB): its cocycle
    # matrix would have 25920 x 1872 or 184000 x 8400 entries
    doc = {"kind": "lie_algebra", "payload": {"dim": n, "c": {"shape": [n, n, n], "entries": [0] * n**3}}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    for flags in (["--ce"], []):
        assert cli.main(["cohomology", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "input error: $.payload.dim: cocycle matrix of" in err
        assert f"exceeds {documents.MAX_COCYCLE_ENTRIES}" in err
    rows, cols = cohom.cocycle_matrix_shape(n, 1)
    assert rows * cols > documents.MAX_COCYCLE_ENTRIES


def test_cli_cohomology_of_a_wide_module_is_input_error(tmp_path, capsys):
    # sl2 with a trivial module of dimension 48: the algebra alone fits
    g = catalog.sl2()
    rep = el2.RepresentationFD(g, 48, xla.zeros(48, 3, 48))
    path = tmp_path / "wide_module.json"
    path.write_text(documents.serialize(rep))
    assert cli.main(["cohomology", str(path)]) == 2
    assert "input error: $.payload.dim: cocycle matrix of" in capsys.readouterr().err


class ValidationRan(Exception):
    pass


def refuse_validation(self):
    raise ValidationRan


def zero_algebra_document(kind, n):
    return json.dumps({"kind": kind, "payload": {"dim": n, "c": {"shape": [n, n, n], "entries": [0] * n**3}}},
                      separators=(",", ":"))


@pytest.mark.parametrize("kind, commands", [("lie_algebra", ["check", "cohomology"]),
                                            ("leibniz_algebra", ["check"])])
def test_cli_wide_algebra_is_refused_before_validation(tmp_path, capsys, monkeypatch, kind, commands):
    # an all-zero bracket of dimension 64 (0.8 MB): its Jacobi or Leibniz
    # residual would take 64**5 multiply-adds; the refusal comes before the
    # record is built, so its axiom check never runs
    monkeypatch.setattr(documents.KINDS[kind], "validate", refuse_validation)
    path = tmp_path / "wide.json"
    path.write_text(zero_algebra_document(kind, 64))
    for command in commands:
        assert cli.main([command, str(path)]) == 2
        assert (f"input error: $.payload.dim: validating dimension 64 takes {64**5} multiply-adds, "
                f"more than {documents.MAX_VALIDATION_WORK}") in capsys.readouterr().err


def test_cli_wide_module_is_refused_before_validation(tmp_path, capsys, monkeypatch):
    # sl2 with a module of dimension 97 costs 3**2 * 97**2 * (3 + 97)
    # multiply-adds, just above the bound; over an algebra of dimension 25
    # the algebra alone is too large
    path = tmp_path / "wide_module.json"
    doc = json.loads(documents.serialize(el2.RepresentationFD(catalog.sl2(), 1, xla.zeros(1, 3, 1))))
    monkeypatch.setattr(el2.RepresentationFD, "validate", refuse_validation)
    doc["payload"].update(dim=97, rho={"shape": [97, 3, 97], "entries": [0] * (97 * 3 * 97)})
    path.write_text(json.dumps(doc))
    for command in ("check", "cohomology"):
        assert cli.main([command, str(path)]) == 2
        assert f"input error: $.payload.dim: validating dimension 97 takes {9 * 97**2 * 100} multiply-adds" in (
            capsys.readouterr().err)
    doc["payload"].update(algebra=json.loads(zero_algebra_document("lie_algebra", 25))["payload"], dim=1,
                          rho={"shape": [1, 25, 1], "entries": [0] * 25})
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(el2.LieAlgebraFD, "validate", refuse_validation)
    assert cli.main(["check", str(path)]) == 2
    assert "input error: $.payload.algebra.dim: validating dimension 25" in capsys.readouterr().err


def test_validation_bound_admits_the_stated_inputs():
    # dimension 24, and sl2 with a 48-dimensional module, fit; dimension 25
    # and sl2 with a 97-dimensional module do not
    work = documents._validation_work
    assert work(el2.LieAlgebraFD, {"dim": 24}) <= documents.MAX_VALIDATION_WORK < work(el2.LieAlgebraFD, {"dim": 25})
    sl2 = catalog.sl2()
    assert work(el2.RepresentationFD, {"algebra": sl2, "dim": 48}) <= documents.MAX_VALIDATION_WORK
    assert work(el2.RepresentationFD, {"algebra": sl2, "dim": 97}) > documents.MAX_VALIDATION_WORK


def test_cocycle_matrix_cap_admits_the_fixtures():
    # the largest cohomology inputs of the goldens and of sl3 with the
    # trivial module fit under the cap, and the shape is the assembled one
    assert math.prod(cohom.cocycle_matrix_shape(8, 1)) <= documents.MAX_COCYCLE_ENTRIES
    g, m = catalog.sl2(), catalog.adjoint_rep(catalog.sl2())
    assert cohom._cocycle_matrix(g, m).shape == cohom.cocycle_matrix_shape(3, 3)


def test_cli_check_lie_axiom_violation(tmp_path, capsys):
    path = tmp_path / "bad_lie.json"
    path.write_text(
        json.dumps(
            {
                "kind": "lie_algebra",
                "payload": {
                    "dim": 2,
                    "c": {"shape": [2, 2, 2], "entries": [0, 1, 0, 0, 0, 0, 0, 0]},
                },
            }
        )
    )
    assert cli.main(["check", str(path)]) == 1
    assert "skew-symmetry" in capsys.readouterr().out


def test_cli_deterministic_output(tmp_path, capsys, sl2_quadratic):
    path = write(tmp_path, "quad.json", sl2_quadratic)
    cli.main(["check", path])
    first = capsys.readouterr().out
    cli.main(["check", path])
    second = capsys.readouterr().out
    assert first == second


def test_cli_ss_writes_semistrict(tmp_path, capsys, sl2_quadratic):
    path = write(tmp_path, "quad.json", sl2_quadratic, name="quad")
    out_path = str(tmp_path / "ss.json")
    assert cli.main(["ss", path, "-o", out_path]) == 0
    assert "semistrict" in capsys.readouterr().out
    parsed = documents.parse(open(out_path).read())
    g = catalog.sl2()
    assert parsed.obj == el2.string_2_algebra(g, catalog.killing_form(g))


def test_cli_cohomology(tmp_path, capsys):
    g = catalog.sl2()
    path = write(tmp_path, "sl2.json", g)
    assert cli.main(["cohomology", path, "--ce"]) == 0
    out = capsys.readouterr().out
    assert "dim HL3 = 1" in out and "dim H3 = 1" in out
    assert "ok" in out


def test_cli_cohomology_representation_document(tmp_path, capsys):
    g = catalog.sl2()
    path = write(tmp_path, "adj.json", catalog.adjoint_rep(g))
    assert cli.main(["cohomology", path]) == 0
    assert "dim HL3 = 0" in capsys.readouterr().out


GOLDEN = Path(__file__).with_name("golden")


GOLDEN_COHOMOLOGY = {
    "cohomology_ce_sl2_trivial": (catalog.sl2, ["--ce"]),
    "cohomology_ce_abelian3_trivial": (lambda: catalog.abelian_lie(3), ["--ce"]),
    "cohomology_sl2_adjoint": (lambda: catalog.adjoint_rep(catalog.sl2()), []),
}


@pytest.mark.parametrize("golden", GOLDEN_COHOMOLOGY)
def test_cli_cohomology_golden(tmp_path, capsys, golden):
    """The whole report, representatives and ss map included, is pinned:
    bases come from the unique RREF, so any re-implementation must print
    these bytes."""
    document, flags = GOLDEN_COHOMOLOGY[golden]
    path = write(tmp_path, "doc.json", document())
    assert cli.main(["cohomology", path, *flags]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")


def _moved_sl2_quadratic():
    import random

    from conftest import twisted_nonskeletal

    g = catalog.sl2()
    moved, _, _ = twisted_nonskeletal(random.Random(6), el2.from_quadratic_lie(g, catalog.killing_form(g)), 2)
    return moved


# name -> (document, subcommand and flags); "-o" writes the <name>.json document
GOLDEN_CLI = {
    "classify_moved_sl2": (_moved_sl2_quadratic, ["classify"]),
    "inner_sym_n3_skew": (lambda: documents.MCProblem(*catalog.nilpotent_cdga_dgla()), ["inner-sym", "--skew"]),
    "inner_sym_n2": (lambda: documents.MCProblem(*catalog.nilpotent_cdga_dgla_n2()), ["inner-sym", "--n", "2"]),
}


@pytest.mark.parametrize("golden", GOLDEN_CLI)
def test_cli_output_golden(tmp_path, capsys, golden):
    """Stdout and the written document of classify (through the Hodge
    splitting and transfer) and inner-sym (through the skew-symmetrization
    kernel and the n = 2 truncation) are pinned byte for byte."""
    document, argv = GOLDEN_CLI[golden]
    path = write(tmp_path, "doc.json", document())
    out_path = tmp_path / "out.json"
    assert cli.main([argv[0], path, *argv[1:], "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")
    assert out_path.read_text(encoding="utf-8") == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")


def _count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every lie2alg module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lie2alg" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_cli_verdicts_are_computed_once(tmp_path, capsys, monkeypatch):
    """transfer_to_skeletal certifies the classify inclusion, and
    inner_symmetries_n3 validates the structure it builds; neither verdict
    is computed a second time."""
    path = write(tmp_path, "moved.json", _moved_sl2_quadratic())
    morphism_calls = _count_calls(monkeypatch, morph.check_morphism)
    quasi_iso_calls = _count_calls(monkeypatch, dkcore.is_quasi_iso)
    assert cli.main(["classify", path]) == 0
    assert (len(morphism_calls), len(quasi_iso_calls)) == (1, 1)
    path = write(tmp_path, "mc.json", documents.MCProblem(*catalog.nilpotent_cdga_dgla()))
    el2_calls = _count_calls(monkeypatch, el2.check_el2)
    assert cli.main(["inner-sym", path]) == 0
    assert len(el2_calls) == 1
    capsys.readouterr()


def test_cli_classify(tmp_path, capsys, sl2_quadratic):
    import random

    from conftest import twisted_nonskeletal

    rng = random.Random(6)
    moved, _, _ = twisted_nonskeletal(rng, sl2_quadratic, 1)
    path = write(tmp_path, "moved.json", moved)
    out_path = str(tmp_path / "skeletal.json")
    assert cli.main(["classify", path, "-o", out_path]) == 0
    out = capsys.readouterr().out
    assert "equivalence certificate: morphism axioms pass, quasi-isomorphism yes" in out
    skeletal = documents.parse(open(out_path).read()).obj
    assert skeletal.complex.is_skeletal


def test_cli_mc_and_twist(tmp_path, capsys):
    L, good, bad = catalog.mc_balancing_dgla()
    path = write(tmp_path, "prob.json", documents.MCProblem(L, good))
    out_path = str(tmp_path / "twisted.json")
    assert cli.main(["mc", path, "--twist", "-o", out_path]) == 0
    assert "zero" in capsys.readouterr().out
    twisted = documents.parse(open(out_path).read()).obj
    assert twisted == defo.twist(L, good)

    path = write(tmp_path, "probbad.json", documents.MCProblem(L, bad))
    assert cli.main(["mc", path]) == 1
    assert "residual" in capsys.readouterr().out


def test_cli_mc_gamma_flag(tmp_path, capsys):
    L, good, _ = catalog.mc_balancing_dgla()
    path = write(tmp_path, "graded.json", L)
    gamma_arg = ",".join(xla.rat_str(x) for x in good)
    assert cli.main(["mc", path, "--gamma", gamma_arg]) == 0
    capsys.readouterr()
    assert cli.main(["mc", path, "--gamma", "bogus"]) == 2
    capsys.readouterr()
    for text, entry in (("1,0,0,,0,1,0,0,0,1", "entry 4 of 10"),
                        (gamma_arg + ",", "entry 10 of 10"), ("," + gamma_arg, "entry 1 of 10")):
        assert cli.main(["mc", path, "--gamma", text]) == 2
        assert f"--gamma {entry} is empty" in capsys.readouterr().err


def test_cli_mc_large_dimensions_without_brackets(tmp_path, capsys):
    # a dense 400000 x 400000 differential does not fit in memory: only the
    # stored brackets enter the Maurer-Cartan residual
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "graded_l3", "payload": {"dims": {"1": 400000, "2": 400000}}}))
    assert cli.main(["mc", str(path)]) == 0
    assert capsys.readouterr().out == "maurer-cartan residual: zero\n"


def test_cli_inner_sym(tmp_path, capsys):
    L, gamma = catalog.nilpotent_cdga_dgla()
    path = write(tmp_path, "prob.json", documents.MCProblem(L, gamma))
    out_path = str(tmp_path / "sym.json")
    assert cli.main(["inner-sym", path, "--skew", "-o", out_path]) == 0
    out = capsys.readouterr().out
    assert "all construction identities hold" in out and "semistrict" in out
    result = documents.parse(open(out_path).read()).obj
    assert el2.is_semistrict(result)
    assert el2.check_el2(result).passed


def test_cli_inner_sym_n2(tmp_path, capsys):
    L = catalog.action_dgla(catalog.adjoint_rep(catalog.so3()))
    path = write(tmp_path, "act.json", L)
    assert cli.main(["inner-sym", path, "--n", "2"]) == 0
    assert "all construction identities hold" in capsys.readouterr().out


def test_cli_inner_sym_prints_the_mc_residual_on_one_line(tmp_path, capsys):
    """A non-flat element fails the construction with its residual in the
    form ``mc`` prints."""
    L, _, bad = catalog.mc_balancing_dgla()
    path = write(tmp_path, "prob.json", documents.MCProblem(L, bad))
    residual = "(0, 0, 1, 0, 0, 0, 0, 0, 0)"
    assert cli.main(["mc", path]) == 1
    assert capsys.readouterr().out == f"maurer-cartan residual: {residual}\n"
    for n in ("2", "3"):
        assert cli.main(["inner-sym", path, "--n", n]) == 1
        assert capsys.readouterr().out == f"construction failed: nonzero Maurer-Cartan residual: {residual}\n"


def test_cli_maps_constructor_errors_to_exit_codes(tmp_path, capsys):
    # a graded document reaching below the supported degree range is an
    # input error, not a crash
    doc = {
        "kind": "graded_l3",
        "payload": {"dims": {"-4": 1, "0": 1}, "l1": {}, "l2": {}, "l3": {}},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err
    # a non-flat element handed to the symmetry construction is a violation
    L, _, bad = catalog.mc_balancing_dgla()
    path = tmp_path / "prob.json"
    path.write_text(documents.serialize(documents.MCProblem(L, bad)))
    assert cli.main(["inner-sym", str(path), "--n", "2"]) == 1
    assert "construction failed" in capsys.readouterr().out

