import json
import math
import shlex
from pathlib import Path

import pytest

from blockperm.cli import main


# `blockperm verify all --max-n 2`: every check's name, order and detail text.
VERIFY_ALL_MAX_N_2 = """\
PASS counts: closed formula = recursion (= known values up to degree 6) (checked n <= 2)
PASS counts: enumeration and generator closure match the formula (checked n <= 2)
PASS partition counts by type match the multinomial formula (checked n <= 2)
PASS generator relations (braid, mixed braid, commuting, absorbing) (checked n <= 2)
PASS inverse-monoid identities and idempotent classification (checked n <= 2)
PASS unique factorization through a block shuffle and an idempotent (checked n <= 2)
PASS partition identities compose through the lattice meet (checked n <= 2)
PASS permutations relabel the codomain on the left, the domain on the right (checked n <= 2)
PASS composition is associative (exhaustive n <= 3, sampled n <= 2)
PASS breaking-point splits reassemble uniquely (checked n <= 2)
PASS product is associative (total degree <= 2)
PASS coproduct is coassociative (degree <= 2)
PASS counit is a two-sided counit for the coproduct (degree <= 2)
PASS coproduct of a product is the product of coproducts (total degree <= 2)
PASS antipode satisfies both defining identities (degree <= 2)
PASS domain-class sums absorb permutations and merge generators (checked n <= 2)
PASS the span of domain-class sums is a right ideal (checked n <= 2)
PASS expected primitive and non-primitive elements
PASS permutations close under product/coproduct and match word shuffles (total degree <= 2)
PASS pairing is the diagram-inversion permutation form (degree <= 2)
PASS the pairing turns the product into the coproduct (degree <= 2)
PASS weak order is a partial order on permutations (checked n <= 2)
PASS shuffle sets are lower ideals with the expected maximum (checked n <= 2)
PASS every permutation factors uniquely as block shuffle times stabilizer (checked n <= 2)
PASS weak-order components partition the monoid by domain (checked n <= 2)
PASS Hasse components are transitively reduced and correctly sized (checked n <= 2)
PASS lower-sum basis change is an exact round trip (degree <= 2)
PASS upper-sum basis change is an exact round trip (degree <= 2)
PASS lower-sum basis multiplies through the maximal shuffle (total degree <= 2)
PASS upper-sum basis multiplies by concatenation (total degree <= 2)
PASS upper sums at partition identities are the domain-class sums (degree <= 2)
PASS primitive dimensions by series inversion (degrees 1..2)
PASS power-sum truncations have one word per block colouring (degree <= 2)
PASS power-sum truncations are stable under renaming the letters (degree <= 2, alphabet of 3)
PASS p-basis product matches word concatenation (total degree <= 2, alphabets <= 3)
PASS p-basis coproduct matches two-alphabet word counting (degree <= 2, alphabets of 2+2)
PASS six-element coproduct example expands to the eight expected terms
PASS the p-basis and the domain-class sums exchange product and coproduct (total degree <= 2)
PASS embedding into the diagram algebra round-trips (degree <= 2)
PASS action matrices reverse composition in exactly one orientation (checked n <= 2, m <= 3)
PASS generator matrices satisfy the monoid relations (checked n <= 2, m <= 3)
PASS direct action matrices match generator-word products (checked n <= 2, m <= 3)
PASS diagram action commutes with the wreath-product action (1088 cases with dimension <= 256, root order <= 4)
PASS action matrices span a space of the full monoid dimension (checked degrees up to 2 at doubled dimension)
PASS tensor-algebra convolution realizes the shuffle product (total degree <= 2, m = 2)
45/45 checks passed
"""

# `blockperm verify all --max-n 2 --format json`: the same checks as JSON.
VERIFY_ALL_MAX_N_2_JSON = (
    '{"checks": ['
    '{"detail": "checked n <= 2", "name": "counts: closed formula = recursion (= known values up to degree 6)", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "counts: enumeration and generator closure match the formula", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "partition counts by type match the multinomial formula", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "generator relations (braid, mixed braid, commuting, absorbing)", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "inverse-monoid identities and idempotent classification", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "unique factorization through a block shuffle and an idempotent", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "partition identities compose through the lattice meet", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "permutations relabel the codomain on the left, the domain on the right", "passed": true}, '
    '{"detail": "exhaustive n <= 3, sampled n <= 2", "name": "composition is associative", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "breaking-point splits reassemble uniquely", "passed": true}, '
    '{"detail": "total degree <= 2", "name": "product is associative", "passed": true}, '
    '{"detail": "degree <= 2", "name": "coproduct is coassociative", "passed": true}, '
    '{"detail": "degree <= 2", "name": "counit is a two-sided counit for the coproduct", "passed": true}, '
    '{"detail": "total degree <= 2", "name": "coproduct of a product is the product of coproducts", "passed": true}, '
    '{"detail": "degree <= 2", "name": "antipode satisfies both defining identities", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "domain-class sums absorb permutations and merge generators", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "the span of domain-class sums is a right ideal", "passed": true}, '
    '{"detail": "", "name": "expected primitive and non-primitive elements", "passed": true}, '
    '{"detail": "total degree <= 2", "name": "permutations close under product/coproduct and match word shuffles", "passed": true}, '
    '{"detail": "degree <= 2", "name": "pairing is the diagram-inversion permutation form", "passed": true}, '
    '{"detail": "degree <= 2", "name": "the pairing turns the product into the coproduct", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "weak order is a partial order on permutations", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "shuffle sets are lower ideals with the expected maximum", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "every permutation factors uniquely as block shuffle times stabilizer", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "weak-order components partition the monoid by domain", "passed": true}, '
    '{"detail": "checked n <= 2", "name": "Hasse components are transitively reduced and correctly sized", "passed": true}, '
    '{"detail": "degree <= 2", "name": "lower-sum basis change is an exact round trip", "passed": true}, '
    '{"detail": "degree <= 2", "name": "upper-sum basis change is an exact round trip", "passed": true}, '
    '{"detail": "total degree <= 2", "name": "lower-sum basis multiplies through the maximal shuffle", "passed": true}, '
    '{"detail": "total degree <= 2", "name": "upper-sum basis multiplies by concatenation", "passed": true}, '
    '{"detail": "degree <= 2", "name": "upper sums at partition identities are the domain-class sums", "passed": true}, '
    '{"detail": "degrees 1..2", "name": "primitive dimensions by series inversion", "passed": true}, '
    '{"detail": "degree <= 2", "name": "power-sum truncations have one word per block colouring", "passed": true}, '
    '{"detail": "degree <= 2, alphabet of 3", "name": "power-sum truncations are stable under renaming the letters", "passed": true}, '
    '{"detail": "total degree <= 2, alphabets <= 3", "name": "p-basis product matches word concatenation", "passed": true}, '
    '{"detail": "degree <= 2, alphabets of 2+2", "name": "p-basis coproduct matches two-alphabet word counting", "passed": true}, '
    '{"detail": "", "name": "six-element coproduct example expands to the eight expected terms", "passed": true}, '
    '{"detail": "total degree <= 2", "name": "the p-basis and the domain-class sums exchange product and coproduct", "passed": true}, '
    '{"detail": "degree <= 2", "name": "embedding into the diagram algebra round-trips", "passed": true}, '
    '{"detail": "checked n <= 2, m <= 3", "name": "action matrices reverse composition in exactly one orientation", "passed": true}, '
    '{"detail": "checked n <= 2, m <= 3", "name": "generator matrices satisfy the monoid relations", "passed": true}, '
    '{"detail": "checked n <= 2, m <= 3", "name": "direct action matrices match generator-word products", "passed": true}, '
    '{"detail": "1088 cases with dimension <= 256, root order <= 4", "name": "diagram action commutes with the wreath-product action", "passed": true}, '
    '{"detail": "checked degrees up to 2 at doubled dimension", "name": "action matrices span a space of the full monoid dimension", "passed": true}, '
    '{"detail": "total degree <= 2, m = 2", "name": "tensor-algebra convolution realizes the shuffle product", "passed": true}], "passed": true, "suite": "all"}\n'
)

# `blockperm verify schurweyl --n 3 --m 2 --r 2`: pairs, rank note, spot checks.
SCHURWEYL_N3_M2_R2 = """\
[s_1, t_1] commutes
[s_1, t_2] commutes
[s_1, swap_1,2] commutes
[s_2, t_1] commutes
[s_2, t_2] commutes
[s_2, swap_1,2] commutes
[b_1, t_1] commutes
[b_1, t_2] commutes
[b_1, swap_1,2] commutes
[b_2, t_1] commutes
[b_2, t_2] commutes
[b_2, swap_1,2] commutes
commutation(n=3, m=2, r=2): PASS
action span rank: 10 (monoid size 16)
note: below the doubled-dimension threshold the rank may drop
convolution {1}->{1};{2}->{2} with {1}->{1};{2}->{2}: agrees
convolution {1}->{1};{2}->{2} with {1}->{2};{2}->{1}: agrees
convolution {1}->{1};{2}->{2} with {1,2}->{1,2}: agrees
convolution {1}->{2};{2}->{1} with {1}->{1};{2}->{2}: agrees
convolution {1}->{2};{2}->{1} with {1}->{2};{2}->{1}: agrees
convolution {1}->{2};{2}->{1} with {1,2}->{1,2}: agrees
convolution {1,2}->{1,2} with {1}->{1};{2}->{2}: agrees
convolution {1,2}->{1,2} with {1}->{2};{2}->{1}: agrees
convolution {1,2}->{1,2} with {1,2}->{1,2}: agrees
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def argparse_refusal(capsys, *argv):
    """The message of an invocation that argparse refuses with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err.splitlines()[-1].split(" error: ", 1)[1]


class TestCount:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "count", "4")
        assert code == 0
        assert "formula     131" in out
        assert "recursion   131" in out
        assert "enumeration 131" in out

    def test_zero(self, capsys):
        code, out, _ = run_cli(capsys, "count", "0")
        assert code == 0
        assert "formula     1" in out

    def test_above_ceiling_skips_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "count", "10")
        assert code == 0
        assert "enumeration skipped" in out

    def test_formula_skipped_above_cap(self, capsys):
        from blockperm.cli import FORMULA_CAP

        code, out, _ = run_cli(capsys, "count", str(FORMULA_CAP))
        assert code == 0
        assert out.splitlines()[1].startswith("formula     ")
        code, out, _ = run_cli(capsys, "count", str(FORMULA_CAP + 1))
        assert code == 0
        assert out.splitlines()[1] == f"formula skipped (cap {FORMULA_CAP})"
        code, out, _ = run_cli(capsys, "count", "200", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["agree"] is True
        assert data["formula"] is None and data["enumeration"] is None

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_refused_above_recursion_cap(self, capsys, monkeypatch, fmt):
        from blockperm import cli

        def unreachable(n):
            raise AssertionError("the recursion ran above the cap")

        monkeypatch.setattr(cli, "count_ubp_recursive", unreachable)
        code, out, err = run_cli(capsys, "count", "100000", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: count is capped at N = {cli.RECURSION_CAP}; lower N\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "3", "--format", "json")
        data = json.loads(out)
        assert data == {
            "agree": True,
            "enumeration": 16,
            "formula": 16,
            "n": 3,
            "recursion": 16,
        }


class TestOp:
    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "op", "product", "{1}->{1}", "{1}->{1}")
        assert code == 0
        assert out.strip() == "1*{1}->{1};{2}->{2} + 1*{1}->{2};{2}->{1}"

    def test_antipode(self, capsys):
        code, out, _ = run_cli(capsys, "op", "antipode", "{1}->{1}")
        assert code == 0
        assert out.strip() == "-1*{1}->{1}"

    def test_coproduct_two_boundary_terms(self, capsys):
        code, out, _ = run_cli(capsys, "op", "coproduct", "{1,2}->{1,2}")
        assert code == 0
        assert out.strip() == (
            "1*{}->{} (x) {1,2}->{1,2} + 1*{1,2}->{1,2} (x) {}->{}"
        )

    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "op", "pair", "{1,2}->{1,2}", "{1,2}->{1,2}")
        assert code == 0
        assert out.strip() == "1"

    def test_roundtrip_through_parser(self, capsys):
        code, out, _ = run_cli(capsys, "op", "product", "{1}->{1}", "{1}->{1}")
        element_text = out.strip()
        code2, out2, _ = run_cli(capsys, "op", "antipode", element_text)
        assert code2 == 0
        code3, out3, _ = run_cli(capsys, "op", "antipode", out2.strip())
        assert out3.strip() == element_text

    @pytest.mark.parametrize(
        "argv",
        [
            ("product", "{1}->{1}", "{1,2,3,4,5,6,7}->{1,2,3,4,5,6,7}"),
            ("antipode", "1*{1}->{1} + 1*{1,2,3,4,5,6,7}->{1,2,3,4,5,6,7}"),
            ("coproduct", "1*{1}->{1} + 1*{1,2,3,4,5,6,7}->{1,2,3,4,5,6,7}"),
        ],
    )
    def test_operand_above_ceiling_refused(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("BLOCKPERM_CEILING", raising=False)
        code, out, err = run_cli(capsys, "op", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: refusing to enumerate at n=7: ceiling is 6")
        code, out, _ = run_cli(capsys, "--ceiling", "7", "op", *argv)
        assert code == 0 and out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_refused_above_product_term_cap(self, capsys, monkeypatch, fmt):
        from blockperm import cli, hopf
        from blockperm.monoid import enumerate_ubp

        def unreachable(x, y):
            raise AssertionError("the product ran above the cap")

        monkeypatch.setattr(hopf, "product", unreachable)
        # 131 * 131 pairs of degree-4 terms, C(8, 4) = 70 terms each
        x = " + ".join(f"1*{f}" for f in enumerate_ubp(4))
        code, out, err = run_cli(capsys, "op", "product", x, x, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            f"error: product would generate 1201270 terms (cap {cli.PRODUCT_TERM_CAP}); "
            "split the operands\n"
        )

    def test_product_term_count_sums_over_degree_pairs(self, capsys, monkeypatch):
        from blockperm import cli

        # C(2, 1) + C(3, 2) = 5 terms
        argv = ("op", "product", "1*{1}->{1} + 1*{1,2}->{1,2}", "{1}->{1}")
        monkeypatch.setattr(cli, "PRODUCT_TERM_CAP", 5)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        monkeypatch.setattr(cli, "PRODUCT_TERM_CAP", 4)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: product would generate 5 terms (cap 4)")

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "op", "antipode", "{1}->")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("1*{1}->{1} + 1*{1}->{1}", "2*{1}->{1}"),
            ("1*{1}->{1} + -1*{1}->{1}", "0"),
            ("2*{1}->{1} + 0*{1,2}->{1,2}", "2*{1}->{1}"),
            ("1*{1,2}->{1,2} + 1*{1}->{1}", "1*{1}->{1} + 1*{1,2}->{1,2}"),
            ("+1*{1}->{1}", "1*{1}->{1}"),
            ("01*{1}->{1}", "1*{1}->{1}"),
            ("1* {1}->{1}", "1*{1}->{1}"),
        ],
    )
    def test_non_canonical_sum_rejected(self, capsys, text, canonical):
        code, out, err = run_cli(capsys, "op", "product", "{1}->{1}", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: non-canonical sum")
        assert err.endswith(f"; canonical form is {canonical}\n")

    def test_missing_operand(self, capsys):
        code, _, err = run_cli(capsys, "op", "product", "{1}->{1}")
        assert code == 2

    def test_negative_operand_after_double_dash(self, capsys):
        # A printed antipode starts with "-"; argparse reads it as an option
        # unless "--" ends the options first.
        code, out, _ = run_cli(capsys, "op", "antipode", "{1}->{1}")
        assert (code, out) == (0, "-1*{1}->{1}\n")
        assert argparse_refusal(capsys, "op", "antipode", out.strip()) == (
            "the following arguments are required: x"
        )
        code, out, _ = run_cli(capsys, "op", "antipode", "--", "-1*{1}->{1}")
        assert (code, out) == (0, "1*{1}->{1}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("op", "product", "{1}->{1}", "--", "-1*{1}->{1}"),
            ("op", "product", "--", "{1}->{1}", "-1*{1}->{1}"),
        ],
        ids=["dash-before-y", "dash-before-x"],
    )
    def test_negative_second_operand_after_double_dash(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "-1*{1}->{1};{2}->{2} + -1*{1}->{2};{2}->{1}\n")

    def test_format_goes_before_double_dash(self, capsys):
        code, out, _ = run_cli(capsys, "op", "antipode", "--format", "json", "--", "-1*{1}->{1}")
        assert code == 0
        assert json.loads(out)["result"] == [
            {"coeff": 1, "term": {"blocks": [[1]], "images": [[1]], "map": [0], "n": 1}}
        ]
        assert argparse_refusal(
            capsys, "op", "antipode", "--", "-1*{1}->{1}", "--format", "json"
        ) == "unrecognized arguments: json"


class TestHasse:
    def test_single_node(self, capsys):
        code, out, _ = run_cli(capsys, "hasse", "{1,2,3,4}")
        assert code == 0
        assert out.count("->") == 1  # only the node label contains an arrow
        assert "digraph hasse" in out

    def test_twelve_node_component(self, capsys):
        code, out, _ = run_cli(capsys, "hasse", "{1,2}{3}{4}", "--format", "json")
        data = json.loads(out)
        assert len(data["nodes"]) == 12

    def test_six_node_component(self, capsys):
        code, out, _ = run_cli(capsys, "hasse", "{1,4}{2,3}", "--format", "json")
        data = json.loads(out)
        assert len(data["nodes"]) == 6

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "hasse", "{1,2}{3}")
        _, out2, _ = run_cli(capsys, "hasse", "{1,2}{3}")
        assert out1 == out2

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "hasse", "{2,1}")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("hasse", "{1}{2}{3}{4}{5}{6}{7}"), ("--ceiling", "2", "hasse", "{1}{2}{3}")],
    )
    def test_above_ceiling_refused(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("BLOCKPERM_CEILING", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: refusing to enumerate")


class TestSeries:
    def test_default(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--terms", "6")
        assert code == 0
        assert "1, 1, 3, 16, 131, 1496, 22482" in out
        assert "1, 2, 11, 98, 1202, 19052" in out

    def test_one_term(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--terms", "1", "--format", "json")
        data = json.loads(out)
        assert data == {"counts": [1, 1], "primitive_dims": [1]}

    def test_consistency_at_eight(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--terms", "8", "--format", "json")
        data = json.loads(out)
        u, v = data["counts"], data["primitive_dims"]
        rebuilt = [1]
        for n in range(1, 9):
            rebuilt.append(sum(v[k - 1] * rebuilt[n - k] for k in range(1, n + 1)))
        assert rebuilt == u

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "series", "--terms", "13")
        assert code == 2


class TestVerify:
    def test_monoid_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "monoid", "--max-n", "3")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "duality", "--max-n", "2", "--format", "json"
        )
        data = json.loads(out)
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "nonsense")
        assert exc.value.code == 2

    def test_schurweyl_case_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "schurweyl", "--n", "2", "--m", "4", "--r", "3",
            "--format", "json",
        )
        group = [f"t_{l}" for l in range(1, 5)] + ["swap_1,2", "swap_2,3", "swap_3,4"]
        degree_2 = ["{1}->{1};{2}->{2}", "{1}->{2};{2}->{1}", "{1,2}->{1,2}"]
        expected = {
            "n": 2,
            "m": 4,
            "r": 3,
            "commutation_pairs": [
                {"monoid": a, "group": b, "commutes": True}
                for a in ("s_1", "b_1")
                for b in group
            ],
            "commutation": True,
            "rank": 3,
            "monoid_size": 3,
            "rank_is_full": True,
            "convolution_spot_checks": [
                {"f": f, "g": g, "agrees": True} for f in degree_2 for g in degree_2
            ],
            "passed": True,
        }
        assert (code, out, err) == (0, json.dumps(expected, sort_keys=True) + "\n", "")

    def test_schurweyl_case_text_is_pinned(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "schurweyl", "--n", "3", "--m", "2", "--r", "2"
        )
        assert (code, out, err) == (0, SCHURWEYL_N3_M2_R2, "")

    def test_schurweyl_case_ignores_valid_suite_flags(self, capsys):
        # The case has no degree bound and runs in one process.
        code, out, err = run_cli(
            capsys, "verify", "schurweyl", "--n", "3", "--m", "2", "--r", "2",
            "--max-n", "0", "--jobs", "5",
        )
        assert (code, out, err) == (0, SCHURWEYL_N3_M2_R2, "")

    @pytest.mark.parametrize("suite", ["hopf", "monoid"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_lowered_ceiling_is_a_refusal(self, capsys, monkeypatch, suite, jobs):
        # A check that would enumerate above the ceiling is refused, not
        # failed, and no check overrides the user's ceiling.
        monkeypatch.delenv("BLOCKPERM_CEILING", raising=False)
        code, out, err = run_cli(
            capsys, "--ceiling", "3", "verify", suite, "--max-n", "4", "--jobs", jobs
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: refusing to enumerate at n=4: ceiling is 3")

    @pytest.mark.parametrize("n", ["7", "4000"])
    def test_schurweyl_case_guards_run_first(self, capsys, monkeypatch, n):
        from blockperm import schurweyl

        def unreachable(n):
            raise AssertionError("built generators before checking the limits")

        monkeypatch.delenv("BLOCKPERM_CEILING", raising=False)
        monkeypatch.setattr(schurweyl, "monoid_generators", unreachable)
        code, out, err = run_cli(capsys, "verify", "schurweyl", "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: refusing to enumerate at n={n}")

    def test_dimension_refusal_names_m_n_and_ceiling(self, capsys, monkeypatch):
        monkeypatch.delenv("BLOCKPERM_CEILING", raising=False)
        code, out, err = run_cli(
            capsys, "--ceiling", "3000", "verify", "schurweyl", "--n", "2000"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: refusing the tensor space of dimension m^n = 4000^2000 "
            "(ceiling 4096)\n"
        )

    def test_all_text_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--max-n", "2")
        assert (code, out, err) == (0, VERIFY_ALL_MAX_N_2, "")

    def test_all_json_is_pinned(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "all", "--max-n", "2", "--format", "json"
        )
        assert (code, out, err) == (0, VERIFY_ALL_MAX_N_2_JSON, "")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_negative_max_n_is_refused(self, capsys, jobs):
        code, out, _ = run_cli(capsys, "verify", "monoid", "--max-n", "0")
        assert code == 0
        assert "PASS counts: closed formula" in out and "(checked n <= 0)" in out
        assert run_cli(
            capsys, "verify", "monoid", "--max-n", "-1", "--jobs", jobs
        ) == (2, "", "error: max_n must be non-negative, got -1\n")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_refused(self, capsys, jobs):
        assert run_cli(capsys, "verify", "ncsym", "--max-n", "1", "--jobs", jobs) == (
            2,
            "",
            f"error: jobs must be at least 1, got {jobs}\n",
        )

    @pytest.mark.parametrize(
        "flags, err",
        [
            (["--max-n", "-1", "--jobs", "5"], "error: max_n must be non-negative, got -1\n"),
            (["--jobs", "0"], "error: jobs must be at least 1, got 0\n"),
        ],
        ids=["negative-max-n", "no-workers"],
    )
    def test_schurweyl_case_refuses_what_the_suite_refuses(self, capsys, flags, err):
        assert run_cli(capsys, "verify", "schurweyl", "--n", "2", *flags) == (2, "", err)

    @pytest.mark.parametrize(
        "flags, err",
        [
            # a lone --r selects the single case, so its value is checked
            (["--r", "0"], "error: r must be at least 1\n"),
            # n is checked before m's default is derived from it
            (["--n", "-1"], "error: n must be non-negative\n"),
        ],
        ids=["lone-r", "negative-n"],
    )
    def test_schurweyl_case_flag_errors(self, capsys, flags, err):
        assert run_cli(capsys, "verify", "schurweyl", *flags) == (2, "", err)

    def test_schurweyl_case_n_0_defaults_m_to_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "schurweyl", "--n", "0")
        assert (code, out, err) == (
            0,
            "commutation(n=0, m=1, r=1): PASS\n"
            "action span rank: 1 (monoid size 1)\n"
            "convolution {}->{} with {}->{}: agrees\n",
            "",
        )

    @pytest.mark.parametrize("flag", ["--n", "--m", "--r"])
    def test_case_flags_refused_outside_schurweyl(self, capsys, flag):
        code, out, err = run_cli(capsys, "verify", "hopf", flag, "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert all(word in err for word in ("--n", "--m", "--r", "schurweyl"))

    def test_jobs_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "duality", "--max-n", "2", "--jobs", "2")
        assert code == 0
        assert "2/2 checks passed" in out

    def test_jobs_clamped_to_checks_and_cpus(self, monkeypatch):
        import concurrent.futures
        import os

        from blockperm import verify

        pools = []

        class Recorder:
            """Stands in for the process pool: records its size, runs inline."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        for cpus, suite, expected in [
            (64, "duality", [len(verify.SUITES["duality"])]),
            (3, "bases", [3]),
            (1, "bases", []),
            (None, "bases", []),
        ]:
            pools.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            checks = verify.run_suite(suite, max_n=1, jobs=10**6)
            assert pools == expected
            assert all(c.passed for c in checks)
        pools.clear()
        verify.run_suite("bases", max_n=1, jobs=1)
        assert pools == []


class TestPBasis:
    def test_to_element(self, capsys):
        code, out, _ = run_cli(capsys, "pbasis", "to-element", "1*p{1,2}")
        assert code == 0
        assert out.strip() == "1*{1,2}->{1,2}"

    def test_from_element(self, capsys):
        code, out, _ = run_cli(capsys, "pbasis", "from-element", "1*{1,2}->{1,2}")
        assert code == 0
        assert out.strip() == "1*p{1,2}"

    def test_negative_operand_after_double_dash(self, capsys):
        code, out, _ = run_cli(capsys, "pbasis", "to-element", "--", "-1*p{1}")
        assert (code, out) == (0, "-1*{1}->{1}\n")
        assert argparse_refusal(capsys, "pbasis", "to-element", "-1*p{1}") == (
            "the following arguments are required: text"
        )

    def test_roundtrip_sum_over_domain(self, capsys):
        code, out, _ = run_cli(capsys, "pbasis", "to-element", "1*p{1}{2}")
        element_text = out.strip()
        code2, out2, _ = run_cli(capsys, "pbasis", "from-element", element_text)
        assert out2.strip() == "1*p{1}{2}"

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("1*p{1,2} + 1*p{1,2}", "2*p{1,2}"),
            ("1*p{1,2} + 0*p{1}{2}", "1*p{1,2}"),
            ("1*p{1,3}{2,4} + 2*p{1,2}", "2*p{1,2} + 1*p{1,3}{2,4}"),
            ("+1*p{1}", "1*p{1}"),
            ("1* p{1,2}", "1*p{1,2}"),
        ],
    )
    def test_non_canonical_sum_rejected(self, capsys, text, canonical):
        code, out, err = run_cli(capsys, "pbasis", "to-element", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: non-canonical sum")
        assert err.endswith(f"; canonical form is {canonical}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("to-element", "1*p{1}{2}{3}{4}{5}{6}{7}"),
            ("from-element", "1*" + ";".join(f"{{{i}}}->{{{i}}}" for i in range(1, 8))),
        ],
    )
    def test_domain_class_above_ceiling_refused(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("BLOCKPERM_CEILING", raising=False)
        code, out, err = run_cli(capsys, "pbasis", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: refusing to enumerate at n=7: ceiling is 6")
        code, out, err = run_cli(capsys, "--ceiling", "7", "pbasis", *argv)
        if argv[0] == "to-element":
            assert code == 0 and out.count(" + ") == math.factorial(7) - 1
        else:
            assert code == 2 and "not in the span" in err

    def test_outside_span_is_error(self, capsys):
        code, _, err = run_cli(capsys, "pbasis", "from-element", "1*{1}->{1};{2}->{2}")
        assert code == 2
        assert "not in the span" in err


class TestCeilingFlag:
    def test_ceiling_flag_lowers_limit(self, capsys):
        import os

        before = os.environ.get("BLOCKPERM_CEILING")
        code, out, _ = run_cli(capsys, "--ceiling", "2", "count", "3")
        assert "enumeration skipped" in out
        assert os.environ.get("BLOCKPERM_CEILING") == before


def test_determinism_across_invocations(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "op", "product", "{1,2}->{1,2}", "{1}->{1}")
        outs.add(out)
    assert len(outs) == 1


def test_readme_cli_block_exits_0(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = [chunk.split("```", 1)[0] for chunk in section.split("```sh\n")[1:]]
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("blockperm ")
    ]
    assert len(blocks) == 2 and len(commands) == 13
    for argv in commands:
        code, _, err = run_cli(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv


def test_subprocess_entry_point():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "blockperm.cli", "series", "--terms", "4",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout) == {
        "counts": [1, 1, 3, 16, 131],
        "primitive_dims": [1, 2, 11, 98],
    }
