import numpy as np
import pytest

from stlmask.core import InvalidIntervalError, NamedSignals, SmoothInterval, StepInterval
from stlmask.formula import (
    TRUE,
    Always,
    And,
    Eventually,
    Not,
    Or,
    ParseError,
    Pred,
    Until,
    format_formula,
    parse,
    temporal_depth,
    validate_against,
    variables,
)


class TestParse:
    def test_always_with_interval(self):
        assert parse("G[0,5] (x > 0)") == Always(Pred("x", ">", 0.0), StepInterval(0, 5))

    def test_until_with_interval(self):
        assert parse("(x > 0) U[1,3] (y < 2)") == Until(
            Pred("x", ">", 0.0), Pred("y", "<", 2.0), StepInterval(1, 3))

    def test_invalid_interval(self):
        with pytest.raises(InvalidIntervalError):
            parse("F[3,1] (x > 0)")

    def test_precedence(self):
        assert parse("x > 0 & y > 1 | z > 2") == Or(
            And(Pred("x", ">", 0.0), Pred("y", ">", 1.0)), Pred("z", ">", 2.0))

    def test_until_binds_loosest_and_left_associates(self):
        f = parse("a > 0 U b > 0 U c > 0")
        assert f == Until(Until(Pred("a", ">", 0.0), Pred("b", ">", 0.0)), Pred("c", ">", 0.0))

    def test_unary_chain(self):
        assert parse("~G F (x > 0)") == Not(Always(Eventually(Pred("x", ">", 0.0))))

    def test_numbers(self):
        assert parse("x > -1.5e2") == Pred("x", ">", -150.0)
        assert parse("x <= .5") == Pred("x", "<=", 0.5)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("G[0,5]\n(x + 0)")
        assert err.value.line == 2

    @pytest.mark.parametrize("bad", ["", "(x > 0", "x >", "G[1] (x>0)", "x 0", "TRUE TRUE"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_reserved_words_not_variables(self):
        with pytest.raises(ParseError):
            parse("U > 0")

    @pytest.mark.parametrize("text, number", [("s > 1e400", "1e400"),
                                              ("G[0,1] (s < -1e400)", "-1e400")])
    def test_non_finite_threshold_has_position(self, text, number):
        with pytest.raises(ParseError, match="threshold") as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, text.index(number) + 1)

    @pytest.mark.parametrize("threshold", [float("inf"), -float("inf"), float("nan")])
    def test_pred_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            Pred("s", ">", threshold)


class TestFormat:
    @pytest.mark.parametrize("f,text", [
        (Always(Pred("x", ">", 0.0), StepInterval(0, 5)), "G[0,5] (x > 0)"),
        (Not(TRUE), "~TRUE"),
        (And(Pred("x", ">", 0.0), Pred("y", ">", 1.0)), "(x > 0) & (y > 1)"),
    ])
    def test_spec_fixtures(self, f, text):
        assert format_formula(f) == text
        assert parse(text) == f

    def test_operator_sugar(self):
        f = ~(Pred("x", ">", 0.0) & Pred("y", "<", 1.0)) | TRUE
        assert parse(format_formula(f)) == f

    def test_round_trip_random_asts(self):
        rng = np.random.default_rng(1234)

        def rand(depth):
            choices = ["pred", "true", "not", "and", "or", "F", "G", "U"]
            op = rng.choice(choices[:2] if depth == 0 else choices)
            if op == "pred":
                return Pred(str(rng.choice(["x", "y", "spd", "v_1"])),
                            str(rng.choice([">", "<", ">=", "<="])),
                            float(np.round(rng.normal() * 10, 3)))
            if op == "true":
                return TRUE
            if op == "not":
                return Not(rand(depth - 1))
            if op == "and":
                return And(rand(depth - 1), rand(depth - 1))
            if op == "or":
                return Or(rand(depth - 1), rand(depth - 1))
            iv = None if rng.random() < 0.4 else StepInterval(
                int(rng.integers(0, 10)), int(rng.integers(10, 20)))
            if op == "F":
                return Eventually(rand(depth - 1), iv)
            if op == "G":
                return Always(rand(depth - 1), iv)
            return Until(rand(depth - 1), rand(depth - 1), iv)

        for _ in range(1000):
            f = rand(int(rng.integers(1, 6)))
            assert parse(format_formula(f)) == f


class TestQueries:
    def test_depth_invariance_formula(self):
        phi = Always(And(Pred("x", ">", 0.0), Pred("y", ">", 0.0)))
        assert temporal_depth(phi) == 0

    def test_depth_stabilization_formula(self):
        phi = Eventually(Always(And(Pred("x", ">", 0.0), Pred("y", ">", 0.0))))
        assert temporal_depth(phi) == 1

    def test_depth_pred_only(self):
        assert temporal_depth(Pred("x", ">", 0.0)) == 0

    def test_depth_plain_until(self):
        assert temporal_depth(Until(Pred("x", ">", 0.0), Pred("y", ">", 0.0))) == 1

    def test_validate_against(self):
        sig = NamedSignals.from_arrays({"x": [1.0, 2.0]})
        assert validate_against(parse("x > 0"), sig) == []
        assert validate_against(parse("y > 0"), sig) == ["y"]
        assert validate_against(TRUE, sig) == []

    def test_smooth_interval_renders_but_does_not_round_trip(self):
        f = Always(Pred("x", ">", 0.0), SmoothInterval(0.2, 0.6, 8.0))
        text = format_formula(f)
        assert "0.2" in text and "0.6" in text
        with pytest.raises(ParseError):
            parse(text)

    def test_variables_and_depth_reject_non_formula(self):
        with pytest.raises(TypeError):
            variables("x > 0")
        with pytest.raises(TypeError):
            variables(Not("x > 0"))
        with pytest.raises(TypeError):
            temporal_depth(And(Pred("x", ">", 0.0), 3))


P, Q = Pred("x", ">", 1.0), Pred("y", "<=", -2.5)
EVERY_NODE = [
    TRUE,
    P,
    Not(P),
    And(P, Q),
    Or(P, Q),
    Eventually(P, StepInterval(1, 4)),
    Always(P, SmoothInterval(0.2, 0.6, 8.0)),
    Until(P, Q, StepInterval(0, 3)),
    Until(P, Q),
]


class TestChildren:
    @pytest.mark.parametrize("node", EVERY_NODE, ids=lambda n: type(n).__name__)
    def test_round_trip(self, node):
        kids = node.children()
        assert node.replace_children(*kids) == node
        swapped = node.replace_children(*(Not(k) for k in kids))
        assert type(swapped) is type(node)
        assert swapped.children() == tuple(Not(k) for k in kids)
        # everything but the children is kept, e.g. the interval
        assert swapped.replace_children(*kids) == node

    @pytest.mark.parametrize("bad", [(0, 2), "abc", 3, [StepInterval(0, 2)]], ids=repr)
    def test_temporal_nodes_reject_what_is_not_an_interval(self, bad):
        for make in (lambda iv: Eventually(P, iv), lambda iv: Always(P, iv),
                     lambda iv: Until(P, Q, iv)):
            with pytest.raises(InvalidIntervalError):
                make(bad)

    def test_until_rejects_a_smooth_interval(self):
        with pytest.raises(TypeError):
            Until(P, Q, SmoothInterval(0.2, 0.6, 8.0))

    def test_arity(self):
        assert [len(n.children()) for n in EVERY_NODE] == [0, 0, 1, 2, 2, 1, 1, 2, 2]
        with pytest.raises(ValueError):
            And(P, Q).replace_children(P)
        with pytest.raises(ValueError):
            TRUE.replace_children(P)
