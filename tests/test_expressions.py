import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from s2xs2.errors import DegreeTooHigh, ExpressionSyntaxError, UnknownVariable
from s2xs2.expressions import MAX_NESTING, MAX_SOURCE_BYTES, parse_hamiltonian
from s2xs2.hamiltonian import VARIABLES

ZERO = (0, 0, 0, 0, 0, 0)


def poly_eval(text, X):
    return parse_hamiltonian(text).polynomial().value(X)


def python_eval(text, row):
    env = dict(zip(VARIABLES, row))
    return eval(text, {"__builtins__": {}}, env)


class TestParsing:
    def test_zero(self):
        expr = parse_hamiltonian("0")
        assert expr.terms == ()
        assert expr.polynomial().terms == {}

    def test_single_variable(self):
        expr = parse_hamiltonian("z1")
        assert expr.to_text() == "z1"
        assert expr.terms == (((0, 0, 1, 0, 0, 0), 1.0),)
        grad = expr.polynomial().gradient(np.zeros((1, 6)))[0]
        assert np.array_equal(grad, [0, 0, 1, 0, 0, 0])

    def test_two_term_expression(self):
        expr = parse_hamiltonian("0.3*z1*z2 + 0.2*x1")
        assert expr.to_text() == "0.3*z1*z2 + 0.2*x1"
        assert expr.terms == (((0, 0, 1, 0, 0, 1), 0.3), ((1, 0, 0, 0, 0, 0), 0.2))
        H = expr.polynomial()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 6))
        G = H.gradient(X)
        eps = 1e-6
        for j in range(6):
            step = np.zeros(6)
            step[j] = eps
            fd = (H.value(X + step) - H.value(X - step)) / (2 * eps)
            assert np.abs(fd - G[:, j]).max() < 1e-8

    def test_precedence_and_unary_minus(self):
        # (-x1)*y1 prints unparenthesized; -(x1*y1) would print as "-(x1*y1)"
        expr = parse_hamiltonian("-x1*y1")
        assert expr.to_text() == "-x1*y1"
        assert expr.terms == (((1, 1, 0, 0, 0, 0), -1.0),)
        # left associative: x1 - (y1 - z1) would give z1 the coefficient +1
        expr2 = parse_hamiltonian("x1 - y1 - z1")
        assert expr2.to_text() == "x1 - y1 - z1"
        assert dict(expr2.terms)[(0, 0, 1, 0, 0, 0)] == -1.0

    def test_parenthesized_grouping(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 6))
        for text in ("(x1 + y1)*z2", "x1*(y1 - z1) + 0.5", "-(x1 + y2)", "2*-x1", "x2*-(-y2)"):
            vals = poly_eval(text, X)
            expected = [python_eval(text.replace("*-", "* -"), row) for row in X]
            assert np.abs(vals - np.array(expected)).max() < 1e-12

    def test_number_formats(self):
        for text, value in (("1.5", 1.5), (".5", 0.5), ("2e-3", 2e-3), ("1.25E+2", 125.0)):
            expr = parse_hamiltonian(text)
            assert expr.terms == ((ZERO, value),)
            assert expr.to_text() == repr(value)


class TestPrinting:
    CASES = (
        "0.3*z1*z2 + 0.2*x1",
        "-(x1 + y1)*z2",
        "x1 - (y1 - z1)",
        "-x1*-y1",
        "((x1))",
        "1.5*x2*y2*z2 - 0.25",
    )

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse_fixpoint(self, text):
        once = parse_hamiltonian(text)
        printed = once.to_text()
        twice = parse_hamiltonian(printed)
        assert twice.to_text() == printed
        assert twice.terms == once.terms

    @pytest.mark.parametrize("text, canonical", [
        ("-(x1*y1)", "-(x1*y1)"),
        ("-(x1 + y1)", "-(x1 + y1)"),
        ("-(-x1)", "--x1"),
        ("(x1 - y1) - z1", "x1 - y1 - z1"),
        ("x1*(y1*z1)", "x1*y1*z1"),
        ("2*(x1+y1)*(-z2)", "2.0*(x1 + y1)*-z2"),
        ("(x1+y1)", "x1 + y1"),
    ])
    def test_canonical_text(self, text, canonical):
        assert parse_hamiltonian(text).to_text() == canonical


# rows of eighths and dyadic constants keep both evaluations below exact or
# nearly so: a wrong coefficient shows up far above the 1e-12 tolerance
DYADIC_ROWS = np.random.default_rng(2).integers(-8, 9, size=(8, 6)) / 8.0
LEAVES = st.sampled_from(VARIABLES + ("0", "1", "3", "1.5", ".25", "1e0", "5E-1"))


def expressions(depth=4):
    """expr := term (('+' | '-') term)*, with parentheses nested at most depth deep."""
    base = LEAVES if depth == 0 else st.one_of(LEAVES, expressions(depth - 1).map("({})".format))
    factor = st.tuples(st.sampled_from(("", "-", "--")), base).map("".join)
    term = st.lists(factor, min_size=1, max_size=2).map("*".join)
    rest = st.lists(st.tuples(st.sampled_from((" + ", " - ")), term).map("".join), max_size=1)
    return st.tuples(term, rest).map(lambda parts: parts[0] + "".join(parts[1]))


# hypothesis' explain phase replays a failing example under a line tracer,
# which on these nested draws takes four times as long as finding and
# shrinking it; the shrunk example is reported without it
@settings(phases=[phase for phase in Phase if phase is not Phase.explain])
@given(expressions())
def test_print_reparse_fixpoint_and_value(text):
    try:
        expr = parse_hamiltonian(text)
    except DegreeTooHigh:
        return
    printed = expr.to_text()
    again = parse_hamiltonian(printed)
    assert again.to_text() == printed
    assert again.terms == expr.terms
    values = expr.polynomial().value(DYADIC_ROWS)
    expected = np.array([python_eval(text, row) for row in DYADIC_ROWS], dtype=float)
    assert np.abs(values - expected).max() <= 1e-12


class TestErrors:
    def test_syntax_error_position_and_expected(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_hamiltonian("x1 + * y1")
        assert err.value.position == 5
        assert "number" in err.value.expected

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_hamiltonian("(x1 + y1")
        assert err.value.position == 8

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_hamiltonian("x1 y1")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            parse_hamiltonian("x1 + q3")
        assert err.value.name == "q3"
        assert err.value.position == 5

    def test_byte_offsets_with_multibyte_prefix(self):
        # a two-byte UTF-8 character before the bad token shifts byte offsets
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_hamiltonian("é + x1")
        assert err.value.position == 0

    def test_degree_cap(self):
        with pytest.raises(DegreeTooHigh):
            parse_hamiltonian("x1*x1*x1*x1")
        with pytest.raises(DegreeTooHigh):
            parse_hamiltonian("(x1*x1)*(y1*y1)")

    def test_first_degree_overflow_is_the_one_raised(self):
        with pytest.raises(DegreeTooHigh, match="degree 4 exceeds"):
            parse_hamiltonian("(x1*x1*x1)*x1 + (y1*y1*y1)*(y1*y1)")
        with pytest.raises(DegreeTooHigh, match="degree 5 exceeds"):
            parse_hamiltonian("(y1*y1*y1)*(y1*y1) + (x1*x1*x1)*x1")

    def test_syntax_error_after_a_degree_overflow_wins(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_hamiltonian("x1*x1*x1*x1 + )")
        assert err.value.position == 14
        assert err.value.expected == {"number", "variable", "(", "-"}

    def test_unknown_variable_after_a_degree_overflow_wins(self):
        with pytest.raises(UnknownVariable) as err:
            parse_hamiltonian("x1*x1*x1*x1*q3")
        assert err.value.name == "q3"
        assert err.value.position == 12

    def test_source_size_cap(self):
        text = "x1 + " * 1000 + "x1"
        with pytest.raises(ExpressionSyntaxError):
            parse_hamiltonian(text)

    def test_nesting_past_the_limit_is_a_syntax_error_at_its_parenthesis(self):
        assert parse_hamiltonian("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING).to_text() == "x1"
        # 2047 is the deepest nesting within the size cap
        for text in ("(" * 2047 + "x1" + ")" * 2047, "(-" * 1364 + "x1" + ")" * 1364):
            assert len(text.encode()) <= MAX_SOURCE_BYTES
            with pytest.raises(ExpressionSyntaxError, match="nested deeper") as err:
                parse_hamiltonian(text)
            assert text[err.value.position] == "("
            assert text[:err.value.position].count("(") == MAX_NESTING

    def test_unary_minus_chains_within_the_size_cap(self):
        expr = parse_hamiltonian("-" * (MAX_SOURCE_BYTES - 3) + "x1")
        assert expr.terms == (((1, 0, 0, 0, 0, 0), -1.0),)
        assert expr.to_text() == "-" * (MAX_SOURCE_BYTES - 3) + "x1"
        assert parse_hamiltonian("-" * 4 + "(x1 + y1)").to_text() == "----(x1 + y1)"
        with pytest.raises(ExpressionSyntaxError, match="end of input") as err:
            parse_hamiltonian("-" * (MAX_SOURCE_BYTES - 1))
        assert err.value.position == MAX_SOURCE_BYTES - 1

    def test_division_not_in_grammar(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_hamiltonian("x1 / y1")


class TestExpansion:
    def test_cancellation(self):
        expr = parse_hamiltonian("x1*y1 - x1*y1 + z2")
        assert expr.polynomial().terms == {(0, 0, 0, 0, 0, 1): 1.0}

    def test_degree_three_allowed(self):
        expr = parse_hamiltonian("x1*y1*z1")
        assert expr.polynomial().terms == {(1, 1, 1, 0, 0, 0): 1.0}

    def test_long_flat_chain_within_the_size_cap(self):
        # 1200 operators at one level: the parse loops, it does not recurse per operator
        expr = parse_hamiltonian("x1+" * 800 + "0.5*x1*y1" + "-y1" * 400)
        assert expr.terms == (((0, 1, 0, 0, 0, 0), -400.0), ((1, 0, 0, 0, 0, 0), 800.0),
                              ((1, 1, 0, 0, 0, 0), 0.5))
