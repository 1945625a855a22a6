"""The argument contract of the closed-form layer.

Each element-wise function takes a float, a 0-d array, a list or an
array, and three rules shape its arguments:

- point: every x must be > 0, else DomainError (so NaN fails);
- horizon: t must be >= 0, else DomainError (so NaN fails);
- return: a float for a scalar or 0-d argument, an ndarray otherwise.

The values on valid input are pinned by SHA-256 digests of the outputs
for all four argument kinds; they were recorded before the rules moved
into ckls.numerics and must not change.
"""

import ast
import hashlib
import importlib
import io
import math
import pkgutil
import tokenize
from pathlib import Path

import numpy as np
import pytest

import ckls
from ckls import (
    CklsParams,
    DomainError,
    NoncentralChiSq,
    TimeGrid,
    derive_cir,
    drift_adjustment,
    exact_sqrt_level,
    explicit_rate,
    gronwall_bound,
    make_transform,
    mean_rate,
    noncentral_cdf,
    noncentral_pdf,
    rate_cdf,
    rate_density,
    scale_function_log_magnitude,
    transition_spec,
)

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)
SETS = {"high": HIGH, "low": LOW}

C, T = 2.0, 1.0
POINTS = [1e-3, 0.3, 0.7, 1.0, 2.5, 40.0]
SCALAR = 0.7
KINDS = {
    "float": lambda: SCALAR,
    "0-d": lambda: np.array(SCALAR),
    "list": lambda: list(POINTS),
    "array": lambda: np.array(POINTS),
}


def element_wise(p: CklsParams) -> dict:
    """Each element-wise function of the closed-form layer as a function
    of its element-wise argument alone, on parameter set p at C = 2, t = 1."""
    tr = make_transform(p, C)
    cir = derive_cir(p, tr)
    specs = {rule: transition_spec(p, cir, T, rule) for rule in ("derived", "paper")}
    chi = {rule: NoncentralChiSq(s.df, s.nonc) for rule, s in specs.items()}
    return {
        "f": tr.f,
        "fprime": tr.fprime,
        "fsecond": tr.fsecond,
        "inverse": tr.inverse,
        "rate_density[derived]": lambda x: rate_density(p, tr, specs["derived"], x),
        "rate_density[paper]": lambda x: rate_density(p, tr, specs["paper"], x),
        "rate_cdf[derived]": lambda x: rate_cdf(p, tr, specs["derived"], x),
        "rate_cdf[paper]": lambda x: rate_cdf(p, tr, specs["paper"], x),
        "noncentral_pdf[derived]": lambda x: noncentral_pdf(chi["derived"], x),
        "noncentral_pdf[paper]": lambda x: noncentral_pdf(chi["paper"], x),
        "noncentral_cdf[derived]": lambda x: noncentral_cdf(chi["derived"], x),
        "noncentral_cdf[paper]": lambda x: noncentral_cdf(chi["paper"], x),
        "drift_adjustment": lambda x: drift_adjustment(p, x),
        "explicit_rate": lambda z: explicit_rate(p, T, z),
        "exact_sqrt_level": lambda z: exact_sqrt_level(cir, p, T, z),
    }


FUNCTIONS = list(element_wise(HIGH))


def digest(values) -> str:
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in values])
    return hashlib.sha256(flat.tobytes()).hexdigest()[:16]


# SHA-256 (first 16 hex digits) of the outputs for float, 0-d, list and
# array arguments, in that order.
DIGESTS = {
    ("f", "high"): "3a2abd0022e08732",
    ("fprime", "high"): "0abc0570f17437ad",
    ("fsecond", "high"): "8abc7a76c8ac3590",
    ("inverse", "high"): "93ffe357e60a6765",
    ("rate_density[derived]", "high"): "43ec170a91f6b8ad",
    ("rate_density[paper]", "high"): "2f8c29aa10fb3fb4",
    ("rate_cdf[derived]", "high"): "7c9fe26beec3eae7",
    ("rate_cdf[paper]", "high"): "6dbacbd65dc43bbb",
    ("noncentral_pdf[derived]", "high"): "d090769be6013b4b",
    ("noncentral_pdf[paper]", "high"): "01fd7b234a9b8363",
    ("noncentral_cdf[derived]", "high"): "e1affbfaeb069d95",
    ("noncentral_cdf[paper]", "high"): "589304c1c705e976",
    ("drift_adjustment", "high"): "76851ea91b25d0c8",
    ("explicit_rate", "high"): "9c056688f4351857",
    ("exact_sqrt_level", "high"): "713d5fa195d9bf88",
    ("f", "low"): "490a32455038c94e",
    ("fprime", "low"): "ed0433d295e5f761",
    ("fsecond", "low"): "48abb147e3834f6f",
    ("inverse", "low"): "59186269d2629fd2",
    ("rate_density[derived]", "low"): "d909befda33cea2b",
    ("rate_density[paper]", "low"): "ac1dee72296bf1b3",
    ("rate_cdf[derived]", "low"): "6c413157b2865722",
    ("rate_cdf[paper]", "low"): "bcddde21915fcbb9",
    ("noncentral_pdf[derived]", "low"): "66eed66a7537e8ab",
    ("noncentral_pdf[paper]", "low"): "85ad5ecdfd774d5e",
    ("noncentral_cdf[derived]", "low"): "06dc453a9e979001",
    ("noncentral_cdf[paper]", "low"): "927b5fbe2ad80037",
    ("drift_adjustment", "low"): "76e6e4934fd22f5a",
    ("explicit_rate", "low"): "f0afc03e583b3936",
    ("exact_sqrt_level", "low"): "0a6d70c383d1c246",
}

# mean_rate at t = 0, 0.5, 2; gronwall_bound's two kinds at the same t;
# scale_function_log_magnitude (LOW only) at x = 0.5, 2 for both variants.
SCALAR_DIGESTS = {
    "high": "15f4e44c9c1330eb",
    "low": "943561e5f2cd8719",
}


def scalar_outputs(p: CklsParams) -> list:
    out = [mean_rate(p, t) for t in (0.0, 0.5, 2.0)]
    out += [gronwall_bound(p, t, kind).bound
            for kind in ("neg_moment", "frac_moment") for t in (0.0, 0.5, 2.0)]
    if p is LOW:
        out += [v for variant in ("paper", "derived") for x in (0.5, 2.0)
                for v in scale_function_log_magnitude(p, x, variant)]
    return out


@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_valid_input_values_are_pinned(name, set_name):
    fn = element_wise(SETS[set_name])[name]
    outs = [fn(make()) for make in KINDS.values()]
    assert digest(outs) == DIGESTS[name, set_name]
    # a scalar may differ from the array element in the last bit: numpy
    # evaluates some powers of a 0-d operand with libm and of an array
    # with its own loops
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[2], outs[3])


@pytest.mark.parametrize("set_name", SETS)
def test_scalar_functions_are_pinned(set_name):
    assert digest(scalar_outputs(SETS[set_name])) == SCALAR_DIGESTS[set_name]


@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_return_rule(name, set_name, kind):
    """float for a scalar or 0-d argument, ndarray otherwise; never a
    numpy scalar."""
    out = element_wise(SETS[set_name])[name](KINDS[kind]())
    if kind in ("float", "0-d"):
        assert type(out) is float
    else:
        assert type(out) is np.ndarray and out.shape == (len(POINTS),)


POINT_FUNCTIONS = ["f", "fprime", "fsecond", "inverse", "rate_density[derived]",
                   "rate_density[paper]", "drift_adjustment"]


@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("name", POINT_FUNCTIONS)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, -math.inf, [1.0, math.nan],
                                 np.array([[1.0, 0.0]])])
def test_point_rule(name, set_name, bad):
    label = "y" if name == "inverse" else "x"
    with pytest.raises(DomainError, match=f"{label} must be positive"):
        element_wise(SETS[set_name])[name](bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_point_rule_scale_function(bad):
    with pytest.raises(DomainError, match="x must be positive"):
        scale_function_log_magnitude(LOW, bad)


def horizon_calls(p: CklsParams) -> dict:
    cir = derive_cir(p, make_transform(p, C))
    return {
        "explicit_rate": lambda t: explicit_rate(p, t, 0.7),
        "exact_sqrt_level": lambda t: exact_sqrt_level(cir, p, t, 0.7),
        "mean_rate": lambda t: mean_rate(p, t),
        "gronwall_bound[neg]": lambda t: gronwall_bound(p, t, "neg_moment"),
        "gronwall_bound[frac]": lambda t: gronwall_bound(p, t, "frac_moment"),
    }


@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("name", list(horizon_calls(HIGH)))
@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, -math.inf])
def test_horizon_rule(name, set_name, bad):
    with pytest.raises(DomainError, match="t must be nonnegative"):
        horizon_calls(SETS[set_name])[name](bad)


@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("name", list(horizon_calls(HIGH)))
def test_horizon_zero_is_valid(name, set_name):
    horizon_calls(SETS[set_name])[name](0.0)


@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("rule", ["derived", "paper"])
def test_rate_cdf_nan_is_nan(set_name, rule):
    """0 below the support, NaN at a NaN point, as noncentral_cdf."""
    cdf = element_wise(SETS[set_name])[f"rate_cdf[{rule}]"]
    assert math.isnan(cdf(math.nan))
    got = cdf(np.array([math.nan, -1.0, 0.0, 1.0]))
    assert math.isnan(got[0]) and got[1] == got[2] == 0.0
    assert got[3] == cdf(1.0)


@pytest.mark.parametrize("n_steps", [2.5, True, np.True_, 4.0, "4"])
def test_count_rule(n_steps):
    """TimeGrid's step count is an integer, never a bool or a float."""
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TimeGrid(1.0, n_steps)


@pytest.mark.parametrize("n_steps", [4, np.int64(4), np.uint32(4)])
def test_count_rule_accepts_integers(n_steps):
    assert TimeGrid(1.0, n_steps).times.shape == (5,)


def test_every_export_is_defined():
    """Each name a ckls module lists in __all__ exists in that module."""
    for info in pkgutil.iter_modules(ckls.__path__):
        module = importlib.import_module(f"ckls.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"ckls.{info.name}.__all__ names undefined {missing}"


def _token_owners(match) -> set:
    """module.function of each token of the ckls sources that match
    accepts: the innermost function holding it, "<module>" outside any."""
    owners = set()
    for path in sorted(Path(ckls.__file__).parent.glob("*.py")):
        source = path.read_text()
        funcs = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if match(tok):
                line = tok.start[0]
                inner = [f for f in funcs if f.lineno <= line <= f.end_lineno]
                owner = max(inner, key=lambda f: f.lineno).name if inner else "<module>"
                owners.add(f"{path.stem}.{owner}")
    return owners


def test_private_streams_only_in_the_pinned_checks():
    """default_rng, a noise stream outside NoiseMatrix's rule, is named in
    code only by the two verify checks whose KS values are pinned."""
    owners = _token_owners(lambda tok: tok.type == tokenize.NAME and tok.string == "default_rng")
    assert owners == {"verify._law_ks", "verify.check_ncx2_battery"}


def test_noise_fit_check_only_in_the_kernel():
    """The check that a noise fits its grid, whose InputError says "does
    not fit", is made by euler_blocks alone, so no wrapper states it
    again; the wrapper-side require_grid_noise and step_columns, the
    second block path of increment rows, are named nowhere."""
    owners = _token_owners(lambda tok: "does not fit" in tok.string)
    assert owners == {"engine.euler_blocks"}
    gone = ("require_grid_noise", "step_columns")
    assert _token_owners(lambda tok: tok.type == tokenize.NAME and tok.string in gone) == set()
