"""Run-config parsing: strict keys, lossless round-trips."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from ckls import ConfigError, load_config, parse_config


def base_config():
    return {
        "params": {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5, "r0": 1.0, "C": 1.0},
        "grid": {"t_end": 0.5, "n_steps": 64},
        "n_paths": 100,
        "seed": 42,
    }


class TestParse:
    @pytest.mark.parametrize("key", [None, "params", "grid", "output"])
    @pytest.mark.parametrize("value", [[], "x", 1.0, None])
    def test_non_object_rejected(self, key, value):
        """The config itself and its params, grid and output sections must
        be JSON objects."""
        obj = base_config()
        if key is None:
            obj = value
        else:
            obj[key] = value
        name = "config" if key is None else key
        with pytest.raises(ConfigError, match=f"^{name} must be an object"):
            parse_config(obj)

    def test_minimal_with_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.params.gamma == 1.5
        assert cfg.c == 1.0
        assert cfg.delta_rule == "derived"
        assert cfg.aux_variant == "derived"
        assert cfg.output_format == "csv"

    def test_c_optional(self):
        obj = base_config()
        del obj["params"]["C"]
        assert parse_config(obj).c is None

    def test_roundtrip_lossless(self):
        obj = base_config()
        obj["delta_rule"] = "paper"
        obj["output"] = {"format": "binary", "path": "x.bin"}
        cfg = parse_config(obj)
        again = parse_config(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(bogus=1),
            lambda o: o["params"].update(kappa=0.5),
            lambda o: o["grid"].update(dt=0.1),
            lambda o: o.update(output={"format": "csv", "compression": "gz"}),
            lambda o: o.update(scale_variant="paper"),
        ],
    )
    def test_unknown_keys_rejected(self, mutate):
        obj = base_config()
        mutate(obj)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(obj)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("params"),
            lambda o: o.pop("grid"),
            lambda o: o.pop("n_paths"),
            lambda o: o.pop("seed"),
        ],
    )
    def test_missing_required_rejected(self, mutate):
        obj = base_config()
        mutate(obj)
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(obj)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o["params"].update(C=0.0),
            lambda o: o["params"].update(a=-1.0),
            lambda o: o["grid"].update(n_steps=0),
            lambda o: o.update(n_paths=0),
            lambda o: o.update(seed=-1),
            lambda o: o.update(delta_rule="guessed"),
            lambda o: o.update(output={"format": "parquet"}),
            lambda o: o.update(output={"format": "json"}),
        ],
    )
    def test_bad_values_rejected(self, mutate):
        obj = base_config()
        mutate(obj)
        with pytest.raises(ConfigError):
            parse_config(obj)


class TestNoCoercion:
    """Counts must be JSON integers and reals finite numbers; nothing is
    truncated or converted on the way in."""

    @given(
        key=st.sampled_from(["n_paths", "seed", "n_steps"]),
        value=st.one_of(st.booleans(), st.floats(), st.text(max_size=3)),
    )
    def test_counts_must_be_integers(self, key, value):
        obj = base_config()
        (obj["grid"] if key == "n_steps" else obj)[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            parse_config(obj)

    @given(
        key=st.sampled_from(["a", "b", "sigma", "gamma", "r0", "C", "t_end"]),
        # an int past the float range compares below inf but has no float
        value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
    )
    def test_reals_must_be_finite(self, key, value):
        obj = base_config()
        (obj["grid"] if key == "t_end" else obj["params"])[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(obj)

    @given(
        key=st.sampled_from(["a", "b", "sigma", "gamma", "r0", "C", "t_end"]),
        value=st.one_of(st.booleans(), st.text(max_size=3), st.none()),
    )
    def test_reals_must_be_numbers(self, key, value):
        obj = base_config()
        if key == "C" and value is None:
            value = "1"  # "C": null means C left out
        (obj["grid"] if key == "t_end" else obj["params"])[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            parse_config(obj)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ['"b": 0.2', '"t_end": 0.5', '"n_paths": 100'])
    def test_json_constants_rejected(self, tmp_path, literal, field):
        text = json.dumps(base_config())
        assert field in text
        dest = tmp_path / "cfg.json"
        dest.write_text(text.replace(field, field.split(":")[0] + ": " + literal))
        with pytest.raises(ConfigError):
            load_config(dest)

    def test_null_c_is_c_left_out(self):
        obj = base_config()
        obj["params"]["C"] = None
        assert parse_config(obj).c is None

    @pytest.mark.parametrize("key,value,size", [
        ("C", 10**400, "an int of 1329 bits"),
        ("C", 10**5000, "an int of 16610 bits"),
        ("n_paths", -(10**5000), "a negative int of 16610 bits"),
        ("seed", 10**5000, "an int of 16610 bits"),
    ], ids=["C-401-digits", "C-5001-digits", "n_paths", "seed"])
    def test_int_past_float_range_echoed_by_its_size(self, key, value, size):
        """A library caller's int past the float range is named by its size:
        its digits would fill hundreds of characters, and past 4300 digits
        str() would raise in place of the message."""
        obj = base_config()
        (obj["params"] if key == "C" else obj)[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(obj)
        assert str(info.value).endswith(f"got {size}")
        assert len(str(info.value)) < 100


class TestLoad:
    def test_load_from_file(self, tmp_path):
        dest = tmp_path / "cfg.json"
        dest.write_text(json.dumps(base_config()))
        assert load_config(dest).seed == 42

    def test_bad_json(self, tmp_path):
        dest = tmp_path / "cfg.json"
        dest.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(dest)

    def test_int_past_digit_limit(self, tmp_path):
        """json refuses an int of more than 4300 digits with a bare ValueError."""
        dest = tmp_path / "cfg.json"
        dest.write_text(json.dumps(base_config()).replace('"b": 0.2', '"b": 1' + "0" * 5000))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(dest)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")
