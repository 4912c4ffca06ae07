"""One decoder for every config value: the same input has the same
outcome through experiment ``--set``, scenario ``--set`` and scenario
spec JSON."""

import json

import pytest

from repro.api.registry import get_experiment
from repro.scenarios import ScenarioSpec, apply_overrides, get_scenario

# A logical field, as (E3 config field, scenario spec path).
FIELDS = {
    "float tuple": ("prior_offset", "init.offset"),
    "int": ("n_particles", "n_particles"),
    "misspelt float tuple": ("prior_offsett", "init.offsett"),
}


def experiment_set(path, text, _json_value):
    return get_experiment("E3").make_config({path: text})


def scenario_set(path, text, _json_value):
    return apply_overrides(get_scenario("room-baseline"), {path: text})


def scenario_json(path, _text, json_value):
    payload = get_scenario("room-baseline").to_jsonable()
    *sections, name = path.split(".")
    node = payload
    for section in sections:
        node = node[section]
    node[name] = json_value
    return ScenarioSpec.from_json(json.dumps(payload))


ENTRY_POINTS = [
    pytest.param(experiment_set, 0, id="experiment --set"),
    pytest.param(scenario_set, 1, id="scenario --set"),
    pytest.param(scenario_json, 1, id="scenario JSON"),
]

# (field, --set text, JSON value, stored value or error pattern)
CASES = [
    pytest.param(
        "float tuple", "(1, 0, 0, 0)", [1, 0, 0, 0], (1.0, 0.0, 0.0, 0.0),
        id="ints-in-a-float-tuple-become-floats",
    ),
    pytest.param(
        "float tuple", '(0.4, "a", 0.1, 0.2)', [0.4, "a", 0.1, 0.2],
        r"'(prior_offset|init\.offset)\[1\]' expects float",
        id="mistyped-tuple-element",
    ),
    pytest.param(
        "misspelt float tuple", "(1, 0, 0, 0)", [1, 0, 0, 0],
        r"did you mean '(prior_)?offset'",
        id="did-you-mean",
    ),
    pytest.param(
        "int", '"300"', "300", "expects int", id="string-for-a-number",
    ),
    pytest.param("int", "True", True, "expects int", id="bool-is-not-an-int"),
    pytest.param("int", "250", 250, 250, id="int"),
]


def field_of(config, path):
    for part in path.split("."):
        config = getattr(config, part)
    return config


@pytest.mark.parametrize("decode, column", ENTRY_POINTS)
@pytest.mark.parametrize("field, text, json_value, outcome", CASES)
def test_every_entry_point_decodes_alike(
    decode, column, field, text, json_value, outcome
):
    path = FIELDS[field][column]
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            decode(path, text, json_value)
        return
    config = decode(path, text, json_value)
    value = field_of(config, path)
    assert repr(value) == repr(outcome)  # the types too: 1.0, not 1
    if isinstance(config, ScenarioSpec):
        canonical = config.to_json()
        assert ScenarioSpec.from_json(canonical).to_json() == canonical


def test_set_text_is_literal_parsed_but_spec_json_strings_are_not():
    spec = apply_overrides(get_scenario("room-baseline"), {"n_particles": "300"})
    assert spec.n_particles == 300
    config = get_experiment("E3").make_config({"n_particles": "300"})
    assert config.n_particles == 300
    with pytest.raises(ValueError, match="expects int"):
        ScenarioSpec.from_jsonable({"name": "x", "n_particles": "300"})


def test_optional_pair_takes_none_or_two_floats_on_both_scenario_paths():
    # urban-canyon-gps-denied pins z_range to a pair; the field's declared
    # default is None, so None is a valid value on every path.
    base = get_scenario("urban-canyon-gps-denied")
    assert base.init.z_range == (1.0, 3.5)
    assert apply_overrides(base, {"init.z_range": "None"}).init.z_range is None
    payload = base.to_jsonable()
    payload["init"]["z_range"] = None
    assert ScenarioSpec.from_jsonable(payload).init.z_range is None
    widened = apply_overrides(base, {"init.z_range": "(1, 4)"}).init.z_range
    assert widened == (1.0, 4.0) and all(type(v) is float for v in widened)
    with pytest.raises(ValueError, match="None or a 2-tuple"):
        apply_overrides(base, {"init.z_range": "(1, 2, 3)"})


def test_a_field_and_a_field_inside_it_cannot_both_be_set():
    with pytest.raises(ValueError, match="overlaps another override"):
        apply_overrides(
            get_scenario("room-baseline"),
            {"trajectory.n_steps": "8", "trajectory": "8"},
        )


def test_set_text_for_a_str_field_is_kept_unless_it_spells_a_str():
    scn = get_experiment("SCN")
    json_text = '{"name": "t", "description": "d"}'
    assert scn.make_config({"spec": json_text}).spec == json_text
    assert scn.make_config({"spec": "[1, 2]"}).spec == "[1, 2]"
    # A bare word and a quoted string decode as they always did.
    assert scn.make_config({"scenario": "room-baseline"}).scenario == (
        "room-baseline"
    )
    assert scn.make_config({"scenario": '"room-baseline"'}).scenario == (
        "room-baseline"
    )
    spec = apply_overrides(get_scenario("room-baseline"), {"description": "(1, 2)"})
    assert spec.description == "(1, 2)"
    # Non-str fields still literal-parse.
    assert scn.make_config({"seed": "3"}).seed == 3
