"""Spec layer: dict/TOML round-tripping, validation, overrides."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.spec import ComponentSpec, ScenarioSpec, SpecError


def rich_spec() -> ScenarioSpec:
    """A spec exercising every value shape (nested dicts, lists, bools)."""

    return ScenarioSpec(
        name="test.rich",
        model="cluster-online",
        description='quotes "inside" and backslash \\ survive',
        tags=("a", "b"),
        metrics=("makespan", "mean_stretch"),
        repetitions=2,
        seed=99,
        platform=ComponentSpec("count", {"machine_count": 32}),
        workload=ComponentSpec(
            "moldable",
            {
                "n_jobs": 20,
                "runtime_range": [0.5, 10.0],
                "churn": {"n_outages": 3, "procs": 2},
            },
        ),
        arrival=ComponentSpec("poisson", {"rate": 2.0}),
        policy=ComponentSpec("backfill", {"flag": True}),
        sweep={"policy.kind": ["fifo", "backfill"], "workload.n_jobs": [10, 20]},
        smoke={
            "repetitions": 1,
            "workload.n_jobs": 5,
            "sweep": {"policy.kind": ["backfill"]},
        },
    ).validate()


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = rich_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_toml_round_trip(self):
        spec = rich_spec()
        text = spec.to_toml()
        assert ScenarioSpec.from_toml(text).to_dict() == spec.to_dict()

    def test_toml_is_parseable_by_tomllib(self):
        import tomllib

        data = tomllib.loads(rich_spec().to_toml())
        assert data["name"] == "test.rich"
        assert data["workload"]["churn"] == {"n_outages": 3, "procs": 2}

    def test_every_builtin_round_trips(self):
        from repro.scenarios import all_specs

        for spec in all_specs():
            assert ScenarioSpec.from_toml(spec.to_toml()).to_dict() == spec.to_dict()
            assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_invalid_toml_raises_spec_error(self):
        with pytest.raises(SpecError, match="invalid scenario TOML"):
            ScenarioSpec.from_toml("name = [unclosed")


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        data = rich_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(SpecError, match="unknown spec keys"):
            ScenarioSpec.from_dict(data)

    def test_missing_required_key_rejected(self):
        data = rich_spec().to_dict()
        del data["workload"]
        with pytest.raises(SpecError, match="missing required key"):
            ScenarioSpec.from_dict(data)

    def test_bad_name_rejected(self):
        with pytest.raises(SpecError, match="invalid scenario name"):
            rich_spec().evolve(name="Has Spaces")

    def test_unknown_model_rejected(self):
        with pytest.raises(SpecError, match="unknown model"):
            rich_spec().evolve(model="quantum")

    def test_repetitions_must_be_positive(self):
        with pytest.raises(SpecError, match="repetitions"):
            rich_spec().evolve(repetitions=0)

    def test_sweep_axis_needs_section_prefix(self):
        with pytest.raises(SpecError, match="section.param"):
            rich_spec().evolve(sweep={"n_jobs": [1, 2]})

    def test_sweep_axis_unknown_section(self):
        with pytest.raises(SpecError, match="unknown section"):
            rich_spec().evolve(sweep={"dessert.flavour": ["vanilla"]})

    def test_sweep_axis_needs_values(self):
        with pytest.raises(SpecError, match="non-empty list"):
            rich_spec().evolve(sweep={"policy.kind": []})

    def test_component_needs_kind(self):
        with pytest.raises(SpecError, match="missing the 'kind' key"):
            ComponentSpec.from_dict({"n_jobs": 3}, section="workload")

    def test_integral_float_counts_are_accepted(self):
        data = {**rich_spec().to_dict(), "repetitions": 2.0, "seed": 7.0}
        spec = ScenarioSpec.from_dict(data)
        assert (spec.repetitions, spec.seed) == (2, 7)
        assert type(spec.repetitions) is int and type(spec.seed) is int


class TestOverrides:
    def test_with_overrides_sets_params_and_kind(self):
        spec = rich_spec()
        derived = spec.with_overrides({"workload.n_jobs": 7, "policy.kind": "fifo"})
        assert derived.workload.params["n_jobs"] == 7
        assert derived.policy.kind == "fifo"
        # The original spec is untouched (copies all the way down).
        assert spec.workload.params["n_jobs"] == 20
        assert spec.policy.kind == "backfill"

    def test_smoke_spec_applies_all_override_kinds(self):
        smoke = rich_spec().smoke_spec()
        assert smoke.repetitions == 1
        assert smoke.workload.params["n_jobs"] == 5
        assert smoke.sweep == {"policy.kind": ["backfill"]}

    def test_smoke_defaults_to_one_repetition(self):
        spec = rich_spec().evolve(smoke={})
        assert spec.smoke_spec().repetitions == 1

    def test_evolve_validates(self):
        with pytest.raises(SpecError):
            rich_spec().evolve(sweep={"bad": [1]})


#: A minimal valid spec as top-level TOML assignments (key -> TOML value).
BASE_ASSIGNMENTS = {
    "name": '"hostile.base"',
    "model": '"offline"',
    "workload": '{kind = "moldable"}',
    "platform": '{kind = "count"}',
}
BASE_TOML = "".join(f"{key} = {value}\n" for key, value in BASE_ASSIGNMENTS.items())


def with_line(line: str) -> str:
    """The base spec with the top-level assignment ``line`` added or replacing its key."""

    key = line.split("=", 1)[0].strip()
    kept = [other for other in BASE_TOML.splitlines(keepends=True)
            if not other.startswith(f"{key} =")]
    return line + "\n" + "".join(kept)


class TestHostileInput:
    """Malformed spec files fail with :class:`SpecError`, never a crash."""

    @pytest.mark.parametrize("key", ["repetitions", "seed"])
    @pytest.mark.parametrize("value", [
        "inf", "-inf", "nan", "1e400", '"abc"', '"3"', "[1]", "2.7", "true", "{a = 1}",
    ])
    def test_bad_integer_field_names_the_key(self, key, value):
        with pytest.raises(SpecError, match=key):
            ScenarioSpec.from_toml(with_line(f"{key} = {value}"))

    @pytest.mark.parametrize("value", ["5", "[1]", "{a = 1}", "true"])
    def test_non_string_name(self, value):
        with pytest.raises(SpecError, match="name"):
            ScenarioSpec.from_toml(with_line(f"name = {value}"))

    @pytest.mark.parametrize("lines", [
        "tags = 5", "metrics = 5", "tags = [1]", "description = 5",
        "[sweep]\n'workload.n_jobs' = 5",
        "[smoke]\nrepetitions = nan",
    ], ids=["tags-int", "metrics-int", "tags-int-items", "description-int",
            "sweep-axis-scalar", "smoke-repetitions-nan"])
    def test_wrongly_typed_fields(self, lines):
        with pytest.raises(SpecError):
            ScenarioSpec.from_toml(BASE_TOML + lines + "\n")

    def test_deeply_nested_toml_array(self):
        with pytest.raises(SpecError, match="nested too deeply"):
            ScenarioSpec.from_toml(BASE_TOML + "deep = " + "[" * 5000 + "\n")

    def test_over_long_toml_integer(self):
        with pytest.raises(SpecError, match="invalid scenario TOML"):
            ScenarioSpec.from_toml(with_line("seed = " + "9" * 5000))

    def test_deeply_nested_python_value(self):
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        data = ScenarioSpec.from_toml(BASE_TOML).to_dict()
        data["workload"] = {"kind": "moldable", "deep": deep}
        with pytest.raises(SpecError, match="nested too deeply"):
            ScenarioSpec.from_dict(data)

    def test_cli_reports_a_bad_spec_file_without_a_traceback(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        spec_file = tmp_path / "bad.toml"
        spec_file.write_text(with_line("repetitions = inf"))
        assert main(["run", "--spec", str(spec_file)]) == 2
        assert "repetitions" in capsys.readouterr().err


def _toml_float(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


_SCALARS = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(str),
    st.floats().map(_toml_float),
    st.sampled_from(["true", "false", '""', '"abc"', '"hostile.x"', '"offline"', "1979-05-27"]),
    st.text(alphabet=st.characters(exclude_characters='"\\', exclude_categories=("Cc", "Cs")),
            max_size=8).map(lambda text: f'"{text}"'),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"),
        st.dictionaries(st.sampled_from(["kind", "n", "sweep", "repetitions", "'workload.n'"]),
                        inner, max_size=3)
        .map(lambda table: "{" + ", ".join(f"{k} = {v}" for k, v in table.items()) + "}"),
    ),
    max_leaves=8,
)
_KEYS = st.sampled_from([
    "name", "model", "description", "tags", "metrics", "repetitions", "seed",
    "workload", "arrival", "platform", "policy", "sweep", "smoke", "bogus",
])


@st.composite
def toml_ish(draw):
    """Mostly a valid spec with a few hostile top-level values; sometimes garbage."""

    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=60))
    assignments = {**BASE_ASSIGNMENTS, **draw(st.dictionaries(_KEYS, _VALUES, max_size=4))}
    return "".join(f"{key} = {value}\n" for key, value in assignments.items())


@settings(max_examples=200, deadline=None)
@given(text=toml_ish())
def test_arbitrary_toml_ish_text_gives_a_spec_or_spec_error(text):
    try:
        spec = ScenarioSpec.from_toml(text)
    except SpecError:
        return
    assert isinstance(spec, ScenarioSpec)
