"""Experiment runner: config handling, artifacts, determinism, exit codes."""
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__

import qspr
from qspr.cases import KAUSAITE2007, LAHIRI1999, CaseStudy, resolve_case
from qspr.cli import build_parser, main, run_experiment
from qspr.experiment import MAX_N_NU, ExperimentConfig, build_case
from qspr.probes import DEFAULT_TMSD_GAIN, ProbeKind, ProbeState
from qspr.simulate import RESULT_BUDGET_BYTES


def tiny_config(out_dir, **kwargs) -> ExperimentConfig:
    defaults = dict(
        case="kausaite2007",
        states=("tmc", "tmf"),
        n_values=(10.0,),
        nu_values=(1000,),
        m_values=(3,),
        p=8,
        seed=7,
        output_dir=str(out_dir),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def forbid_reconstruction(monkeypatch):
    """Fail the test if a command reaches the case's Fresnel reconstruction."""
    import qspr.experiment as experiment

    def never(*args, **kwargs):
        raise AssertionError("the case was reconstructed")

    monkeypatch.setattr(experiment, "reconstruct_transmittance_sensorgram", never)


def python_output(code: str) -> str:
    """The stripped stdout of ``code`` run in a fresh interpreter that imports this qspr."""
    src = str(Path(qspr.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestResolveCase:
    def test_kausaite_constants(self):
        case = resolve_case("kausaite2007")
        assert case.stack.metal_thickness_nm == 50.0
        assert case.stack.wavelength_nm == 670.0
        assert case.kinetics.L0 == 274e-9
        assert case.kinetics.tau_s == 1100.0

    def test_lahiri_constants(self):
        case = resolve_case("lahiri1999")
        assert case.stack.metal_thickness_nm == 38.0
        assert case.stack.theta_in_deg == 66.21
        assert case.kinetics.L0 == 2.1
        assert case.nu_default == 100_000

    def test_unknown_case_lists_available(self):
        with pytest.raises(ValueError, match="kausaite2007.*lahiri1999"):
            resolve_case("unknown")


class TestConfig:
    def test_requires_states_and_sweep(self):
        with pytest.raises(ValueError):
            ExperimentConfig(states=())
        with pytest.raises(ValueError):
            ExperimentConfig(n_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(p=0)
        with pytest.raises(ValueError):
            ExperimentConfig(states=("tmx",))

    def test_custom_needs_overrides(self):
        with pytest.raises(ValueError, match="custom"):
            ExperimentConfig(case="custom")

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig(states=("tmf", "tmf"))

    def test_round_trip_through_dict(self):
        cfg = ExperimentConfig(states=("tmf",), nu_values=(100, 200), seed=3)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "key,value",
        [
            ("p", 3.7),
            ("seed", True),
            ("nu_values", (10.5,)),
            ("m_values", (2.0,)),
            ("n_values", (True,)),
            ("eta_a", True),
            ("tmsd_gain", "4.5"),
            ("states", "tmc"),
        ],
        ids=["p-float", "seed-bool", "nu-float", "m-float", "n-bool", "eta-bool", "gain-str", "states-str"],
    )
    def test_fields_built_in_python_are_typed_as_json_loads_them(self, key, value):
        # a config whose manifest could not replay it is refused when it is
        # built, with the JSON loader's message
        with pytest.raises(ValueError) as built:
            ExperimentConfig(**{key: value})
        with pytest.raises(ValueError) as loaded:
            ExperimentConfig.from_dict({key: list(value) if isinstance(value, tuple) else value})
        assert str(built.value) == str(loaded.value)
        assert str(built.value).startswith(f"config key {key!r} must be ")

    def test_loading_checks_each_key_once(self, monkeypatch):
        checked = Counter()

        def counting(where, key, value, hint):
            checked[key] += 1
            return check(where, key, value, hint)

        check = qspr.cases.require_json_type
        monkeypatch.setattr(qspr.cases, "require_json_type", counting)
        monkeypatch.setattr(qspr.experiment, "require_json_type", counting)
        cfg = ExperimentConfig.from_dict({"states": ["tmc"], "m_values": [2], "p": 5})
        assert checked == Counter({f.name: 1 for f in dataclasses.fields(ExperimentConfig)})
        checked.clear()
        dataclasses.replace(cfg, p=1500)
        assert set(checked.values()) == {1}
        # a custom case's nested classes check their own keys, which no __post_init__ repeats
        checked.clear()
        build_case(ExperimentConfig(case="custom", overrides=KAUSAITE2007.to_dict()))
        assert checked["k_a"] == checked["n_prism"] == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"cases": "kausaite2007"})

    def test_custom_case_built_from_overrides(self):
        cfg = ExperimentConfig(
            case="custom",
            overrides={
                "stack": {
                    "wavelength_nm": 700.0,
                    "n_prism": 1.52,
                    "eps_metal": [-16.0, 1.1],
                    "metal_thickness_nm": 45.0,
                    "theta_in_deg": 69.0,
                },
                "kinetics": {"k_a": 5e3, "k_d": 6e-3, "L0": 3e-7, "tau_s": 900.0},
                "angular_amplitude_deg": 0.5,
                "buffer_index": 1.3385,
                "grid": {"t_start": 0.0, "t_end": 1800.0, "step": 10.0},
            },
        )
        case = build_case(cfg)
        assert case.stack.eps_metal == complex(-16.0, 1.1)
        assert case.kinetics.k_s == pytest.approx(5e3 * 3e-7 + 6e-3)


def json_values(floats):
    scalars = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=6)
    return scalars | st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    )


# json.loads reads NaN, Infinity and 1e999 as floats, so documents can hold them
JSON_VALUES = json_values(st.floats())
CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)]
VALID_CONFIGS = st.builds(
    ExperimentConfig,
    case=st.sampled_from(["kausaite2007", "lahiri1999"]),
    scenario=st.sampled_from(["standard", "optimized", "single_mode"]),
    eta_a=st.floats(0.01, 1.0),
    states=st.lists(
        st.sampled_from(["tmc", "tmf", "tmsv", "tmsd"]), min_size=1, unique=True
    ).map(tuple),
    tmsd_gain=st.floats(1.01, 10.0),
    # N >= 9 keeps every TMSD state valid (N >= G - 1) for the gains drawn above
    n_values=st.lists(st.floats(9.0, 1e4), min_size=1, max_size=3, unique=True).map(tuple),
    nu_values=st.none()
    | st.lists(st.integers(1, 10**6), min_size=1, max_size=3, unique=True).map(tuple),
    m_values=st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True).map(tuple),
    p=st.integers(2, 5000),
    seed=st.integers(0, 2**63 - 1),
    output_dir=st.text(max_size=12),
    # finite only: NaN != NaN, so a config holding one cannot equal its round trip
    overrides=st.none()
    | st.dictionaries(
        st.text(max_size=6),
        json_values(st.floats(allow_nan=False, allow_infinity=False)),
        max_size=3,
    ),
)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TestConfigDocuments:
    @given(VALID_CONFIGS)
    @settings(deadline=None)
    def test_config_round_trip_through_json(self, cfg):
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @given(st.sampled_from(CONFIG_KEYS), JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_gives_typed_fields_or_value_error(self, key, value):
        try:
            cfg = ExperimentConfig.from_dict({key: value})
        except ValueError:
            return
        assert all(isinstance(v, str) for v in (cfg.case, cfg.scenario, cfg.output_dir))
        assert _number(cfg.eta_a) and _number(cfg.tmsd_gain)
        assert math.isfinite(cfg.eta_a) and math.isfinite(cfg.tmsd_gain)
        assert type(cfg.p) is int and type(cfg.seed) is int
        assert isinstance(cfg.states, tuple) and all(isinstance(s, str) for s in cfg.states)
        assert isinstance(cfg.n_values, tuple) and all(map(_number, cfg.n_values))
        for ints in (cfg.m_values, cfg.nu_values or ()):
            assert isinstance(ints, tuple) and all(type(v) is int for v in ints)
        assert cfg.overrides is None or isinstance(cfg.overrides, dict)

    @pytest.mark.parametrize("case", [KAUSAITE2007, LAHIRI1999], ids=lambda c: c.name)
    def test_case_round_trip_through_json(self, case):
        assert CaseStudy.from_dict(json.loads(json.dumps(case.to_dict()))) == case

    def test_case_output_feeds_overrides(self, tmp_path, capsys):
        assert main(["case", "kausaite2007"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == KAUSAITE2007.to_dict()
        run_experiment(tiny_config(tmp_path / "plain"))
        run_experiment(tiny_config(tmp_path / "fed", overrides=printed))
        run_experiment(tiny_config(tmp_path / "custom", case="custom", overrides=printed))
        plain = (tmp_path / "plain" / "results.csv").read_bytes()
        assert (tmp_path / "fed" / "results.csv").read_bytes() == plain
        custom = read_rows(tmp_path / "custom" / "results.csv")
        assert [{**row, "case": "kausaite2007"} for row in custom] == read_rows(
            tmp_path / "plain" / "results.csv"
        )

    def test_custom_case_without_reported_angle(self):
        overrides = KAUSAITE2007.to_dict()
        del overrides["reported_theta0_deg"], overrides["nu_default"]
        case = build_case(ExperimentConfig(case="custom", overrides=overrides))
        assert case.reported_theta0_deg is None and case.nu_default == 1000
        assert json.loads(json.dumps(case.to_dict()))["reported_theta0_deg"] is None

    @pytest.mark.parametrize(
        "doc",
        [
            {"p": "200"},
            {"p": True},
            {"seed": "1"},
            {"eta_a": "x"},
            {"n_values": 10},
            {"overrides": [1]},
            {"overrides": {"kinetcs": {"k_a": 1e4}}},
            {"overrides": {"nu_defualt": 10}},
            {"overrides": {"stack": {"n_prism": 1.6}}},
            {"overrides": {"kinetics": {"k_a": 1e4}}},
            {"overrides": {"kinetics": {**KAUSAITE2007.to_dict()["kinetics"], "k_s": 0.01}}},
            {"m_values": [0]},
            {"n_values": [10, 0]},
            {"states": ["tmsd"], "n_values": [10, 1]},  # TMSD needs N >= G - 1 = 3.5
            {"nu_values": [100, 0]},
            {"overrides": {"nu_default": 0}},
            # raw JSON text: numbers that json.loads reads as NaN or +/-inf
            '{"states": ["tmc"], "tmsd_gain": NaN}',
            '{"eta_a": Infinity}',
            '{"n_values": [1e999]}',
            '{"overrides": {"buffer_index": NaN}}',
            '{"overrides": {"angular_amplitude_deg": Infinity}}',
            {"states": ["tmc"], "n_values": [10, 10.0], "m_values": [2], "p": 3},
            {"nu_values": [100, 1000, 100]},
            {"m_values": [2, 2]},
            {"states": ["tmc", "tmf"], "m_values": [2], "p": 1},  # no precision from one set
            # k_a*L0 lost against k_d in k_s: k_a cannot be recovered
            {"overrides": {"kinetics": {**KAUSAITE2007.to_dict()["kinetics"], "L0": 5e-324}}},
            # N >= G - 1 holds, but the TMSD midpoint map (N <= 1e4) would have no rows
            {"states": ["tmsd"], "tmsd_gain": 2e4, "n_values": [2e4]},
            # integers beyond int64, which numpy cannot hold
            {"states": ["tmc"], "nu_values": [2**64], "m_values": [1], "p": 2},
            {"overrides": {"nu_default": 2**64}},
        ],
    )
    def test_invalid_document_exits_2(self, tmp_path, capsys, doc):
        # ``run`` and ``sensorgram`` load the config alike and reject it alike
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = tmp_path / "out"
        for command in ("run", "sensorgram"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, command
            assert not out.exists(), command

    def test_integers_load_up_to_int64_max(self):
        assert ExperimentConfig.from_dict({"nu_values": [2**63 - 1]}).nu_values == (2**63 - 1,)
        with pytest.raises(ValueError, match="nu_values"):
            ExperimentConfig.from_dict({"nu_values": [2**63]})

    def test_out_of_range_integer_names_the_int64_rule(self, tmp_path, capsys):
        # 2**64 is a JSON integer, so naming only the type would not say what is wrong
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"nu_values": [18446744073709551616]}')
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'nu_values'") and err.count("\n") == 1
        assert "integers must fit int64" in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"p": 2**32 + 1}, "p must be <= 2**32"),
            ({"m_values": [2, 2**32 + 1]}, "every entry of m_values must be <= 2**32"),
        ],
        ids=["p", "m_values"],
    )
    def test_counts_above_one_key_word_exit_2(self, tmp_path, capsys, doc, message):
        # set and sensorgram indices are one uint32 word each in the substream keys
        assert ExperimentConfig(p=2**32, m_values=(2**32,)).p == 2**32
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for command in ("run", "sensorgram"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == f"error: {message}\n", command
            assert not out.exists(), command

    @pytest.mark.parametrize(
        "doc",
        [
            {"states": ["tmc"], "n_values": [1e155], "p": 2, "m_values": [2]},
            {"states": ["tmsv"], "n_values": [1e155], "p": 2, "m_values": [2]},
            {"states": ["tmsv"], "n_values": [1e160]},
        ],
        ids=["tmc-1e155", "tmsv-1e155", "tmsv-1e160"],
    )
    def test_photon_numbers_that_overflow_exit_2(self, tmp_path, capsys, doc):
        # from about N = 1e155 the fit's sums of squares overflow, and from
        # 1.3e154 so does a TMSV state's variance N(N + 1); the bound on N * nu
        # rejects them long before
        self.assert_noise_floor_exits_2(tmp_path, capsys, doc, doc["n_values"][0], 1000)

    @pytest.mark.parametrize(
        "doc,n_mean,nu",
        [
            ({"states": ["tmf"], "n_values": [1e35], "p": 3, "m_values": [2]}, 1e35, 1000),
            ({"states": ["tmsd"], "n_values": [1e50], "p": 3, "m_values": [2]}, 1e50, 1000),
            ({"states": ["tmf"], "n_values": [1e30], "p": 3, "m_values": [2]}, 1e30, 1000),
            ({"states": ["tmc"], "n_values": [10, 1e15], "nu_values": [1, 100000]}, 1e15, 100000),
            ({"case": "lahiri1999", "n_values": [1e15]}, 1e15, 100000),
            ({"n_values": [1e10], "overrides": {"nu_default": 10**10}}, 1e10, 10**10),
        ],
        ids=["tmf-1e35", "tmsd-1e50", "tmf-1e30", "nu_values", "case-nu", "override-nu"],
    )
    def test_shot_noise_below_fit_resolution_exits_2(self, tmp_path, capsys, doc, n_mean, nu):
        # the relative noise 1/sqrt(N * nu) falls below what the fit resolves:
        # at 1e35 every fit returned the same bits (precision 0, R_k nan); at
        # 1e30 the precision was one ulp of the rate and R_k exactly 1.0
        self.assert_noise_floor_exits_2(tmp_path, capsys, doc, n_mean, nu)

    @staticmethod
    def assert_noise_floor_exits_2(tmp_path, capsys, doc, n_mean, nu):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        line = (
            f"error: N * nu must be <= {MAX_N_NU:.1e}, where the shot noise falls below "
            f"the fit's resolution; got {n_mean:g} * {nu}\n"
        )
        for command in ("run", "sensorgram"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == line, command
            assert not out.exists(), command

    @pytest.mark.parametrize("state", ["tmc", "tmsv"])
    def test_largest_photon_number_runs(self, tmp_path, state):
        # N * nu exactly at the bound, at the case's nu = 1000: no warning,
        # every cell finite and every precision nonzero
        assert MAX_N_NU / 1000 * 1000 == MAX_N_NU
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"states": [state], "n_values": [MAX_N_NU / 1000], "p": 2, "m_values": [2]}
        ))
        for command in ("run", "sensorgram"):
            out = str(tmp_path / command)
            assert main([command, "--config", str(cfg_path), "--out", out]) == 0, command
        samples = read_rows(tmp_path / "sensorgram" / "sensorgram_sample.csv")
        assert all(math.isfinite(float(v)) for row in samples for v in row.values())
        results = read_rows(tmp_path / "run" / "results.csv")
        numbers = [row[key] for row in results for key in ("estimate", "precision", "R_k")]
        assert all(math.isfinite(float(v)) for v in numbers)
        assert all(float(row["precision"]) > 0.0 for row in results)

    def test_sets_beyond_the_result_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # the README sweep fits 30 plans (24 points and 6 TMSD twins); at p = 2**32
        # their set results alone would take 4 TB
        def never(*args, **kwargs):
            raise AssertionError("a chunk started")

        monkeypatch.setattr("qspr.simulate._fit_chunk", never)
        doc = {
            "states": ["tmc", "tmf", "tmsv", "tmsd"],
            "n_values": [10, 100, 1000],
            "nu_values": [100, 1000],
            "m_values": [10],
            "p": 2**32,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        started = time.perf_counter()
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert time.perf_counter() - started < 1.0
        limit = RESULT_BUDGET_BYTES // 32
        assert capsys.readouterr().err == (
            f"error: p times the plans a run fits must be <= {limit} "
            f"(32 B per set within {RESULT_BUDGET_BYTES} B); got {2**32} * 30\n"
        )
        assert not out.exists()

    def test_cli_import_leaves_scipy_special_and_stats_out(self):
        # neither scipy.special, scipy.stats nor the oracle (and its
        # scipy.linalg) is imported before ``qspr verify`` needs it
        modules = (
            "scipy.special", "scipy.stats", "qspr.oracle", "scipy.linalg", "scipy.sparse.linalg"
        )
        code = f"import sys, qspr.cli; print([m for m in {modules!r} if m in sys.modules])"
        assert python_output(code) == "[]"

    def test_run_and_sensorgram_leave_scipy_special_out(self, tmp_path):
        # the run path draws its normals without scipy.special
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"states": ["tmc"], "m_values": [2], "p": 3}))
        code = (
            "import sys; from qspr.cli import main; "
            f"assert main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'run')!r}]) == 0; "
            f"assert main(['sensorgram', '--out', {str(tmp_path / 'sg')!r}]) == 0; "
            "print('scipy.special' in sys.modules)"
        )
        assert python_output(code).splitlines()[-1] == "False"

    def test_cli_and_verify_import_no_scipy(self):
        code = (
            "import sys; from qspr.cli import main; "
            "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "print(scipy()); assert main(['verify', '--tuples', '4']) == 0; print(scipy())"
        )
        lines = python_output(code).splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]")

    def test_commands_run_where_scipy_cannot_be_imported(self, tmp_path):
        # a None entry in sys.modules makes every scipy import raise ImportError
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"states": ["tmc"], "m_values": [2], "p": 2}))
        code = (
            "import sys, warnings; sys.modules['scipy'] = None; warnings.simplefilter('error'); "
            "from qspr.cli import main; "
            "assert main(['verify', '--tuples', '20', '--cutoff', '40']) == 0; "
            f"assert main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'run')!r}]) == 0; "
            f"assert main(['sensorgram', '--out', {str(tmp_path / 'sg')!r}]) == 0; "
            "print('done')"
        )
        assert python_output(code).splitlines()[-1] == "done"


class TestRunExperiment:
    def test_artifacts_and_completeness(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        manifest = run_experiment(cfg)
        names = {
            "sensorgram_ideal.csv",
            "sensorgram_sample.csv",
            "results.csv",
            "midpoint_map_tmf.csv",
        }
        assert set(manifest["outputs"]) == names
        assert {p.name for p in (tmp_path / "out").iterdir()} == names | {"manifest.json"}
        assert json.loads((tmp_path / "out" / "manifest.json").read_text()) == manifest
        rows = read_rows(tmp_path / "out" / "results.csv")
        # one row per state x sweep point x parameter
        assert len(rows) == 2 * 1 * 1 * 1 * 3
        keys = {(r["state"], r["N"], r["nu"], r["m"], r["parameter"]) for r in rows}
        assert len(keys) == len(rows)
        for row in rows:
            assert row["case"] == "kausaite2007"
            assert float(row["precision"]) >= 0.0

    def test_quantum_beats_classical_at_example_point(self, tmp_path):
        # reference sweep: N=10, nu in {100, 1000}, m=10, p=200, seed=42
        cfg = tiny_config(
            tmp_path / "out",
            nu_values=(100, 1000),
            m_values=(10,),
            p=200,
            seed=42,
        )
        run_experiment(cfg)
        rows = read_rows(tmp_path / "out" / "results.csv")
        by_key = {(r["state"], r["nu"], r["parameter"]): float(r["precision"]) for r in rows}
        for nu in ("100", "1000"):
            for parameter in ("k_a", "k_s", "k_d"):
                assert by_key[("tmf", nu, parameter)] < by_key[("tmc", nu, parameter)]
        for row in rows:
            if row["state"] == "tmf":
                assert float(row["R_k"]) > 1.0
                assert float(row["R_M_midpoint"]) == pytest.approx(2.42, abs=0.02)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("results.csv", "sensorgram_ideal.csv", "sensorgram_sample.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_run_builds_each_substream_once(self, tmp_path, monkeypatch):
        # every plan of the run, twins included, reads one draw of each
        # (seed, set, sensorgram) substream across several chunks of sets
        import qspr.simulate as simulate

        real = simulate._philox_keys
        built, calls = Counter(), []

        def counting(seed, sets, m):
            calls.append(len(sets))
            built.update((seed, s, j) for s in sets for j in range(m))
            return real(seed, sets, m)

        monkeypatch.setattr(simulate, "_philox_keys", counting)
        # 15 rows per set (both twins are the TMC plans): chunks of at most 2 sets
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", 40)
        p = 7
        cfg = tiny_config(tmp_path / "out", states=("tmc", "tmf", "tmsv"), m_values=(2, 3), p=p)
        run_experiment(cfg)
        expected = Counter({(cfg.seed, s, j): 1 for s in range(p) for j in range(3)})
        # plus one draw for the noisy realization of every state in sensorgram_sample.csv
        expected[cfg.seed, 0, 0] += 1
        assert built == expected
        assert calls == [1, 2, 2, 2, 1]  # four chunks, then the sample draw

    def test_manifest_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        replay = ExperimentConfig.from_dict(manifest)
        assert replay == cfg
        replay = ExperimentConfig(**{**replay.to_dict(), "output_dir": str(tmp_path / "b")})
        run_experiment(replay)
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    def test_table_writer_matches_csv_writer(self, tmp_path):
        # the writer joins cells without quoting; on cells without commas,
        # quotes or line breaks that is byte for byte what csv.writer writes
        import io

        import numpy as np
        from qspr.cli import _write_tables

        def shortest(cell):
            # a float as the shortest decimal that reads back as the same double
            return repr(float(cell)) if isinstance(cell, (float, np.floating)) else str(cell)

        header = ("case", "N", "estimate", "failed_fits", "R_k")
        rows = [
            ("kausaite2007", 10.0, np.float64(1 / 3), 7, np.float64(-2.5e-300)),
            ("tmsv", np.float64(1e22), 0.1 + 0.2, np.int64(-2**62), float(2**53 + 1)),
            ("tmc", np.float64(-0.0), np.float64(np.nan), np.int64(0), np.float64(5e-324)),
            ("tmf", np.float64(1e16), np.float64(-np.inf), 1, np.float64(1e-5)),
        ]
        _write_tables(tmp_path, [("table.csv", header, rows)])
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([shortest(v) for v in row] for row in rows)
        assert (tmp_path / "table.csv").read_bytes() == expected.getvalue().encode()

    def test_experiment_does_no_io(self, tmp_path, capsys):
        # the experiment computes tables; the command line alone writes and prints them
        import qspr.experiment as experiment
        from qspr.cli import _write_tables

        config = tiny_config(tmp_path / "absent")
        tables, manifest = experiment.run(config)
        _, trace, T_L, scenario, nu_values = experiment.prepare(config)
        sensorgrams = experiment.sensorgram_tables(config, trace, T_L, scenario, nu_values[0])
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr() == ("", "")

        written = run_experiment(config)
        assert {**manifest, "outputs": written["outputs"]} == {
            k: v for k, v in written.items() if k != "runtime_seconds"
        }
        assert main(["sensorgram", "--config", str(tmp_path / "absent" / "manifest.json"),
                     "--out", str(tmp_path / "sensorgram")]) == 0
        for produced, computed in (("absent", tables), ("sensorgram", sensorgrams)):
            mine = _write_tables(tmp_path / f"{produced}-tables", computed)
            csvs = sorted(path.name for path in (tmp_path / produced).glob("*.csv"))
            assert sorted(path.name for path in mine) == csvs
            for path in mine:
                assert path.read_bytes() == (tmp_path / produced / path.name).read_bytes()

    def test_midpoint_map_grid(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", states=("tmf", "tmsv"))
        run_experiment(cfg)
        rows = read_rows(tmp_path / "out" / "midpoint_map_tmsv.csv")
        assert len(rows) == 41 * 25
        n_values = sorted({float(r["N"]) for r in rows})
        assert n_values[0] == 10.0 and n_values[-1] == pytest.approx(1e4)

    AVX512_OFF = "AVX512_SPR AVX512_ICL X86_V4"

    @pytest.mark.skipif(
        not any(__cpu_features__.get(f) for f in AVX512_OFF.split()),
        reason="numpy dispatches no AVX-512 loop here, so turning it off changes nothing",
    )
    def test_maps_do_not_follow_numpy_dispatch(self):
        # the maps are closed forms on an N axis from libm's pow, and verify's
        # drawn states take sinh and cosh on Python floats and +, * and floor
        # otherwise, so numpy's AVX-512 loops (off in the second process) must
        # not move a value
        script = (
            "import numpy as np\n"
            "from qspr.experiment import MAP_N\n"
            "from qspr.oracle import _draw_slice\n"
            "from qspr.probes import ProbeKind, ProbeState, ScenarioMode, SensingScenario, enhancement_RM\n"
            "sc = SensingScenario(ScenarioMode.OPTIMIZED, eta_a=0.9, t_mid=0.5)\n"
            "T = np.linspace(0.2, 0.8, 41)\n"
            "print(repr(MAP_N))\n"
            "for kind in (ProbeKind.TMF, ProbeKind.TMSV, ProbeKind.TMSD):\n"
            "    print(repr(enhancement_RM(ProbeState(kind, np.array(MAP_N)[:, None]), T, sc).tolist()))\n"
            "for kind in ProbeKind:\n"
            "    state, channels = _draw_slice(kind, np.random.default_rng(42), 200)\n"
            "    print(repr([state.n_mean.tolist(), np.asarray(state.g).tolist(), channels.tolist()]))\n"
        )
        src = str(Path(qspr.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        outputs = []
        for dispatch in ({}, {"NPY_DISABLE_CPU_FEATURES": self.AVX512_OFF}):
            done = subprocess.run(
                [sys.executable, "-c", script],
                env={**env, **dispatch, "PYTHONPATH": src},
                capture_output=True,
                text=True,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0].splitlines()) == 8
        assert outputs[1] == outputs[0]

    def test_tmsd_map_starts_at_g_minus_1(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"states": ["tmc", "tmsd"], "tmsd_gain": 20, "n_values": [100], "m_values": [2], "p": 3}
        ))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        n_values = sorted({float(r["N"]) for r in read_rows(out / "midpoint_map_tmsd.csv")})
        assert n_values[0] >= 19.0 and n_values[-1] == pytest.approx(1e4)

    def test_failed_map_leaves_no_output(self, tmp_path, monkeypatch):
        import qspr.experiment as experiment

        real = experiment.enhancement_RM

        def broken(state, T, sc):  # a map's column state; results rows take single states
            if np.ndim(state.n_mean):
                raise ValueError("map failed")
            return real(state, T, sc)

        monkeypatch.setattr(experiment, "enhancement_RM", broken)
        cfg = tiny_config(tmp_path / "out")
        with pytest.raises(ValueError, match="map failed"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_lahiri_default_shot_budget(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", case="lahiri1999", nu_values=None)
        run_experiment(cfg)
        rows = read_rows(tmp_path / "out" / "results.csv")
        assert {r["nu"] for r in rows} == {"100000"}


class TestCommandLine:
    def test_verify_ok(self, capsys):
        assert main(["verify", "--tuples", "4", "--cutoff", "40"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 4

    def test_verify_detects_under_truncation(self, capsys):
        assert main(["verify", "--tuples", "4", "--cutoff", "6"]) == 1
        assert "verification aborted" in capsys.readouterr().err

    def test_verify_fails_a_nan_closed_form(self, monkeypatch, capsys):
        import qspr.oracle

        closed_forms = qspr.oracle.thinning_law

        def nan_for_tmsv(moments, *channels):
            means, sds = closed_forms(moments, *channels)
            # TMSV is the one family with a covariance C and no excess variance D_a
            C, D_a = moments[:2]
            sds[(C > 0) & (D_a == 0)] = math.nan
            return means, sds

        monkeypatch.setattr(qspr.oracle, "thinning_law", nan_for_tmsv)
        assert main(["verify", "--tuples", "4", "--cutoff", "40"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.endswith("[FAIL]") for line in lines] == [False, False, True, False]
        assert "max_dev_delta_M=nan" in lines[2]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_verify_fails_a_non_finite_oracle_mean(self, monkeypatch, capsys, bad):
        import qspr.oracle

        moments = qspr.oracle.oracle_moments

        def bad_last_mean(P):
            means, sds = moments(P)
            means[-1] = bad
            return means, sds

        monkeypatch.setattr(qspr.oracle, "oracle_moments", bad_last_mean)
        assert main(["verify", "--tuples", "4", "--cutoff", "40"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and all(line.endswith("[FAIL]") for line in lines)
        # the delta_M deviations stay finite: max(delta, mean) must not drop the mean
        assert all(f"max_dev_mean_M={bad:.3e}" in line and "delta_M=nan" not in line for line in lines)

    def test_verify_rejects_zero_tuples(self):
        assert main(["verify", "--tuples", "0"]) == 2

    def test_verify_rejects_cutoff_above_bound(self, monkeypatch, capsys):
        # refused before any state is built: the TMSD sector cache grows as cutoff^3
        import qspr.oracle

        def unreachable(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(qspr.oracle, "build_state", unreachable)
        assert main(["verify", "--cutoff", str(qspr.oracle.MAX_CUTOFF + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cutoff") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_verify_rejects_out_of_range_seed(self, monkeypatch, capsys, seed):
        import qspr.oracle

        def unreachable(**kwargs):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(qspr.oracle, "verify_closed_forms", unreachable)
        assert main(["verify", "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed must lie in [0, 2**63), got {seed}\n"
        assert captured.out == ""

    def test_case_subcommand(self, capsys):
        assert main(["case", "lahiri1999"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stack"]["metal_thickness_nm"] == 38.0
        assert doc["reported_theta0_deg"] == 66.796

    def test_case_unknown_exits_nonzero(self, capsys):
        assert main(["case", "nope"]) == 2
        assert "available" in capsys.readouterr().err

    def test_sensorgram_subcommand(self, tmp_path, capsys):
        code = main(["sensorgram", "--case", "lahiri1999", "--out", str(tmp_path / "s")])
        assert code == 0
        rows = read_rows(tmp_path / "s" / "sensorgram_ideal.csv")
        assert len(rows) == 201
        assert float(rows[0]["T"]) == pytest.approx(0.47638848270131023, rel=1e-12)

    def test_paper_fidelity_raises_p_and_manifest_replays(self, tmp_path, monkeypatch):
        # the manifest records the p that ran, so replaying it without the
        # flag reproduces every CSV; a p above the paper's 1500 is kept
        import qspr.cli as cli

        cfg_path = tmp_path / "config.json"
        cfg = tiny_config(tmp_path / "a", states=("tmc",), m_values=(1,), p=5)
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", "--config", str(cfg_path), "--paper-fidelity"]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["config"]["p"] == 1500
        replay = str(tmp_path / "a" / "manifest.json")
        assert main(["run", "--config", replay, "--out", str(tmp_path / "b")]) == 0
        for name in manifest["outputs"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

        ran = []

        def record(config, threads):
            ran.append(config.p)
            return {"outputs": [], "runtime_seconds": 0.0, "unreliable_ensembles": []}

        monkeypatch.setattr(cli, "run_experiment", record)
        cfg_path.write_text(json.dumps(dataclasses.replace(cfg, p=1600).to_dict()))
        assert main(["run", "--config", str(cfg_path), "--paper-fidelity"]) == 0
        assert ran == [1600]

    def test_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_unreliable_run_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import qspr.experiment as experiment

        real = experiment.run_ensembles

        def degraded(plans, *args, **kwargs):
            # no usable fit anywhere: every fit counts as failed
            return [
                dataclasses.replace(result, usable=0 * result.usable)
                for result in real(plans, *args, **kwargs)
            ]

        monkeypatch.setattr(experiment, "run_ensembles", degraded)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "UNRELIABLE" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg_path), "--allow-unreliable"]) == 0

    @pytest.mark.parametrize(
        "states", [["tmf"], ["tmc", "tmf"]], ids=["twin-only", "twin-and-point"]
    )
    def test_unreliable_twin_exits_nonzero(self, tmp_path, capsys, states):
        # the TMF point loses 6 of 200 fits, its TMC twin 44: the point's R_k
        # rests on an unreliable ensemble, listed once whether or not it is
        # also a point; the CSV keeps the point's own failed-fit count
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "states": states, "n_values": [10], "nu_values": [3], "m_values": [10], "p": 20,
        }))
        run = ["run", "--config", str(cfg_path), "--seed", "42", "--out", str(tmp_path / "out")]
        line = "tmc N=10 nu=3 m=10: 44/200 fits failed"
        assert main(run) == 1
        assert capsys.readouterr().err.count(f"UNRELIABLE: {line}\n") == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["unreliable_ensembles"] == [line]
        rows = read_rows(tmp_path / "out" / "results.csv")
        assert {row["failed_fits"] for row in rows if row["state"] == "tmf"} == {"6"}
        assert main([*run, "--allow-unreliable"]) == 0

    def test_unreliable_tmsd_twin_names_its_reference_photon_number(self, tmp_path, monkeypatch):
        import qspr.experiment as experiment

        real = experiment.run_ensembles

        def degraded_twins(plans, *args, **kwargs):
            # no usable fit in any twin: every twin fit counts as failed
            return [
                dataclasses.replace(
                    result, twin=dataclasses.replace(result.twin, usable=0 * result.twin.usable)
                )
                for result in real(plans, *args, **kwargs)
            ]

        monkeypatch.setattr(experiment, "run_ensembles", degraded_twins)
        manifest = run_experiment(tiny_config(tmp_path / "out", states=("tmsd",)))
        n_ref = ProbeState(ProbeKind.TMSD, 10.0, g=DEFAULT_TMSD_GAIN).n_reference
        line = f"tmc N=10.0 n_ref={n_ref} nu=1000 m=3: 24/24 fits failed"
        assert manifest["unreliable_ensembles"] == [line]

    def test_low_signal_run_fails_cleanly(self, tmp_path, capsys):
        # lahiri1999 at N=1, nu=1, m=1: some set has no converged fit at all
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "case": "lahiri1999", "states": ["tmc"], "n_values": [1], "nu_values": [1],
            "m_values": [1], "p": 3,
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: set ") and "fits failed" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()  # no CSVs without a manifest

    @pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "-2"], ["--seed", "-1"]])
    def test_run_rejects_invalid_flags(self, tmp_path, capsys, flags):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out").to_dict()))
        assert main(["run", "--config", str(cfg_path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_threads_are_capped_at_the_cpu_count(self, tmp_path, monkeypatch):
        # --threads 64 on 2 CPUs builds a pool of 2 workers; the spy caps the
        # pool it builds too, so no more than 2 processes ever start
        import qspr.simulate as simulate

        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(min(max_workers, 2), *args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", 6)  # 2 sets of 3 rows: 4 chunks
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "x", states=("tmc",)).to_dict()))
        for threads in ("1", "64"):
            out = str(tmp_path / threads)
            assert main(["run", "--config", str(cfg_path), "--out", out, "--threads", threads]) == 0
        assert pools == [2]  # --threads 1 runs serially, without a pool
        for name in ("results.csv", "sensorgram_ideal.csv", "sensorgram_sample.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "64" / name).read_bytes()

    def test_dead_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        # a pool worker that ends abruptly (the kernel's OOM killer, say) gives
        # one error line, not a BrokenProcessPool traceback, and no output.
        # The pool hands its worker os._exit in place of each chunk: a stdlib
        # function, so the worker dies under any start method
        import qspr.simulate as simulate

        class DyingPool(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                return super().submit(os._exit, 9)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", DyingPool)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", 6)  # 2 sets of 3 rows: 4 chunks
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path / "out", states=("tmc",)).to_dict()))
        assert main(["run", "--config", str(cfg_path), "--threads", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: a worker process ended abruptly (for example, out of memory)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, threads):
        # the flag is checked before the config is loaded or the case reconstructed
        forbid_reconstruction(monkeypatch)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--threads", threads]) == 2
        assert capsys.readouterr().err == "error: --threads must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("eta_a", [1.5, 0.0, -0.2])
    def test_eta_a_outside_unit_interval_exits_2(self, tmp_path, monkeypatch, capsys, eta_a):
        # config load rejects it, before the case's Fresnel reconstruction
        forbid_reconstruction(monkeypatch)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"eta_a": eta_a}))
        out = tmp_path / "out"
        for command in ("run", "sensorgram"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == "error: eta_a must lie in (0, 1]\n", command
            assert not out.exists(), command

    @pytest.mark.parametrize("tau_s", [5000.0, 2195.0], ids=["past-the-grid", "one-dissociation-sample"])
    def test_grid_the_fit_cannot_split_at_tau_exits_2(self, tmp_path, monkeypatch, capsys, tau_s):
        # the 0-2200 s grid needs 2 samples before tau and 3 from it on; both
        # commands check the fit's split with the N * nu bound, before the reconstruction
        forbid_reconstruction(monkeypatch)
        kinetics = {"k_a": 9360.0, "k_d": 0.00785, "L0": 2.74e-07, "tau_s": tau_s}
        doc = {"states": ["tmc"], "m_values": [2], "p": 2, "overrides": {"kinetics": kinetics}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for command in ("sensorgram", "run"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == "error: samples must span both kinetic phases\n", command
            assert not out.exists(), command

    def test_failed_sensorgram_draw_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        import qspr.experiment as experiment

        def broken(*args, **kwargs):
            raise ValueError("draw failed")

        monkeypatch.setattr(experiment, "synthesize_noisy_sensorgrams", broken)
        out = tmp_path / "s"
        assert main(["sensorgram", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: draw failed\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "exc,message",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array"),
             "error: out of memory: Unable to allocate 7.28 TiB for an array\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys, exc, message):
        # a time grid too fine to allocate fails in the reconstruction of both
        # commands; the failure is simulated, no large array is requested
        import qspr.experiment as experiment

        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(experiment, "reconstruct_transmittance_sensorgram", exhausted)
        out = tmp_path / "out"
        for command in ("run", "sensorgram"):
            assert main([command, "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == message, command
            assert not out.exists(), command

    def test_sensorgram_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sensorgram", "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed")
        assert not out.exists()

    def test_parser_rejects_unknown_case_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--case", "bogus"])

    def test_bare_default_run(self, tmp_path):
        # no config file: built-in defaults (kausaite2007, tmc+tmf, case nu)
        assert main(["run", "--out", str(tmp_path / "d"), "--seed", "1"]) == 0
        rows = read_rows(tmp_path / "d" / "results.csv")
        assert {r["state"] for r in rows} == {"tmc", "tmf"}
        assert {r["nu"] for r in rows} == {"1000"}
