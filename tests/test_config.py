"""Config resolution: defaults, file merge, overrides, strictness."""
import json

import pytest

from crossnet import ConfigError
from crossnet.config import apply_override, load_config, load_config_doc


def test_defaults_resolve():
    cfg, doc = load_config()
    assert cfg.graph.family == "ring"
    assert cfg.graph.n == 100
    assert cfg.graph.k == 10
    assert cfg.skt.r1 == 5.0
    assert cfg.integrator.rel_tol == 1e-8
    assert cfg.experiment.realizations == 1000
    assert cfg.master_seed == 0
    assert doc["graph"]["seed"] == 0  # inherited from master_seed


def test_every_default_key_is_explicit_in_doc():
    _, doc = load_config()
    assert set(doc) == {"graph", "skt", "integrator", "experiment", "output_dir", "master_seed"}
    assert set(doc["integrator"]) == {"rel_tol", "abs_tol", "t_max", "steady_state_tol", "max_steps", "sample_dt"}


def test_file_merge(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": {"k": 5}, "skt": {"d12": 2.5}, "master_seed": 9}))
    cfg, doc = load_config(str(path))
    assert cfg.graph.k == 5
    assert cfg.graph.n == 100  # untouched default survives
    assert cfg.skt.d12 == 2.5
    assert cfg.master_seed == 9
    assert cfg.graph.seed == 9


def test_file_family_change_resets_graph_block(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": {"family": "path", "n": 12}}))
    cfg, _ = load_config(str(path))
    assert cfg.graph.family == "path"
    assert cfg.graph.n == 12
    assert cfg.graph.k is None  # ring default did not leak


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": {"degree": 5}}))
    with pytest.raises(ConfigError, match="unknown key graph.'degree'|unknown key"):
        load_config(str(path))
    path.write_text(json.dumps({"simulation": {}}))
    with pytest.raises(ConfigError, match="unknown top-level key"):
        load_config(str(path))


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_set_overrides():
    cfg, _ = load_config(overrides=["graph.k=4", "skt.d=0.05", "integrator.t_max=10", "output_dir=x", "master_seed=3"])
    assert cfg.graph.k == 4
    assert cfg.skt.d == 0.05
    assert cfg.integrator.t_max == 10
    assert cfg.output_dir == "x"
    assert cfg.master_seed == 3


def test_set_family_resets_graph_block():
    cfg, _ = load_config(overrides=["graph.family=path", "graph.n=9"])
    assert cfg.graph.family == "path"
    assert cfg.graph.n == 9
    assert cfg.graph.k is None


def test_set_json_values_and_strings():
    cfg, _ = load_config(overrides=["experiment.seeds=[1,2,3]", "output_dir=runs/abc"])
    assert cfg.experiment.seeds == (1, 2, 3)
    assert cfg.output_dir == "runs/abc"


def test_set_null_clears_a_key():
    cfg, _ = load_config(overrides=["integrator.sample_dt=0.5"])
    assert cfg.integrator.sample_dt == 0.5
    cfg, _ = load_config(overrides=["integrator.sample_dt=0.5", "integrator.sample_dt=null"])
    assert cfg.integrator.sample_dt is None


def test_bad_overrides_rejected():
    for bad in ("graph.k", "nothere=1", "graph.degree=5", "a.b.c=1", "experiment.sweeps=2"):
        with pytest.raises(ConfigError):
            apply_override(load_config_doc(), bad)


def test_explicit_graph_seed_survives_master_seed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": {"seed": 123}, "master_seed": 9}))
    cfg, _ = load_config(str(path))
    assert cfg.graph.seed == 123


def test_validation_failures_become_config_errors():
    with pytest.raises(ConfigError):
        load_config(overrides=["graph.k=-1"])
    with pytest.raises(ConfigError):
        load_config(overrides=["skt.r1=-5"])
    with pytest.raises(ConfigError):
        load_config(overrides=["integrator.rel_tol=0"])
    with pytest.raises(ConfigError):
        load_config(overrides=["experiment.realizations=0"])
    with pytest.raises(ConfigError):
        load_config(overrides=["experiment.sweep_param=k"])  # values missing
    with pytest.raises(ConfigError):
        load_config(overrides=["master_seed=1.5"])


def test_doc_round_trips_through_file(tmp_path):
    _, doc = load_config(overrides=["graph.k=7", "skt.d21=1.0"])
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(doc))
    cfg2, doc2 = load_config(str(path))
    assert doc2 == doc
    assert cfg2.graph.k == 7
    assert cfg2.skt.d21 == 1.0


def test_unset_swept_key_starts_at_first_sweep_value():
    sweep = ["experiment.sweep_param=p", "experiment.sweep_values=[0.2,0.3]"]
    doc = load_config_doc(overrides=["graph.family=erdos-renyi", "graph.n=10"] + sweep)
    assert doc["graph"]["p"] == 0.2
    doc = load_config_doc(overrides=["graph.family=erdos-renyi", "graph.n=10", "graph.p=0.7"] + sweep)
    assert doc["graph"]["p"] == 0.7  # an explicit base value is never overwritten
    doc = load_config_doc(overrides=["graph.family=barabasi-albert", "graph.k=2",
                                     "experiment.sweep_param=n", "experiment.sweep_values=[40,50]"])
    assert doc["graph"]["n"] == 40
    assert load_config_doc(overrides=["graph.family=erdos-renyi"])["graph"]["p"] is None
