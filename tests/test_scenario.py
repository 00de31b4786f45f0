"""Geometry, clustering, large-scale gains, and topology persistence."""

import json
import math

import numpy as np
import pytest

from hcransim import ScenarioConfig, generate_topology, load_topology, save_topology
from hcransim.scenario import (
    CELL_RADIUS,
    INNER_RING_RADIUS,
    PATHLOSS_EXPONENT,
    PATHLOSS_INTERCEPT_DB,
    REFERENCE_DISTANCE,
    cluster_ues,
    pathloss_gain,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(num_rrh=0)
    with pytest.raises(ValueError):
        ScenarioConfig(coverage_radius=0.0)
    with pytest.raises(ValueError, match="coverage_radius must be finite"):
        ScenarioConfig(coverage_radius=math.nan)


def test_pathloss_gain_reference_point():
    # at the reference distance the loss is exactly the intercept
    expected = 10.0 ** (-PATHLOSS_INTERCEPT_DB / 10.0)
    assert pathloss_gain(REFERENCE_DISTANCE, 0.0) == pytest.approx(expected, rel=1e-12)
    # 10x the distance adds 10*exponent dB
    ratio = pathloss_gain(REFERENCE_DISTANCE * 10.0, 0.0) / expected
    assert 10.0 * np.log10(ratio) == pytest.approx(-10.0 * PATHLOSS_EXPONENT, abs=1e-9)
    # shadowing enters in dB
    shadowed = pathloss_gain(REFERENCE_DISTANCE, shadowing_db=8.0)
    assert 10.0 * np.log10(shadowed / expected) == pytest.approx(-8.0, abs=1e-9)
    with pytest.raises(ValueError):
        pathloss_gain(0.0, 0.0)


def test_cluster_ues_range_and_cap():
    # RRHs at x = 0 and x = 6, users at x = 1, 2, 3 and 100 on one line
    dist = np.array([[1.0, 2.0, 3.0, 100.0], [5.0, 4.0, 3.0, 94.0]])
    serving = cluster_ues(dist, coverage_radius=5.0, max_ue_per_rrh=2)
    # RRH 0 keeps its two closest candidates, UEs 0 and 1; UE 2 is dropped
    # there, but RRH 1 keeps it (candidacy is per RRH), with UE 1 before UE 0
    # (distance 4 before 5); UE 3 is out of range of both
    assert serving == [[0], [0, 1], [1], []]


def test_cluster_ties_break_by_lower_ue_id():
    dist = np.array([[2.0, 2.0, 2.0]])
    assert cluster_ues(dist, coverage_radius=5.0, max_ue_per_rrh=2) == [[0], [0], []]


def test_generate_topology_geometry_invariants():
    topo = generate_topology(ScenarioConfig(num_rrh=30, num_ue=12), 5)
    r_rrh = np.linalg.norm(topo.rrh_positions, axis=1)
    r_ue = np.linalg.norm(topo.ue_positions, axis=1)
    assert np.all(r_rrh >= INNER_RING_RADIUS - 1e-9)
    assert np.all(r_rrh <= CELL_RADIUS + 1e-9)
    assert np.all(r_ue <= CELL_RADIUS + 1e-9)
    assert np.all(topo.alpha_rrh > 0)
    assert np.all(topo.alpha_mbs > 0)
    topo.validate()


def test_generate_topology_is_seed_deterministic():
    cfg = ScenarioConfig(num_rrh=10, num_ue=5)
    a, b = generate_topology(cfg, 3), generate_topology(cfg, 3)
    assert np.array_equal(a.rrh_positions, b.rrh_positions)
    assert np.array_equal(a.alpha_rrh, b.alpha_rrh)
    c = generate_topology(cfg, 4)
    assert not np.array_equal(a.rrh_positions, c.rrh_positions)


def test_serving_sets_respect_coverage_and_cap():
    cfg = ScenarioConfig(num_rrh=25, num_ue=10)
    topo = generate_topology(cfg, 11)
    dist = np.linalg.norm(
        topo.rrh_positions[:, None, :] - topo.ue_positions[None, :, :], axis=2
    )
    for i in range(topo.num_ue):
        for k in topo.serving_rrhs[i]:
            assert dist[k, i] <= cfg.coverage_radius + 1e-9
    for k in range(topo.num_rrh):
        assert len(topo.served_rues[k]) <= cfg.max_ue_per_rrh


def assert_derived_maps(topo):
    """rue_set and bue_set partition the UE ids by whether a user has a
    serving RRH, served_rues is the inverse of serving_rrhs, and all three
    are cached, not rebuilt on each read."""
    assert sorted(topo.rue_set + topo.bue_set) == list(range(topo.num_ue))
    assert topo.rue_set == [i for i in range(topo.num_ue) if topo.serving_rrhs[i]]
    assert topo.bue_set == [i for i in range(topo.num_ue) if not topo.serving_rrhs[i]]
    assert len(topo.served_rues) == topo.num_rrh
    for k, users in enumerate(topo.served_rues):
        assert users == [i for i in range(topo.num_ue) if k in topo.serving_rrhs[i]]
    for name in ("rue_set", "bue_set", "served_rues"):
        assert getattr(topo, name) is getattr(topo, name)


def test_save_load_round_trip_is_exact(tmp_path):
    # the second drop has clusters of up to 4 RRHs and an RRH at its cap of 3
    for cfg, seed in ((ScenarioConfig(num_rrh=8, num_ue=6), 2),
                      (ScenarioConfig(num_rrh=25, num_ue=10), 9)):
        topo = generate_topology(cfg, seed)
        path = tmp_path / "topology.json"
        save_topology(topo, path)
        back = load_topology(path)
        assert back.config == topo.config
        assert np.array_equal(back.rrh_positions, topo.rrh_positions)
        assert np.array_equal(back.ue_positions, topo.ue_positions)
        assert back.serving_rrhs == topo.serving_rrhs
        assert np.array_equal(back.alpha_rrh, topo.alpha_rrh)
        assert np.array_equal(back.alpha_mbs, topo.alpha_mbs)
        for t in (topo, back):
            assert_derived_maps(t)
        assert (back.rue_set, back.bue_set, back.served_rues) == (
            topo.rue_set, topo.bue_set, topo.served_rues)
        assert topo.rue_set and topo.bue_set


def test_served_links_index_the_serving_map(tmp_path):
    """served_links lists every (ue, rrh) serving link once, user-major and
    ascending, is cached, survives a save/load round trip, and is empty when
    every user is MBS-served."""
    topo = generate_topology(ScenarioConfig(num_rrh=25, num_ue=10), 9)
    ue, rrh = topo.served_links
    assert topo.served_links is topo.served_links
    pairs = list(zip(ue.tolist(), rrh.tolist()))
    assert pairs == [(i, k) for i, cluster in enumerate(topo.serving_rrhs) for k in cluster]
    assert pairs == sorted(set(pairs)) and len(pairs) > topo.num_ue
    path = tmp_path / "topology.json"
    save_topology(topo, path)
    back_ue, back_rrh = load_topology(path).served_links
    assert np.array_equal(back_ue, ue) and np.array_equal(back_rrh, rrh)

    mbs_only = generate_topology(ScenarioConfig(coverage_radius=1e-3), 1)
    assert mbs_only.rue_set == []
    assert [a.shape for a in mbs_only.served_links] == [(0,), (0,)]


def test_load_topology_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_topology.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_topology(path)


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


# The config entries a version-2 file held beyond the six of version 3.
VERSION_2_CONFIG = {
    "cell_radius": 500.0, "inner_ring_radius": 200.0, "pathloss_exponent": 3.7,
    "shadowing_std": 8.0, "pathloss_intercept_db": 128.1, "reference_distance": 1000.0,
    "min_link_distance": 1.0, "rng_seed": 1,
}


# Edits of the saved topology of ScenarioConfig() at seed 1: 25 RRHs, 8 users,
# users 0, 3, 5 and 7 MBS-served, user 2 served by RRHs [2, 18].
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("alpha_mbs"), r"missing topology entries \['alpha_mbs'\]"),
        (lambda doc: _set(doc, ["layout"], {}), r"unknown \['layout'\]"),
        (lambda doc: _set(doc, ["alpha_rrh"], doc["alpha_rrh"][:-1]),
         r"alpha_rrh must be a \(25, 8\) table of numbers"),
        (lambda doc: doc["alpha_rrh"].append(doc["alpha_rrh"][0]),
         r"alpha_rrh must be a \(25, 8\)"),
        (lambda doc: _set(doc, ["ue_positions", 3], [0.0]), r"ue_positions must be a \(8, 2\)"),
        (lambda doc: _set(doc, ["alpha_mbs", 2], "abc"),
         r"alpha_mbs must be a \(8,\) table of numbers"),
        (lambda doc: _set(doc, ["alpha_mbs", 2], True),
         r"alpha_mbs must be a \(8,\) table of numbers"),
        (lambda doc: _set(doc, ["rrh_positions"], 7), r"rrh_positions must be a \(25, 2\)"),
        # a NaN position of an MBS-served user passed every other check
        (lambda doc: _set(doc, ["ue_positions", 0, 1], math.nan),
         "ue_positions holds a non-finite"),
        (lambda doc: _set(doc, ["alpha_rrh", 4, 1], math.inf), "alpha_rrh holds a non-finite"),
        (lambda doc: _set(doc, ["alpha_mbs", 1], 10**400), "alpha_mbs holds a non-finite"),
        (lambda doc: doc["serving_rrhs"][2].append(99),
         r"user 2 has serving RRHs \[2, 18, 99\], not ascending, distinct ids in 0..24"),
        (lambda doc: _set(doc, ["serving_rrhs", 2], [18, 2]),
         r"user 2 has serving RRHs \[18, 2\]"),
        (lambda doc: _set(doc, ["serving_rrhs", 2], [2, 2, 18]),
         r"user 2 has serving RRHs \[2, 2, 18\]"),
        (lambda doc: _set(doc, ["serving_rrhs", 1], ["13"]),
         r"user 1 has serving RRHs \['13'\]"),
        (lambda doc: doc["serving_rrhs"].pop(),
         "serving_rrhs must hold one list per user, 8 in all"),
        (lambda doc: _set(doc, ["config", "num_rrhs"], doc["config"].pop("num_rrh")),
         r"unknown config keys: \['num_rrhs'\]"),
        (lambda doc: _set(doc, ["config"], [25, 8]),
         "config section 'config' must be an object"),
        (lambda doc: _set(doc, ["config", "num_ue"], 8.0),
         "config key 'num_ue' must be of type int, got 8.0"),
        (lambda doc: _set(doc, ["config", "num_ue"], None),
         "config key 'num_ue' must be of type int"),
        (lambda doc: _set(doc, ["config", "coverage_radius"], "x"),
         "config key 'coverage_radius' must be of type float"),
        (lambda doc: _set(doc, ["config", "num_ue"], 9), r"ue_positions must be a \(9, 2\)"),
        (lambda doc: _set(doc, ["config", "num_rrh"], 30),
         r"rrh_positions must be a \(30, 2\)"),
        (lambda doc: _set(doc, ["alpha_mbs", 6], -1.0), "gains must be strictly positive"),
        (lambda doc: _set(doc, ["version"], 1), "unsupported topology format version 1 in"),
        (lambda doc: doc.update(version=2, config={**doc["config"], **VERSION_2_CONFIG}),
         "unsupported topology format version 2 in"),
        (lambda doc: _set(doc, ["format"], "other"), "not a hcransim-topology file"),
    ],
)
def test_load_topology_names_what_is_missing_malformed_or_out_of_range(tmp_path, edit, message):
    """A saved topology with an entry dropped, added, of the wrong shape or
    type, non-finite, or with a serving list that is not ascending,
    distinct RRH ids in range, fails to load with a ValueError naming it; so
    does a config entry with an unknown name, a value of the wrong type or a
    user or RRH count the tables do not hold, and a file of another format
    or version. A gain the validity check rejects fails too."""
    path = tmp_path / "topology.json"
    save_topology(generate_topology(ScenarioConfig(), 1), path)
    doc = json.loads(path.read_text())
    load_topology(path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_topology(path)


@pytest.mark.parametrize(
    "text, message",
    [
        # a topology.csv of format version 1
        ("hcransim-topology,1\nconfig,cell_radius,500.0\nrrh,0,1.0,2.0\n", "is not a JSON file"),
        ('{"format": "hcransim-topology", "version": 2, "version": 2}',
         r"repeated keys \['version'\]"),
        ('{"format": "hcransim-topology", "config": {"num_ue": 8, "num_ue": 9}}',
         r"repeated keys \['num_ue'\]"),
        ("[1, 2]", "must hold a JSON object, got list"),
    ],
)
def test_load_topology_names_the_file_it_cannot_read(tmp_path, text, message):
    """Text that is not one JSON object, or repeats a key in any object, is
    a ValueError that names the file before any entry is read."""
    path = tmp_path / "topology.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as raised:
        load_topology(path)
    assert str(path) in str(raised.value)


def test_save_topology_writes_numpy_integers_as_json_numbers(tmp_path):
    topo = generate_topology(ScenarioConfig(), 1)
    topo.serving_rrhs = [list(np.array(cluster, dtype=np.int64)) for cluster in topo.serving_rrhs]
    path = tmp_path / "topology.json"
    save_topology(topo, path)
    assert load_topology(path).serving_rrhs == [[int(k) for k in c] for c in topo.serving_rrhs]


def test_validate_catches_corruption():
    topo = generate_topology(ScenarioConfig(num_rrh=8, num_ue=6), 2)
    topo.alpha_mbs = -topo.alpha_mbs
    with pytest.raises(ValueError):
        topo.validate()

    topo = generate_topology(ScenarioConfig(num_rrh=8, num_ue=6), 2)
    k_bad = next(k for k in range(topo.num_rrh) if k not in topo.serving_rrhs[0])
    topo.serving_rrhs[0] = sorted(topo.serving_rrhs[0] + [k_bad])
    with pytest.raises(ValueError):
        topo.validate()
