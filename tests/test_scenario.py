"""Geometry, clustering, large-scale gains, and topology persistence."""

import math

import numpy as np
import pytest

from hcransim import ScenarioConfig, generate_topology, load_topology, save_topology
from hcransim.scenario import cluster_ues, pathloss_gain, with_seed


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(cell_radius=100.0, inner_ring_radius=200.0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_rrh=0)
    with pytest.raises(ValueError):
        ScenarioConfig(coverage_radius=0.0)
    for name, value in (("coverage_radius", math.nan), ("cell_radius", math.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ScenarioConfig(**{name: value})


def test_pathloss_gain_reference_point():
    cfg = ScenarioConfig()
    # at the reference distance the loss is exactly the intercept
    expected = 10.0 ** (-cfg.pathloss_intercept_db / 10.0)
    assert pathloss_gain(cfg.reference_distance, cfg) == pytest.approx(expected, rel=1e-12)
    # 10x the distance adds 10*exponent dB
    ratio = pathloss_gain(cfg.reference_distance * 10.0, cfg) / expected
    assert 10.0 * np.log10(ratio) == pytest.approx(-10.0 * cfg.pathloss_exponent, abs=1e-9)
    # shadowing enters in dB
    shadowed = pathloss_gain(cfg.reference_distance, cfg, shadowing_db=8.0)
    assert 10.0 * np.log10(shadowed / expected) == pytest.approx(-8.0, abs=1e-9)
    with pytest.raises(ValueError):
        pathloss_gain(0.0, cfg)


def test_cluster_ues_range_and_cap():
    rrh = np.array([[0.0, 0.0], [6.0, 0.0]])
    ue = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [100.0, 0.0]])
    serving = cluster_ues(rrh, ue, coverage_radius=5.0, max_ue_per_rrh=2)
    # RRH 0 keeps its two closest candidates, UEs 0 and 1; UE 2 is dropped
    # there, but RRH 1 keeps it (candidacy is per RRH), with UE 1 before UE 0
    # (distance 4 before 5); UE 3 is out of range of both
    assert serving == [[0], [0, 1], [1], []]


def test_cluster_ties_break_by_lower_ue_id():
    rrh = np.array([[0.0, 0.0]])
    ue = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, -2.0]])  # all at distance 2
    assert cluster_ues(rrh, ue, coverage_radius=5.0, max_ue_per_rrh=2) == [[0], [0], []]


def test_generate_topology_geometry_invariants():
    cfg = ScenarioConfig(num_rrh=30, num_ue=12, rng_seed=5)
    topo = generate_topology(cfg)
    r_rrh = np.linalg.norm(topo.rrh_positions, axis=1)
    r_ue = np.linalg.norm(topo.ue_positions, axis=1)
    assert np.all(r_rrh >= cfg.inner_ring_radius - 1e-9)
    assert np.all(r_rrh <= cfg.cell_radius + 1e-9)
    assert np.all(r_ue <= cfg.cell_radius + 1e-9)
    assert np.all(topo.alpha_rrh > 0)
    assert np.all(topo.alpha_mbs > 0)
    topo.validate()


def test_generate_topology_is_seed_deterministic():
    cfg = ScenarioConfig(num_rrh=10, num_ue=5, rng_seed=3)
    a, b = generate_topology(cfg), generate_topology(cfg)
    assert np.array_equal(a.rrh_positions, b.rrh_positions)
    assert np.array_equal(a.alpha_rrh, b.alpha_rrh)
    c = generate_topology(with_seed(cfg, 4))
    assert not np.array_equal(a.rrh_positions, c.rrh_positions)


def test_serving_sets_respect_coverage_and_cap():
    cfg = ScenarioConfig(num_rrh=25, num_ue=10, rng_seed=11)
    topo = generate_topology(cfg)
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
    for cfg in (ScenarioConfig(num_rrh=8, num_ue=6, rng_seed=2),
                ScenarioConfig(num_rrh=25, num_ue=10, rng_seed=9)):
        topo = generate_topology(cfg)
        path = tmp_path / "topology.csv"
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
    topo = generate_topology(ScenarioConfig(num_rrh=25, num_ue=10, rng_seed=9))
    ue, rrh = topo.served_links
    assert topo.served_links is topo.served_links
    pairs = list(zip(ue.tolist(), rrh.tolist()))
    assert pairs == [(i, k) for i, cluster in enumerate(topo.serving_rrhs) for k in cluster]
    assert pairs == sorted(set(pairs)) and len(pairs) > topo.num_ue
    path = tmp_path / "topology.csv"
    save_topology(topo, path)
    back_ue, back_rrh = load_topology(path).served_links
    assert np.array_equal(back_ue, ue) and np.array_equal(back_rrh, rrh)

    mbs_only = generate_topology(ScenarioConfig(coverage_radius=1e-3, rng_seed=1))
    assert mbs_only.rue_set == []
    assert [a.shape for a in mbs_only.served_links] == [(0,), (0,)]


def test_load_topology_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_topology.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_topology(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: [r for r in rows if not r.startswith("alpha_rrh,3,5,")],
         "missing alpha_rrh entry 3,5"),
        (lambda rows: rows + ["alpha_rrh,99,0,0.5"], "alpha_rrh entry 99,0 out of range"),
        (lambda rows: rows + ["alpha_rrh,3,5,0.5"], "duplicate alpha_rrh entry 3,5"),
        (lambda rows: [r for r in rows if not r.startswith("rrh,4,")], "missing rrh entry 4"),
        (lambda rows: rows + ["ue,-1,0.0,0.0"], "ue entry -1 out of range"),
        (lambda rows: rows + ["ue,8,0.0,0.0"], "missing alpha_rrh entry 0,8"),
        (lambda rows: [r for r in rows if not r.startswith("alpha_mbs,2,")],
         "missing alpha_mbs entry 2"),
        (lambda rows: rows + ["serving,3,99"], "serving entry 3,99 out of range"),
        (lambda rows: rows + [next(r for r in rows if r.startswith("serving,"))],
         "duplicate serving entry"),
        (lambda rows: [r.replace("config,num_rrh,", "config,num_rrhs,") for r in rows],
         "unknown config entry 'num_rrhs'"),
        (lambda rows: rows + ["config,num_ue,8"], "duplicate config entry 'num_ue'"),
        (lambda rows: [r.replace("config,num_rrh,25", "config,num_rrh,30") for r in rows],
         "num_rrh 30 and num_ue 8 do not count the 25 rrh and 8 ue entries"),
        (lambda rows: [r.replace("config,num_ue,8", "config,num_ue,8.0") for r in rows],
         "config key 'num_ue' must be of type int, got 8.0"),
        (lambda rows: [r.replace("config,coverage_radius,", "config,coverage_radius,x") for r in rows],
         "config entry 'coverage_radius' is not a number"),
        (lambda rows: [x for r in rows for x in ([""] if r.startswith("rrh,0,") else []) + [r]],
         "line 16 is blank"),
        (lambda rows: ["hcransim-topology"] + rows[1:], "line 1: unsupported topology format"),
        (lambda rows: [r.replace("config,num_ue,8", "config,num_ue") for r in rows],
         r"line 5: config row \['config', 'num_ue'\] needs a name and a value"),
        (lambda rows: [r.replace("rrh,4,", "rrh,x,", 1) if r.startswith("rrh,4,") else r
                       for r in rows],
         "line 20: rrh index 'x' is not an integer"),
        (lambda rows: ["alpha_mbs,2,abc" if r.startswith("alpha_mbs,2,") else r for r in rows],
         r"line \d+: alpha_mbs value 'abc' is not a number"),
    ],
)
def test_load_topology_names_a_missing_duplicate_or_out_of_range_entry(tmp_path, edit, message):
    """A dump with an entry dropped, repeated or out of range fails to load
    with a ValueError naming it; a dropped gain used to load as whatever the
    uninitialized array held. A config entry with an unknown or repeated
    name, a value of the wrong type, or a user or RRH count that the tables
    do not hold fails the same way, and so does a config row without a
    value or an index or value that does not parse, naming its line."""
    path = tmp_path / "topology.csv"
    save_topology(generate_topology(ScenarioConfig(rng_seed=1)), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        load_topology(path)


def test_validate_catches_corruption():
    topo = generate_topology(ScenarioConfig(num_rrh=8, num_ue=6, rng_seed=2))
    topo.alpha_mbs = -topo.alpha_mbs
    with pytest.raises(ValueError):
        topo.validate()

    topo = generate_topology(ScenarioConfig(num_rrh=8, num_ue=6, rng_seed=2))
    k_bad = next(k for k in range(topo.num_rrh) if k not in topo.serving_rrhs[0])
    topo.serving_rrhs[0] = sorted(topo.serving_rrhs[0] + [k_bad])
    with pytest.raises(ValueError):
        topo.validate()
