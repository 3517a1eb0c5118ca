"""The feeder generator is deterministic per seed and always produces
feeders on which the Assumption-1 check takes its determinant path."""

import itertools
import json

from feeder import SHAPES, FeederStream

from acdcdyn.network import NodeKind, check_assumption1
from acdcdyn.system import config_from_dict

N = 3 * len(SHAPES)


def take(seed, n=N):
    return list(itertools.islice(FeederStream(seed), n))


def test_same_seed_same_configs():
    assert json.dumps(take(7)) == json.dumps(take(7))
    assert json.dumps(take(7)) != json.dumps(take(8))


def test_every_op_is_a_new_topology():
    configs = [json.dumps(c, sort_keys=True) for c in take(3)]
    assert len(set(configs)) == len(configs)


def test_generated_graphs_take_the_determinant_path():
    for data in take(11):
        g = config_from_dict(data).graph
        assert len(g.ac_components()) == 1
        loads = set(g.load_names)
        assert any(e.n in loads and e.k in loads for e in g.ac_edges)
        rhos = {round(e.rho, 9) for e in g.ac_edges}
        assert len(rhos) > 1
        assert check_assumption1(g).reason == ""
        setpoints = [g.v_dc_star[n] for n, k in g.dc_nodes
                     if k is NodeKind.VSC]
        assert len(set(setpoints)) == len(setpoints)
