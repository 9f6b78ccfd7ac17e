import numpy as np

from helpers import make_env

from vtmigsim.policies import FULL_MIGRATION, RANDOM_MIGRATION, make_act_fn, nearby_radius


def test_heuristics_read_serving_and_radius_per_slot():
    env = make_env(n_rsu=4, n_veh=3, horizon=8)
    full = make_act_fn(FULL_MIGRATION, env)
    rand = make_act_fn(RANDOM_MIGRATION, env, rng=np.random.default_rng(0))
    rsu_xy = np.array([[r.pos.x, r.pos.y] for r in env.rsus])
    radius = nearby_radius(env)
    for slot in range(env.cfg.horizon):
        for v in range(env.V):
            x, y = env.xy[slot, v]
            d = np.hypot(rsu_xy[:, 0] - x, rsu_xy[:, 1] - y)
            assert full(v, None, slot) == (int(np.argmin(d)), 0.0)
            action, params = rand(v, None, slot)
            assert params == 0.0
            assert d[action] <= radius or np.all(d > radius)
