"""README's `## Library` example runs and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = {}
    exec(compile(code, str(README), "exec"), env)
    assert env["chain"].dims == (3, 2, 1, 1)
    traj, block, a = env["traj"], env["block"], env["a"]
    np.testing.assert_allclose(traj.states[-1], [np.exp(-1.0), 0.0, 0.0], rtol=1e-12)
    assert np.max(traj.derivative_residuals) <= 1e-14
    assert block.states.shape == (11, 3, 1) and block.derivative_residuals.shape == (11, 1)
    assert (a.chain_index.k, a.nilpotency.k, a.growth.k) == (1, 1, 1) and a.growth.confident
    assert a.iso.bijective and a.indices_agree
