import itertools
from pathlib import Path

import pytest

from acdcdyn.system import (_load_preset, build, config_from_dict,
                            resolve_scenario)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PRESETS = ("islanded_pv", "lvdc_async", "parallel_ac_dc")

#: Models above this order are the ``feeder`` benchmark's order blow-ups;
#: the session cache keeps none of them.
MAX_CACHED_STATES = 800


def preset(name, overrides=None):
    """The SystemConfig of preset `name` with `overrides` applied."""
    return config_from_dict(resolve_scenario(name, overrides))


def _outcome(data):
    try:
        ss = build(config_from_dict(data), check_network=False).ss
    except ValueError as exc:    # configs whose symbolic Kron reduction fails
        return type(exc)
    return ss if ss.n_states <= MAX_CACHED_STATES else None


@pytest.fixture(scope="session")
def unpatched_builds():
    """The unpatched ``build(config_from_dict(data), check_network=False)``
    of the presets and of the ``FeederStream(1)`` configs 0-71, built once
    per session: ``{"presets": [...], "feeders": [...]}`` of (data,
    outcome) pairs in order.  The outcome is the StateSpace, the class of
    the ValueError that ``build`` raised, or None for a model above
    ``MAX_CACHED_STATES`` states."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        from feeder import FeederStream

    presets = [_load_preset(name) for name in PRESETS]
    feeders = list(itertools.islice(FeederStream(1), 72))
    return {"presets": [(data, _outcome(data)) for data in presets],
            "feeders": [(data, _outcome(data)) for data in feeders]}
