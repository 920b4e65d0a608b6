"""The three benchmark workloads.

Each workload generates its inputs from the seed at set-up, runs one
operation through ``reldep``'s public calls, and checks a result against
``reference``.  The operation count per run is not known in advance, so
set-up draws enough inputs for ``seconds`` of work and operations reuse them
cyclically only if a run outlasts that estimate.
"""

import numpy as np

import reference as ref
import reldep  # entry points are looked up at call time, so the tracer sees them
from reldep import KernelSpec, Sample, SynthConfig

ALPHA = 0.05


class Workload:
    """Base of the workloads, which define ``inputs``, ``run``, ``expect`` and ``verify``.

    ``inputs`` is drawn at set-up; its last entry is kept for the warm-up.
    ``run(inp)`` is one operation, ``expect(inp)`` the reference's answer
    for the same input and ``verify(inp, result, want)`` their comparison.
    """

    trials_per_op = 1

    def _input(self, i):
        return self.inputs[i % (len(self.inputs) - 1)]

    def op(self, i):
        return self.run(self._input(i))

    def warmup(self):
        return self.run(self.inputs[-1])

    def reference(self, i):
        """The reference's answer for operation i."""
        return self.expect(self._input(i))

    def check(self, i, result, want=None):
        """Problems with the result of operation i, or [] if it is correct.

        ``want`` is the reference's answer if it was already computed.
        """
        inp = self._input(i)
        return self.verify(inp, result, self.expect(inp) if want is None else want)


class DepM3200(Workload):
    """One dependent test on a fresh m=3200 synthetic sample per operation."""

    M = 3200

    def __init__(self, seed, seconds):
        arrays = [
            ref.synthetic(ref.trial_seed(seed, 1, i), self.M, gamma3=0.7)
            for i in range(9 + 2 * seconds)
        ]
        self.inputs = [(a, [Sample(x, name) for x, name in zip(a, "XYZ")]) for a in arrays]

    def run(self, inp):
        return reldep.dependent_test(reldep.align(*inp[1]))

    def expect(self, inp):
        return ref.dependent(*inp[0], ALPHA)

    def verify(self, inp, result, want):
        return ref.check_dependent(result, want, self.M)


class PowerM500(Workload):
    """One power_curve call at m=500: 4 gamma3 values x 2 trials, jobs=1."""

    M = 500
    GRID = (0.3, 0.7, 1.1, 1.5)
    TRIALS = 2
    trials_per_op = len(GRID) * TRIALS

    def __init__(self, seed, seconds):
        self.inputs = [ref.trial_seed(seed, 2, i) for i in range(17 + 16 * seconds)]

    def run(self, base_seed):
        return reldep.power_curve(
            self.GRID, SynthConfig(m=self.M, seed=base_seed), self.TRIALS, ALPHA, jobs=1
        )

    def expect(self, base_seed):
        return ref.power_p_values(self.GRID, self.M, base_seed, self.TRIALS, ALPHA)

    def verify(self, base_seed, result, want):
        return ref.check_power(result, self.GRID, self.M, self.TRIALS, ALPHA, want)


# Two groups of four 2-d variables; each group shares one latent angle per
# row.  (map, user-supplied Gaussian bandwidth) per variable within a group.
_GROUP_MAPS = (
    (lambda t: np.column_stack([t, np.sin(t)]), 1.5),
    (lambda t: np.column_stack([t * np.cos(t), t * np.sin(t)]), 3.0),
    (lambda t: np.column_stack([np.cos(t), np.sin(2.0 * t)]), 1.0),
    (lambda t: np.column_stack([np.sqrt(t), np.cos(t) ** 2]), 0.8),
)
_N_VARS = 2 * len(_GROUP_MAPS)
PAIRS = tuple((a, b) for a in range(_N_VARS) for b in range(a + 1, _N_VARS))
WEIGHTS = tuple(
    1.0 if a // len(_GROUP_MAPS) == b // len(_GROUP_MAPS) else -1.0 for a, b in PAIRS
)
BANDWIDTHS = tuple(bw for _ in range(2) for _, bw in _GROUP_MAPS)


def groups_sample(seed, m):
    """Eight row-aligned variables: within-group dependent, across independent."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for _ in range(2):
        t = rng.uniform(0.0, 2.0 * np.pi, size=m)
        for fmap, _ in _GROUP_MAPS:
            out.append(fmap(t) + 0.3 * rng.standard_normal(size=(m, 2)))
    return out


class GroupsM1000(Workload):
    """joint_summary over 8 variables on all 28 pairs, then generalized_test."""

    M = 1000

    def __init__(self, seed, seconds):
        arrays = [
            groups_sample(ref.trial_seed(seed, 3, i), self.M) for i in range(17 + 8 * seconds)
        ]
        self.inputs = [(a, [Sample(x, f"v{k}") for k, x in enumerate(a)]) for a in arrays]
        self.specs = [KernelSpec(bandwidth=bw) for bw in BANDWIDTHS]

    def run(self, inp):
        summary = reldep.joint_summary(inp[1], PAIRS, self.specs)
        return summary, reldep.generalized_test(summary, WEIGHTS, ALPHA)

    def expect(self, inp):
        return ref.generalized(inp[0], BANDWIDTHS, PAIRS, WEIGHTS, ALPHA)

    def verify(self, inp, result, want):
        return ref.check_generalized(*result, want)


WORKLOADS = {"dep-m3200": DepM3200, "power-m500": PowerM500, "groups-m1000": GroupsM1000}
