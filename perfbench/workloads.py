"""The benchmark's workloads: the eight frozen acceptance configs in three groups.

Each config is written in the JSON vocabulary of ``ExperimentConfig.from_dict``
(the form a child process receives), with every field left at its default
exactly where the acceptance gate leaves it.  ``test_perfbench.py`` checks
that these equal ``tests/test_acceptance.py::CONFIGS`` field for field, so
the benchmark cannot drift away from the problems the gate checks.

The seed is not part of a config: the benchmark sets it from ``--seed``.
The acceptance seed is 7.
"""

ACCEPTANCE_SEED = 7

CONFIGS = {
    "noise-check": {"study": "noise-check"},
    "qv": {"study": "qv"},
    "heat": {"study": "heat"},
    "burgers-1d": {"study": "burgers", "refine_levels": 3},
    "burgers-2d": {
        "study": "burgers",
        "d": 2,
        "N": 64,
        "M": 8192,
        "initial": {
            "kind": "gaussian-bump",
            "params": {"a": 0.5, "w": 0.12, "center": [0.37, 0.61]},
        },
    },
    "converge": {"study": "converge"},
    "section": {
        "study": "section",
        "N": 64,
        "M": 410,
        "T": 0.025,
        "n": 4,
        "initial": {"kind": "cosine", "params": {"a": 0.2}},
    },
    "fk-check": {"study": "fk-check", "N": 32, "M": 410, "n": 4},
}

# Why each group exists (ROADMAP items 2 and 3 must show on different ones):
#   ladder-1d  1-D, N <= 128, M = 32768: the heat march's per-step overhead
#              dominates, so slice stencils and batched scales show here.
#   weak-2d    d = 2, N = 64, M = 8192: the weak pass, bulk noise and four
#              268 MB space-time stacks dominate time and peak RSS, so a
#              streaming march shows here and a per-step fix barely moves it.
#   laws       thousands of tiny sample_noise/mollify calls plus the whole
#              random-walk estimator, so added per-call set-up shows here.
WORKLOADS = {
    "ladder-1d": ("heat", "burgers-1d", "converge"),
    "weak-2d": ("burgers-2d",),
    "laws": ("noise-check", "qv", "section", "fk-check"),
}
