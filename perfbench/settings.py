"""Fixed settings shared by the runner and the measured processes."""

#: Workload name -> the registered program workload it runs.
WORKLOADS = {
    "mix-postmortem": "mix",
    "mix-stream": "mix",
    "netmix-drop-sqlite": "netmix",
}

#: Program workload scale per input size.  ``full`` is the benchmark;
#: ``half`` gives the second input size of the README's per-layer
#: scaling figures; ``tiny`` is only for the self-test.
SCALES = {
    "full": {"mix": 6.0, "netmix": 16.0},
    "half": {"mix": 3.0, "netmix": 8.0},
    "tiny": {"mix": 1.0, "netmix": 2.0},
}

#: The fault plan of ``netmix-drop-sqlite`` and its seed (fixed: only
#: the workload seed comes from ``--seed``).
FAULT_SPEC = "drop:0.02"
FAULT_SEED = 1

#: The graceful-degradation check runs on one fixed input — netmix,
#: workload seed 0, scale 2, with the fault plan above — so that it
#: gives the same verdict in every run, whatever ``--seed`` is.
SURVIVAL_INPUT = ("netmix", 0, 2.0)
#: Documented promise: at least this share of the clean run's winning
#: rules survive 2% event drops.
SURVIVAL_FLOOR = 0.9
#: Ground-truth fidelity floor of the clean mix workloads.
FIDELITY_FLOOR = 0.9

#: Workload seeds on which the simulated kernel itself crashes (a
#: ``LockUsageError`` on ``rename_lock``, about one seed in eight) are
#: left out: ``--seed N`` then runs on ``N + SEED_STRIDE``, then
#: ``N + 2 * SEED_STRIDE`` ...; the run reports every seed it skipped.
SEED_STRIDE = 1_000_000
SEED_TRIES = 8

#: Every process of the benchmark runs with this hash seed.
HASH_SEED = "0"

#: Measured rounds per run, at least (more while ``--seconds`` lasts).
MIN_ROUNDS = 3
#: Extra set-up-only processes per run, for a steadier ``setup_s``.
SETUP_PROBES = 5
