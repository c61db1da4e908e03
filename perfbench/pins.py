"""Pinned values the benchmark checks against.

``CALIB_REF_S`` is the calibration-loop time of the reference machine:
every calibrated time reads in that machine's seconds.  It was the
median loop time on a 2-core x86_64 VM under CPython 3.11.

``SEED0_DIGESTS`` are the sha256 digests of every output at ``--seed 0``,
where the benchmark's inputs are exactly the program's defaults: for the
experiment workloads, of ``ExperimentResult.format(include_series=True)``
per experiment (the byte-identity spec ``scripts/ci_smoke.sh`` uses); for
``sched-512``, of every round's task-to-slot map and moved-task count.
A change that alters simulated behaviour on purpose re-pins them from
the ``digest`` lines the benchmark prints.
"""

CALIB_REF_S = 0.018

SEED0_DIGESTS = {
    "paper-closed": {
        "fig8": "a33cf50eb10f154946b1116e3f8ac0a2a46a89d7bd984e99283071b688be7857",
        "fig9": "be81d28211a714e132ec6ab418d8a64ea1a477bd4b3255895ac264adb2aa203d",
        "fig10": "c680cfbb854c9d9d542c5a459fe887b12cc93296f451f9c74c3a75e8fcd8a819",
        "fig12": "3b3d898f4dc551ac5190108bc106de2f9d8adcff67bd24d37936bb32df7565f7",
        "fig13": "95991390e44511a5e1e3ada7aea91ae8249a9e8ff300d73d11a36e381c3f6faa",
    },
    "open-overload": {
        "traffic": "f20ada45e7d155c33701dcbde4f3f972a0f6e30c65344e0c86440476e996aed4",
        "protection": (
            "4ef1a991762e0ac73dc1d73b4613fcdb8a32bd5d7351349e218bec837d134f41"
        ),
    },
    "control-plane": {
        "chaos": "3518547693e3a3d1ee32b37d8bf07fe364286caa6eb144947d764b772e98eaf3",
        "elastic": "4602bf1321e2cc7c1a4fe4f8fa329b196a5e7946dc65971614059e6ae7a7e1c2",
        "tenants": "5ace0647d06c4970ae100c4c1e70c8e5cf120efb80f691441ce35ce0cbc3b23b",
    },
    "sched-512": {
        "rounds": "5f5888cf29deb393c13fbb907c4faf7b9d904b82af8e0c12c4e6db5e565c38e4",
    },
}
