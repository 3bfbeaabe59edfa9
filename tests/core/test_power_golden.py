"""Golden pins for power-on DP runs, counters included.

The power family's frontiers are the largest the engines keep (three
axes: load, slack, power), and both engines prune them and pick their
buffering donors with power-specific code.  These pins hold that code
to its answers bit for bit: per net and per engine, the candidate
counters (``candidates_generated``, ``candidates_kept_peak``) and the
selected ``(buffer count, slack, power)``, on the first 24 nets of the
delay-mode power-capped family (``PowerWorkloadConfig(noise_aware=False)``,
``max_buffers=4``).  A rewrite that keeps the same frontiers keeps every
literal; one that keeps or drops a single extra candidate moves a
counter.

If an intentional algorithmic change moves them, re-derive with::

    PYTHONPATH=src python - <<'PY'
    from repro.batch.optimizer import BatchConfig, optimize_net
    from repro.library.buffers import default_buffer_library
    from repro.library.power import default_power_model
    from repro.library.technology import default_technology
    from repro.noise.coupling import CouplingModel
    from repro.workloads import (
        PowerWorkloadConfig, WorkloadConfig, generate_power_population,
    )
    library = default_buffer_library()
    coupling = CouplingModel.estimation_mode(default_technology())
    config = PowerWorkloadConfig(
        base=WorkloadConfig(nets=24), noise_aware=False
    )
    for engine in ("reference", "lishi"):
        for net in generate_power_population(
            config, library, default_power_model()
        ):
            r = optimize_net(net.tree, library, coupling, BatchConfig(
                objective=net.objective, max_buffers=4, engine=engine,
            ))
            print(engine, (net.name, r.candidates_generated,
                  r.candidates_kept_peak, r.buffer_count, r.slack, r.power))
    PY
"""

import pytest

from repro.batch.optimizer import BatchConfig, optimize_net
from repro.library.buffers import default_buffer_library
from repro.library.power import default_power_model
from repro.library.technology import default_technology
from repro.noise.coupling import CouplingModel
from repro.workloads import (
    PowerWorkloadConfig,
    WorkloadConfig,
    generate_power_population,
)

#: engine -> (net, generated, kept peak, buffers, slack, power) per net.
GOLDEN = {
    "reference": (
        ('net0000', 2253, 937, 2, 1.498488876674325e-10, 0.0001583026066769207),
        ('net0001', 3526, 816, 2, 1.3316077008152023e-10, 0.00015182768734492246),
        ('net0002', 23369, 4013, 2, 4.382537467422156e-10, 0.0007304352934392636),
        ('net0003', 19667, 2413, 2, 2.94058956727006e-10, 0.0005826954466304524),
        ('net0004', 1339, 606, 2, 9.219872546902729e-11, 0.00016148113602551615),
        ('net0005', 1198, 493, 2, 6.390110726139248e-11, 0.0001339787191608927),
        ('net0006', 13011, 3012, 2, 5.00080704097873e-10, 0.0004667876987444751),
        ('net0007', 3537, 1190, 2, 1.2301622529345922e-10, 0.00019949997222218566),
        ('net0008', 9204, 2623, 2, 2.0841054488770287e-10, 0.00038029324306224587),
        ('net0009', 5001, 1808, 2, 1.0968292025816858e-10, 0.00027522450847600367),
        ('net0010', 1204, 494, 2, 4.363853957112293e-11, 0.00012332945666236115),
        ('net0011', 5872, 2063, 2, 2.3605147072160425e-10, 0.0002919571233638691),
        ('net0012', 2456, 730, 2, 9.493020780537669e-11, 0.00014680660999928693),
        ('net0013', 115, 69, 2, 1.7757573771802383e-11, 0.00011626945723509696),
        ('net0014', 21499, 3400, 2, 4.683036692627228e-10, 0.0006999227658150753),
        ('net0015', 4281, 1685, 2, 1.5761381193761036e-10, 0.00023106813555207636),
        ('net0016', 12529, 1588, 2, 1.6742441306235506e-10, 0.00028050379467910283),
        ('net0017', 19661, 3149, 2, 5.553932430707497e-10, 0.000645754940909254),
        ('net0018', 1361, 615, 2, 1.6192383068400405e-10, 0.00016456900609014593),
        ('net0019', 16415, 3031, 2, 2.82389441567094e-10, 0.0005493155889459893),
        ('net0020', 18077, 3220, 2, 3.041360228849523e-10, 0.0005583798182957668),
        ('net0021', 1902, 683, 2, 1.6004918682917206e-10, 0.00012973448042547504),
        ('net0022', 15259, 1773, 2, 1.7210087220409337e-10, 0.00033629983377397545),
        ('net0023', 471, 243, 2, 4.046836704940649e-11, 0.00013267411333168922),
    ),
    "lishi": (
        ('net0000', 1895, 862, 2, 1.498488876674326e-10, 0.0001583026066769207),
        ('net0001', 3609, 830, 2, 1.3316077008152018e-10, 0.00015182768734492246),
        ('net0002', 19470, 3210, 2, 4.382537467422154e-10, 0.0007304352934392636),
        ('net0003', 17886, 2422, 2, 2.94058956727006e-10, 0.0005826954466304524),
        ('net0004', 1210, 563, 2, 9.219872546902729e-11, 0.00016148113602551615),
        ('net0005', 1167, 473, 2, 6.390110726139249e-11, 0.0001339787191608927),
        ('net0006', 11156, 2699, 2, 5.00080704097873e-10, 0.00046678769874447507),
        ('net0007', 3340, 1145, 2, 1.2301622529345906e-10, 0.00019949997222218566),
        ('net0008', 8252, 2468, 2, 2.0841054488770284e-10, 0.00038029324306224587),
        ('net0009', 4543, 1749, 2, 1.0968292025816853e-10, 0.00027522450847600367),
        ('net0010', 1165, 475, 2, 4.3638539571122997e-11, 0.00012332945666236118),
        ('net0011', 5467, 1969, 2, 2.360514707216042e-10, 0.0002919571233638691),
        ('net0012', 2390, 730, 2, 9.493020780537676e-11, 0.00014680660999928693),
        ('net0013', 115, 68, 2, 1.775757377180242e-11, 0.00011626945723509696),
        ('net0014', 18611, 3123, 2, 4.683036692627226e-10, 0.0006999227658150753),
        ('net0015', 3612, 1484, 2, 1.576138119376104e-10, 0.00023106813555207636),
        ('net0016', 11441, 1640, 2, 1.6742441306235516e-10, 0.00028050379467910283),
        ('net0017', 16032, 3018, 2, 5.553932430707496e-10, 0.000645754940909254),
        ('net0018', 1218, 581, 2, 1.619238306840041e-10, 0.00016456900609014595),
        ('net0019', 13492, 2887, 2, 2.8238944156709406e-10, 0.0005493155889459892),
        ('net0020', 15437, 2982, 2, 3.04136022884952e-10, 0.0005583798182957668),
        ('net0021', 1873, 679, 2, 1.6004918682917206e-10, 0.00012973448042547504),
        ('net0022', 14972, 1783, 2, 1.7210087220409331e-10, 0.00033629983377397556),
        ('net0023', 444, 234, 2, 4.046836704940649e-11, 0.0001326741133316892),
    ),
}


@pytest.fixture(scope="module")
def population():
    library = default_buffer_library()
    config = PowerWorkloadConfig(
        base=WorkloadConfig(nets=24), noise_aware=False
    )
    return library, generate_power_population(
        config, library, default_power_model()
    )


@pytest.mark.parametrize("engine", sorted(GOLDEN))
def test_power_on_signatures_match_golden(population, engine):
    library, nets = population
    coupling = CouplingModel.estimation_mode(default_technology())
    got = []
    for net in nets:
        result = optimize_net(net.tree, library, coupling, BatchConfig(
            objective=net.objective, max_buffers=4, engine=engine,
        ))
        assert result.ok, result.error
        got.append((
            net.name,
            result.candidates_generated,
            result.candidates_kept_peak,
            result.buffer_count,
            result.slack,
            result.power,
        ))
    assert tuple(got) == GOLDEN[engine]
