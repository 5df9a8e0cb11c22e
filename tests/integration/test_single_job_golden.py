"""Golden schedule of the single-job PipeInfer head (oracle, 8 nodes).

The head's idle waits are a scheduling detail: whether it parks on the
next arrival or re-checks on a timer, the tokens, the prefill end, the
finish time and every inter-token gap must stay exactly these recorded
values.  Any change to them is a change to the paper's reproduced
figures and has to be made on purpose, by re-recording the literals.
"""

import pytest

from repro import (
    GenerationJob,
    OracleBackend,
    PipeInferEngine,
    cluster_c,
    get_pair,
    run_engine,
)

JOB = GenerationJob(prompt=tuple(range(100, 164)), n_generate=48)

TOKENS = [
    23949, 14877, 18881, 15943, 15441, 27697, 9048, 26725, 20222, 22330,
    1650, 26374, 5022, 15297, 6638, 14100, 26591, 24475, 12528, 8108,
    2052, 2354, 15689, 2336, 6350, 30561, 1772, 9523, 1181, 24807,
    3876, 9478, 3989, 17556, 31747, 28135, 1721, 24408, 17653, 22191,
    13743, 26935, 16903, 28693, 29477, 29970, 1061, 24675,
]
PREFILL_END = 16.781814385959294
FINISH_TIME = 30.186861370432926
ITL_SAMPLES = [
    0.5065104380175747, 0.0, 0.0, 0.0, 1.206783568786964, 0.0, 0.0, 0.0,
    0.00011999999999900979, 0.0, 0.6733080391572734, 0.5064864072975688,
    0.6733080391572734, 0.10388283820662636, 0.7319457404984355,
    2.999999999886427e-05, 0.7583289540266875, 0.7751522558850432,
    1.2915997218421182, 0.0, 6.000000000128125e-05, 0.0,
    6.000000000128125e-05, 0.0, 0.6733220545172642, 0.8817683795997269,
    2.999999999886427e-05, 2.999999999886427e-05, 0.9057968551501823, 0.0,
    0.00011999999999900979, 0.0, 0.0, 0.6817733450292813,
    0.49801071358558957, 0.0, 6.000000000128125e-05, 0.0,
    0.683296188743892, 0.00013095999999990227, 0.0, 0.0, 0.0,
    2.999999999886427e-05, 0.6733080391572734, 0.506514438017593, 0.0, 0.0,
    0.0,
]


@pytest.fixture(scope="module")
def run():
    pair = get_pair("dolphin+tinyllama")
    cluster = cluster_c(8)
    collectors = []

    def factory(backend, network, config, metrics):
        collectors.append(metrics)
        return PipeInferEngine(backend, network, config, metrics)

    report = run_engine(
        factory, OracleBackend(pair, head_node=cluster.nodes[0]), cluster, JOB
    )
    (metrics,) = collectors
    return report, metrics


def test_single_job_schedule_is_pinned(run):
    report, metrics = run
    assert report.tokens == TOKENS
    assert metrics.prefill_end == PREFILL_END
    assert metrics.finish_time == FINISH_TIME
    assert metrics.itl_samples() == ITL_SAMPLES


def test_idle_head_parks_instead_of_polling(run):
    """Polling leaves the schedule above unchanged, so only the work shows
    it: 2,917 kernel events (61 per token) parked, 83,747 (1,745 per
    token) when the lookahead-capped head re-checked every 0.2 ms."""
    report, _ = run
    assert report.n_events < 100 * JOB.n_generate
